import io
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference_kernels as ref
from conftest import random_ket, random_orthonormal_filters, random_unitary
from whichway import (
    ConventionError,
    DimensionError,
    FractionalVisibilityRecord,
    FringeDataset,
    NoiseRow,
    NonFiniteError,
    NumericalError,
    PathChannel,
    RowReport,
    binomial_resample,
    block_choi,
    fit_fringes,
    identity_channel,
    jones_matrix,
    ket,
    pauli_mixture_channel,
    pauli_noise_program,
    program_channel,
    random_path_channel,
    read_dataset_csv,
    rectilinear_filters,
    rectilinear_preparations,
    replace_channel,
    run_experiment,
    simulate_fringes,
    transpose_channel,
    verify_noise_program,
    write_dataset_csv,
)
from whichway.channels import pure_pair
from whichway import interferometer
from whichway.interferometer import (
    _allocate,
    _count_cells,
    _fit_counts,
    _probability_tables,
    _simulate_cells,
    _unitary_rows,
)

H, V = ket(0, 2), ket(1, 2)
PREPS = rectilinear_preparations()
FILTERS = rectilinear_filters()
DETECTORS = ("plus", "minus", "ref0", "ref1")


def _proportional(a, b, atol=1e-12):
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    phase = a[idx] / b[idx]
    return abs(abs(phase) - 1) < atol and np.max(np.abs(a - phase * b)) < atol


def test_jones_half_wave_anchors():
    h0 = jones_matrix("half", 0.0)
    assert _proportional(h0, np.diag([1.0, -1.0]).astype(complex))
    h45 = jones_matrix("half", 45.0)
    assert _proportional(h45, np.array([[0, 1], [1, 0]], dtype=complex))


def test_jones_quarter_squares_to_half():
    for angle in (-30.0, 0.0, 45.0, 72.5):
        q = jones_matrix("quarter", angle)
        h = jones_matrix("half", angle)
        assert _proportional(q @ q, h)


def test_jones_matrices_unitary():
    rng = np.random.default_rng(0)
    for _ in range(20):
        kind = "half" if rng.random() < 0.5 else "quarter"
        m = jones_matrix(kind, float(rng.uniform(-180, 180)))
        np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-12)


def test_jones_matrix_validation():
    for kind, angle, message in (
        ("third", 10.0, "unknown wave plate kind 'third'"),
        ("half", 200.0, "angle 200.0 outside [-180, 180] degrees"),
        ("quarter", -180.5, "angle -180.5 outside [-180, 180] degrees"),
        ("half", float("nan"), "angle nan outside [-180, 180] degrees"),
        ("half", "10", "angle '10' is not a real number"),
        ("quarter", None, "angle None is not a real number"),
    ):
        with pytest.raises(DimensionError, match=re.escape(message)):
            jones_matrix(kind, angle)


def test_empty_noise_program_is_refused():
    with pytest.raises(DimensionError, match="a noise program needs at least one row"):
        verify_noise_program(())
    # refused before the 1/sqrt(0) scale, whose warning pyproject.toml makes an error
    with pytest.raises(DimensionError, match="needs at least one row report"):
        program_channel(())


def test_verify_standard_noise_program():
    reports = verify_noise_program(pauli_noise_program())
    assert isinstance(reports, tuple) and len(reports) == 4
    assert all(isinstance(r, RowReport) for r in reports)
    assert [r.target for r in reports] == ["I,I", "X,X", "Y,-Y", "Z,Z"]
    assert max(r.deviation for r in reports) <= 1e-9
    # the (Y,-Y) row keeps its relative sign: the matched effective pair is
    # e^{i gamma} (Y, -Y), so the two arm unitaries must be opposite
    row = {r.target: r for r in reports}["Y,-Y"]
    u0, u1 = row.effective_pair
    np.testing.assert_allclose(u0, -u1, atol=1e-9)


def test_standard_program_rows_hold_angles_in_degrees():
    for row in pauli_noise_program():
        angles = (row.h0, row.h1, row.q1, row.q2)
        assert all(type(a) is float and -180.0 <= a <= 180.0 for a in angles)


def test_verified_program_matches_mixture_channel():
    avg = program_channel(verify_noise_program(pauli_noise_program()))
    ref = pauli_mixture_channel()
    for i in (0, 1):
        for j in (0, 1):
            np.testing.assert_allclose(
                block_choi(avg, i, j), block_choi(ref, i, j), atol=1e-9
            )


def test_effective_pairs_follow_the_convention_at_random_angles():
    # arm i realizes W QWP(q2) HWP(h_i) QWP(q1) W^dag, W = (1 - iX)/sqrt(2).
    # Turning every plate of a row by the same angle a conjugates the lab
    # product by R(a), a rotation about Z in the W frame, so the (I, I) and
    # (Z, Z) rows of the standard program stay realized at any a.
    rng = np.random.default_rng(2025)
    w = (np.eye(2) - 1j * np.array([[0, 1], [1, 0]])) / np.sqrt(2)
    rows = tuple(
        NoiseRow(row.target, row.h0 + a, row.h1 + a, row.q1 + a, row.q2 + a)
        for row in pauli_noise_program() if row.target in ("I,I", "Z,Z")
        for a in rng.uniform(-90.0, 90.0, 25)
    )
    reports = verify_noise_program(rows)
    assert len(reports) == len(rows)
    for row, report in zip(rows, reports):
        assert report.target == row.target and report.deviation <= 1e-9
        for h, u in zip((row.h0, row.h1), report.effective_pair):
            lab = jones_matrix("quarter", row.q2) @ jones_matrix("half", h) \
                @ jones_matrix("quarter", row.q1)
            np.testing.assert_allclose(u, w @ lab @ w.conj().T, rtol=0, atol=1e-12)


def test_identity_program_at_zero_angles():
    (report,) = verify_noise_program((NoiseRow("I,I", 0.0, 0.0, 0.0, 0.0),))
    assert report.deviation <= 1e-12
    for u in report.effective_pair:
        np.testing.assert_allclose(u, np.eye(2), atol=1e-12)


def test_unrealizable_program_raises_convention_error():
    with pytest.raises(ConventionError):
        verify_noise_program((NoiseRow("Y,-Y", 10.0, 0.0, 0.0, 0.0),))


def test_convention_error_names_each_failing_row_with_its_deviation():
    bad = NoiseRow("Y,-Y", 10.0, 0.0, 0.0, 0.0)
    with pytest.raises(ConventionError) as info:
        verify_noise_program((bad,))
    message = str(info.value)
    assert interferometer.CONVENTION in message
    assert re.search(r"^  Y,-Y: max deviation \d\.\d{3}e[+-]\d\d$", message, re.M)
    # every failing row is named, in program order, and no passing row is
    standard = pauli_noise_program()
    rows = (standard[0], bad, standard[3], NoiseRow("X,X", 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ConventionError) as info:
        verify_noise_program(rows)
    named = [line.split(":")[0].strip() for line in str(info.value).splitlines()[1:]]
    assert named == ["Y,-Y", "X,X"]


@pytest.mark.parametrize("order", ["half-then-quarter", "quarter-then-half"])
def test_one_half_and_one_quarter_plate_in_one_arm_never_give_the_identity(order):
    # |tr U| / 2 = |cos(Bloch angle / 2)| <= 1/sqrt(2): the product of a pi and
    # a pi/2 rotation rotates by at least pi/2, so it is never +-identity and a
    # per-arm chain cannot realize the (I, I) row; the bound is attained
    half = np.array([jones_matrix("half", a) for a in np.linspace(-180.0, 180.0, 721)])
    quarter = np.array([jones_matrix("quarter", a) for a in np.linspace(-180.0, 180.0, 181)])
    h, q = half[:, None], quarter[None, :]
    chain = q @ h if order == "half-then-quarter" else h @ q
    overlap = np.abs(np.trace(chain, axis1=-2, axis2=-1)) / 2
    assert overlap.max() <= 1 / np.sqrt(2) + 1e-12
    assert overlap.max() >= 1 / np.sqrt(2) - 1e-12


def test_simulate_zero_shots_gives_zero_counts():
    ds = simulate_fringes(
        pauli_mixture_channel(), PREPS["hh"], FILTERS["hh"], shots_per_phase=0, seed=1
    )
    assert ds.counts.sum() == 0


def test_simulate_deterministic_under_seed():
    ch = pauli_mixture_channel()
    a = simulate_fringes(ch, PREPS["hh"], FILTERS["hh"], shots_per_phase=5000, seed=42)
    b = simulate_fringes(ch, PREPS["hh"], FILTERS["hh"], shots_per_phase=5000, seed=42)
    np.testing.assert_array_equal(a.counts, b.counts)
    c = simulate_fringes(ch, PREPS["hh"], FILTERS["hh"], shots_per_phase=5000, seed=43)
    assert not np.array_equal(a.counts[:2], c.counts[:2])


def test_simulated_counts_match_expected_probabilities():
    ch = pauli_mixture_channel()
    shots = 200_000
    ds = simulate_fringes(ch, PREPS["hh"], FILTERS["hh"], shots_per_phase=shots, seed=7)
    for j, phi in enumerate(ds.phases):
        p_plus, p_minus = ref.detection_probabilities(0.5, 0.5, phi)
        for count, prob in ((ds.counts[0, j], p_plus), (ds.counts[1, j], p_minus)):
            sigma = np.sqrt(shots * max(prob * (1 - prob), 1e-12))
            assert abs(count - shots * prob) < 5 * sigma + 5


def test_simulate_validates_inputs():
    ch = pauli_mixture_channel()
    with pytest.raises(DimensionError):
        simulate_fringes(ch, PREPS["hh"], FILTERS["hh"], contrast=0.0)
    with pytest.raises(DimensionError):
        simulate_fringes(ch, PREPS["hh"], FILTERS["hh"], contrast=1.5)
    with pytest.raises(DimensionError):
        simulate_fringes(ch, PREPS["hh"], FILTERS["hh"], efficiencies=(1.0, 0.0, 1.0, 1.0))


def test_simulate_pooled_fallback_for_non_unitary_rows():
    # the replace channel's Kraus pairs are not sub-normalized unitaries;
    # orthogonal arm preparations leave no coherence for it to transmit
    from whichway import replace_channel

    ch = replace_channel(np.eye(2) / 2)
    ds = simulate_fringes(ch, PREPS["hv"], FILTERS["hh"], shots_per_phase=50_000, seed=3)
    fit = fit_fringes(ds)
    assert abs(fit.visibility) < 5 * fit.sigma_v + 1e-3
    assert fit.p == pytest.approx(0.5, abs=0.02)
    # identical arm preparations keep full coherence through the replacement
    ds2 = simulate_fringes(ch, PREPS["hh"], FILTERS["hh"], shots_per_phase=50_000, seed=3)
    fit2 = fit_fringes(ds2)
    assert abs(fit2.visibility) == pytest.approx(0.5, abs=5 * fit2.sigma_v + 1e-3)


def test_binomial_resample_ratio_one_is_identity():
    ch = pauli_mixture_channel()
    ds = simulate_fringes(ch, PREPS["hh"], FILTERS["hh"], shots_per_phase=2000, seed=9)
    out = binomial_resample(ds, 1.0, seed=5)
    np.testing.assert_array_equal(out.counts, ds.counts)


def test_binomial_resample_scales_expected_counts():
    ch = pauli_mixture_channel()
    ds = simulate_fringes(
        ch, PREPS["hh"], FILTERS["hh"], shots_per_phase=20_000,
        efficiencies=(0.9, 0.6, 0.9, 0.6), seed=11,
    )
    base = ds.counts[0].sum()
    means = []
    for s in range(100):
        out = binomial_resample(ds, 0.6, seed=s)
        means.append(out.counts[0].sum())
    ratio = np.mean(means) / base
    assert ratio == pytest.approx(0.6 / 0.9, abs=0.01)
    np.testing.assert_array_equal(binomial_resample(ds, 0.6, seed=0).counts[1], ds.counts[1])


def test_binomial_resample_zero_counts_and_validation():
    ds = simulate_fringes(
        pauli_mixture_channel(), PREPS["hh"], FILTERS["hh"],
        shots_per_phase=0, efficiencies=(0.9, 0.9, 0.9, 0.9), seed=1,
    )
    out = binomial_resample(ds, 0.5, seed=2)
    assert out.counts.sum() == 0
    with pytest.raises(DimensionError):
        binomial_resample(ds, 0.95, seed=2)


def test_fit_recovers_exact_noiseless_model():
    # phases with cos in {0, +/-1/2, +/-1} so the model counts are integers
    phases = np.array([0, 1 / 3, 1 / 2, 2 / 3, 1, 4 / 3, 3 / 2, 5 / 3]) * np.pi
    n = 8_000
    p, v, delta = 0.5, 0.5, 0.0
    plus = np.round(n * 0.5 * (p + v * np.cos(phases + delta))).astype(int)
    minus = np.round(n * 0.5 * (p - v * np.cos(phases + delta))).astype(int)
    ref = np.full(len(phases), n // 4, dtype=int)
    ds = FringeDataset(phases=tuple(phases), counts=np.array([plus, minus, ref, ref]),
                       shots_per_phase=n, seed=(0,), efficiencies=(1.0,) * 4)
    fit = fit_fringes(ds)
    assert fit.p == pytest.approx(p, abs=1e-9)
    assert abs(fit.visibility) == pytest.approx(v, abs=1e-9)
    assert fit.visibility.real == pytest.approx(v, abs=1e-9)


def test_fit_zero_visibility_without_spurious_significance():
    rng = np.random.default_rng(21)
    phases = np.linspace(0.0, 2 * np.pi, 13)
    n = 10_000
    plus = rng.poisson(n * 0.25, size=len(phases))
    minus = rng.poisson(n * 0.25, size=len(phases))
    ref = rng.poisson(n * 0.25, size=len(phases))
    ref2 = rng.poisson(n * 0.25, size=len(phases))
    ds = FringeDataset(phases=tuple(phases), counts=np.array([plus, minus, ref, ref2]),
                       shots_per_phase=n, seed=(0,), efficiencies=(1.0,) * 4)
    fit = fit_fringes(ds)
    assert abs(fit.visibility) < 4 * fit.sigma_v + 1e-6


def test_fit_requires_phase_coverage():
    n = 100
    ds = FringeDataset(phases=(0.0, 0.1, 0.2), counts=np.full((4, 3), 10), shots_per_phase=n,
                       seed=(0,), efficiencies=(1.0,) * 4)
    from whichway import NumericalError

    with pytest.raises(NumericalError):
        fit_fringes(ds)


@pytest.mark.parametrize("gap, degenerate", [(1e-7, True), (1e-4, False)])
def test_fit_refuses_a_design_conditioned_beyond_1e12(gap, degenerate):
    # three phases crowded at 0 pin Im V only through sin(gap): cond of the
    # normal equations is about 1.5e14 for gap 1e-7 and 1.5e8 for gap 1e-4
    from whichway import NumericalError

    ds = FringeDataset(phases=(0.0, gap, 2 * gap, np.pi), counts=np.full((4, 4), 10),
                       shots_per_phase=40, seed=(0,), efficiencies=(1.0,) * 4)
    if degenerate:
        with pytest.raises(NumericalError, match="degenerate design"):
            fit_fringes(ds)
    else:
        assert fit_fringes(ds).p == pytest.approx(0.5, abs=1e-9)


def test_fit_consistency_envelope_on_simulated_data():
    ch = pauli_mixture_channel()
    for s in range(10):
        ds = simulate_fringes(
            ch, PREPS["hh"], FILTERS["hh"], shots_per_phase=5000,
            contrast=0.9, seed=(100, s),
        )
        fit = fit_fringes(ds)
        assert abs(fit.visibility) <= fit.p + 3 * (fit.sigma_p + fit.sigma_v)


@pytest.mark.parametrize("excess", [0.5e-10, 1.5e-10])
def test_record_and_fit_refuse_past_the_same_3_sigma_envelope(excess):
    # |V| = p + 3 (sigma_p + sigma_v) + excess; past the 1e-10 slack a
    # hand-built record is bad input and a fit is a numerical fault
    sigma = 0.01

    def record():
        return FractionalVisibilityRecord("a", "b", 0.5, 0.5 + 6 * sigma + excess, sigma, sigma)

    # noiseless counts with p = 1/2 and V = 1/2 + excess, so the fitted sigmas
    # are round-off; every |cos| is at most 1/2, so every count is >= 0
    n = 8 * 10**10
    phases = np.array([1 / 3, 1 / 2, 2 / 3, 4 / 3, 3 / 2, 5 / 3]) * np.pi
    fringe = np.array([1, 0, -1, -1, 0, 1]) * (n // 8 + round(excess * n / 4))
    ds = FringeDataset(tuple(phases), np.array([n // 4 + fringe, n // 4 - fringe,
                                                [n // 4] * 6, [n // 4] * 6]),
                       n, (0,), (1.0,) * 4)
    if excess > 1e-10:
        with pytest.raises(DimensionError, match="beyond 3 sigma"):
            record()
        with pytest.raises(NumericalError, match="beyond the 3-sigma envelope"):
            fit_fringes(ds)
    else:
        record()
        fit = fit_fringes(ds)
        assert abs(fit.visibility) - fit.p == pytest.approx(excess, abs=1e-13)
        assert fit.sigma_p + fit.sigma_v < 1e-13


def test_run_experiment_produces_grid_consistent_with_theory():
    ch = pauli_mixture_channel()
    records = run_experiment(ch, shots_per_phase=20_000, contrast=1.0, seed=5)
    assert len(records) == 16
    by_key = {r.key: r for r in records}
    bright = {("hh", "hh"), ("hv", "vh"), ("vh", "hv"), ("vv", "vv")}
    for key, rec in by_key.items():
        assert rec.p == pytest.approx(0.5, abs=5 * (rec.sigma_p + 0.01))
        target = 0.5 if key in bright else 0.0
        assert abs(rec.visibility) == pytest.approx(target, abs=4 * rec.sigma_v + 0.01)


@pytest.mark.parametrize("shots", [0, -1])
def test_run_experiment_without_shots_is_a_dimension_error(shots):
    # no counts to fit is an input error, not a numerical failure
    with pytest.raises(DimensionError, match="shots_per_phase"):
        run_experiment(pauli_mixture_channel(), shots_per_phase=shots, seed=1)


@pytest.mark.parametrize("empty", ["preparations", "filters"])
def test_run_experiment_refuses_an_empty_grid(monkeypatch, empty):
    def no_streams(*args):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(np.random, "default_rng", no_streams)
    with pytest.raises(DimensionError, match=f"^{empty} is empty"):
        run_experiment(pauli_mixture_channel(), **{empty: {}}, seed=1)


@pytest.mark.parametrize("shots", [2.5, 10.0, np.float64(100.0), "10"])
@pytest.mark.parametrize("simulate", ["simulate_fringes", "run_experiment"])
def test_counting_refuses_a_shot_count_that_is_not_an_integer(simulate, shots):
    ch = pauli_mixture_channel()
    with pytest.raises(DimensionError, match="shots_per_phase"):
        if simulate == "simulate_fringes":
            simulate_fringes(ch, PREPS["hh"], FILTERS["hh"], shots_per_phase=shots)
        else:
            run_experiment(ch, shots_per_phase=shots)


def test_counting_accepts_a_numpy_integer_shot_count():
    ch = pauli_mixture_channel()
    ds = simulate_fringes(ch, PREPS["hh"], FILTERS["hh"], shots_per_phase=np.int64(50), seed=2)
    assert ds.counts.sum(axis=0).max() == 50
    assert len(run_experiment(ch, shots_per_phase=np.int32(50), seed=2)) == 16


def test_counting_refuses_a_bool_shot_count():
    # bool is an int subclass; True is not a shot count
    ch = pauli_mixture_channel()
    with pytest.raises(DimensionError, match="shots_per_phase must be >= 0 and an integer, got True"):
        simulate_fringes(ch, PREPS["hh"], FILTERS["hh"], shots_per_phase=True)
    with pytest.raises(DimensionError, match="shots_per_phase must be >= 0 and an integer, got True"):
        _dataset(np.zeros((4, 2), dtype=np.int64), shots_per_phase=True)


@pytest.mark.parametrize("seed", [[-3, "x"], (1, -2), -1, 2.5, "12", (True,)])
def test_dataset_refuses_a_seed_the_simulators_refuse(seed):
    counts = np.zeros((4, 2), dtype=np.int64)
    with pytest.raises(DimensionError, match="seed must be >= 0 and an integer, got "):
        FringeDataset((0.0, 1.0), counts, 10, seed, (1.0,) * 4)
    with pytest.raises(DimensionError, match="seed must be >= 0 and an integer, got "):
        simulate_fringes(pauli_mixture_channel(), PREPS["hh"], FILTERS["hh"], seed=seed)
    text = "phase,n_plus,n_minus,n_ref0,n_ref1\n0.0,0,0,0,0\n"
    with pytest.raises(DimensionError, match="seed must be >= 0 and an integer, got "):
        read_dataset_csv(io.StringIO(text), shots_per_phase=10, seed=seed)


def test_dataset_stores_its_seed_as_a_tuple_of_ints():
    counts = np.zeros((4, 2), dtype=np.int64)
    for seed, want in ((7, (7,)), ([1, np.int64(2)], (1, 2)), ((), ())):
        stored = FringeDataset((0.0, 1.0), counts, 10, seed, (1.0,) * 4).seed
        assert stored == want and all(type(s) is int for s in stored)


@pytest.mark.parametrize("phases", [(0.0, 2.0, 1.0, 4.0), (0.0, 1.0, 1.0, 4.0)])
def test_counting_refuses_phases_that_do_not_increase(phases):
    ch = pauli_mixture_channel()
    with pytest.raises(DimensionError, match="phases must be strictly increasing"):
        simulate_fringes(ch, PREPS["hh"], FILTERS["hh"], phases=phases)
    with pytest.raises(DimensionError, match="phases must be strictly increasing"):
        run_experiment(ch, phases=phases)


def test_run_experiment_subset_request():
    ch = pauli_mixture_channel()
    preps = {"hh": PREPS["hh"]}
    filters = {"hh": FILTERS["hh"]}
    records = run_experiment(ch, preps, filters, shots_per_phase=1000, seed=6)
    assert [r.key for r in records] == [("hh", "hh")]


def test_run_experiment_with_nonuniform_efficiencies():
    ch = pauli_mixture_channel()
    records = run_experiment(
        ch, {"hh": PREPS["hh"]}, {"hh": FILTERS["hh"]},
        shots_per_phase=50_000, efficiencies=(0.95, 0.8, 0.9, 0.85),
        contrast=1.0, seed=8,
    )
    rec = records[0]
    # resampling to the common efficiency keeps the estimates unbiased
    assert rec.p == pytest.approx(0.5, abs=5 * rec.sigma_p + 0.01)
    assert abs(rec.visibility) == pytest.approx(0.5, abs=5 * rec.sigma_v + 0.01)


def test_dataset_csv_round_trip(tmp_path):
    ds = simulate_fringes(
        pauli_mixture_channel(), PREPS["hh"], FILTERS["hh"],
        shots_per_phase=3000, seed=12,
    )
    path = tmp_path / "fringes.csv"
    write_dataset_csv(ds, path)
    back = read_dataset_csv(path, shots_per_phase=ds.shots_per_phase, seed=ds.seed)
    assert back.phases == ds.phases
    np.testing.assert_array_equal(back.counts, ds.counts)
    buf = io.StringIO()
    write_dataset_csv(ds, buf)
    assert buf.getvalue().splitlines()[0] == "phase,n_plus,n_minus,n_ref0,n_ref1"
    assert buf.getvalue().encode("ascii") == path.read_bytes()


def _dataset(counts, phases=(0.0, 1.0), shots_per_phase=10, efficiencies=(1.0,) * 4):
    return FringeDataset(phases, counts, shots_per_phase, (0,), efficiencies)


def test_dataset_validation():
    with pytest.raises(DimensionError, match="strictly increasing"):
        _dataset(np.ones((4, 2)), phases=(0.0, 0.0))
    with pytest.raises(DimensionError, match="plus counts outside"):
        _dataset(np.array([[11, 1], [1, 1], [1, 1], [1, 1]]))
    with pytest.raises(DimensionError, match="ref1 counts outside"):
        _dataset(np.array([[1, 1], [1, 1], [1, 1], [1, -1]]))
    for shape in ((2,), (4, 3), (2, 4)):
        with pytest.raises(DimensionError, match=r"counts shape .* is not \(4, 2 phases\)"):
            _dataset(np.ones(shape, dtype=np.int64))


@pytest.mark.parametrize("settings, message", [
    (dict(efficiencies=(2.0, 1, 1, 1)), "efficiencies"),
    (dict(efficiencies=(np.nan, 1, 1, 1)), "efficiencies"),
    (dict(efficiencies=(1.0, 1.0, 1.0)), "efficiencies"),
    (dict(efficiencies=(1.0, 1.0, 0.0, 1.0)), "efficiencies"),
    (dict(shots_per_phase=10.5), "shots_per_phase"),
    (dict(shots_per_phase=-1), "shots_per_phase"),
], ids=["efficiency-2", "efficiency-nan", "three-efficiencies", "efficiency-0", "shots-10.5",
        "shots-negative"])
def test_dataset_refuses_the_settings_the_simulators_refuse(settings, message):
    counts = np.zeros((4, 2), dtype=np.int64)
    with pytest.raises(DimensionError, match=message):
        _dataset(counts, **settings)
    text = "phase,n_plus,n_minus,n_ref0,n_ref1\n0.0,0,0,0,0\n1.0,0,0,0,0\n"
    with pytest.raises(DimensionError, match=message):
        read_dataset_csv(io.StringIO(text), **{"shots_per_phase": 10, **settings})
    with pytest.raises(DimensionError, match=message):
        simulate_fringes(pauli_mixture_channel(), PREPS["hh"], FILTERS["hh"], **settings)


def test_dataset_stores_phases_and_efficiencies_as_float_tuples():
    a = _dataset(np.ones((4, 3)), phases=np.arange(3), efficiencies=np.array([1, 1, 1, 1]))
    b = _dataset(np.ones((4, 3)), phases=[0, 1.0, 2])
    assert a.phases == b.phases == (0.0, 1.0, 2.0)
    assert all(type(x) is float for x in a.phases + a.efficiencies)
    assert a.efficiencies == (1.0,) * 4 and (a.phases == b.phases) is True


@pytest.mark.parametrize("row", range(4), ids=DETECTORS)
def test_dataset_refuses_non_integral_and_non_finite_counts(row):
    name = DETECTORS[row]

    def build(values):
        counts = np.ones((4, 5), dtype=np.asarray(values).dtype)
        counts[row] = values
        return _dataset(counts, phases=tuple(np.arange(5.0)))

    with pytest.raises(DimensionError, match=f"^{name} counts have a non-integral entry"):
        build([1.7] * 5)
    with pytest.raises(DimensionError, match=f"^{name} counts have a non-integral entry"):
        build(np.array([1, 1, 1, 1, 1 + 1e-9]))
    with pytest.raises(DimensionError, match=f"^{name} counts have a non-integral entry"):
        build(np.array([1, 1, 1, 1, 1 + 1j]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteError, match=f"NaN or infinite entry in {name} counts"):
            build(np.array([1.0, bad, 1.0, 1.0, 1.0]))
    # integral counts in any numeric type are stored as int64
    for values in ([2] * 5, np.full(5, 2.0), np.full(5, 2, dtype=np.uint8)):
        stored = build(values).counts
        assert stored.dtype == np.int64
        np.testing.assert_array_equal(stored[row], 2)


# ---------------------------------------------------------------------------
# Stream contract: the batched probability table against the per-(phase, row)
# loop of tests/reference_kernels.py within 1e-15, and the counts of one
# broadcast draw per cell against its scalar draws, bit for bit.


def _stream_cells(kind):
    """(channel, [(preparation, filter)]) for the stream-contract grid."""
    rng = np.random.default_rng(404)
    if kind == "pauli":
        cells = [(PREPS[mu], FILTERS[nu]) for mu, nu in (("hh", "hh"), ("hv", "vh"), ("vh", "hh"))]
        filt = random_orthonormal_filters(2, rng)["f0"]
        cells.append(((random_ket(2, rng), random_ket(2, rng)), filt))
        return pauli_mixture_channel(), cells
    if kind == "pooled":
        cells = [(PREPS[mu], FILTERS[nu]) for mu, nu in (("hh", "hh"), ("hv", "vh"))]
        return random_path_channel(2, 3, 17), cells
    filters = random_orthonormal_filters(3, rng)
    cells = [((random_ket(3, rng), random_ket(3, rng)), filters[f]) for f in ("f0", "f1", "f2")]
    return identity_channel(3), cells


@pytest.mark.parametrize("shots", [0, 3, 7, 10_000])
@pytest.mark.parametrize("kind", ["pauli", "pooled", "identity3"])
def test_simulated_counts_match_loop_reference(kind, shots):
    ch, cells = _stream_cells(kind)
    assert (_unitary_rows(ch) is None) == (kind == "pooled")
    if kind == "pauli" and shots == 3:
        assert 0 in _allocate(shots, _unitary_rows(ch))  # a row gets no shots
    for efficiencies in ((1.0,) * 4, (0.9, 1.0, 0.75, 1.0), (0.9, 0.8, 0.7, 0.6)):
        for contrast in (0.96, 1.0):
            for c, (prep, filt) in enumerate(cells):
                kwargs = dict(shots_per_phase=shots, efficiencies=efficiencies,
                              contrast=contrast, seed=(31, c))
                got = simulate_fringes(ch, prep, filt, **kwargs)
                want = ref.simulate_fringes(ch, prep, filt, **kwargs)
                assert np.array_equal(got.counts, want.counts), (efficiencies, contrast, c)


@pytest.mark.parametrize("shots", [3, 10_000])
@pytest.mark.parametrize("kind", ["pauli", "pooled", "identity3"])
def test_probability_table_matches_loop_reference(kind, shots):
    ch, cells = _stream_cells(kind)
    phases = (0.0, *np.sort(np.random.default_rng(5).uniform(0.0, 7.0, size=11)))
    kets = [pure_pair(prep, ch.spin_dim) for prep, _ in cells]
    filters = [filt for _, filt in cells] + [cells[0][1]]  # a repeated filter
    if kind == "pauli" and shots == 3:
        assert 0 in _allocate(shots, _unitary_rows(ch))  # a row gets no shots
    for contrast in (0.96, 1.0):
        args = (phases, contrast, shots)
        got_shots, got = _probability_tables(ch, kets, filters, *args)
        for c, ((psi0, psi1), filt) in enumerate(itertools.product(kets, filters)):
            want_shots, want = ref.probability_table(ch, psi0, psi1, filt, *args)
            assert got_shots.tolist() == want_shots
            assert got.shape == (len(kets) * len(filters), len(phases), len(want_shots), 4)
            assert np.abs(got[c] - np.array(want)).max() <= 1e-15


@pytest.mark.parametrize("kind", ["pauli", "pooled"])
def test_batched_counts_match_loop_reference(kind):
    """Every cell's counts from one batched call, over a grid with a
    repeated filter, equal the one-cell scalar reference bit for bit.
    At 3 shots a Pauli row gets no shots."""
    ch, cells = _stream_cells(kind)
    shots, phases = 3, (0.0, 0.5, 2.0, 3.0, 5.0)
    kets = [pure_pair(prep, ch.spin_dim) for prep, _ in cells]
    filters = [filt for _, filt in cells] + [cells[0][1]]
    seeds = [(13, m, f) for m in range(len(kets)) for f in range(len(filters))]
    for efficiencies in ((1.0,) * 4, (0.9, 1.0, 0.75, 1.0)):
        counts = _count_cells(ch, kets, filters, phases, shots, efficiencies, 0.96, seeds)
        assert len(counts) == len(seeds)
        for seed, n in zip(seeds, counts):
            want = ref.simulate_fringes(ch, kets[seed[1]], filters[seed[2]], phases=phases,
                                        shots_per_phase=shots, efficiencies=efficiencies,
                                        contrast=0.96, seed=seed)
            assert np.array_equal(n, want.counts), seed


def _unitary_mixture(d, weights, rng):
    scale = np.sqrt(np.asarray(weights) / np.sum(weights))
    return PathChannel([(s * random_unitary(d, rng), s * random_unitary(d, rng)) for s in scale])


def _unitary_row_channels():
    rng = np.random.default_rng(99)
    yield "pauli", pauli_mixture_channel()
    yield "program", program_channel(verify_noise_program(pauli_noise_program()))
    for d in (1, 2, 3, 4, 8):
        yield f"identity({d})", identity_channel(d)
        yield f"mixture({d})", _unitary_mixture(d, rng.uniform(0.1, 1.0, size=3), rng)
    yield "transpose", transpose_channel(2)
    yield "replace", replace_channel(np.eye(2) / 2)
    yield "random", random_path_channel(3, 4, 5)
    # unitary A side; B side non-unitary, first with unitary-like weights
    a_side = _unitary_mixture(2, (1.0, 1.0), rng).kraus[:, 0]
    b_side = np.array([np.diag(np.sqrt([0.3, 0.7])), np.diag(np.sqrt([0.7, 0.3]))])
    yield "one-sided", PathChannel(np.stack((a_side, b_side), axis=1))
    yield "one-sided random", PathChannel(
        np.stack((a_side, random_path_channel(2, 2, 8).kraus[:, 1]), axis=1))
    # unitary pairs whose weights differ between the arms
    a_side = _unitary_mixture(2, (0.3, 0.7), rng).kraus[:, 0]
    b_side = _unitary_mixture(2, (0.7, 0.3), rng).kraus[:, 1]
    yield "unequal weights", PathChannel(np.stack((a_side, b_side), axis=1))


@pytest.mark.parametrize("label, ch", list(_unitary_row_channels()))
def test_unitary_rows_match_loop_reference(label, ch):
    got, want = _unitary_rows(ch), ref.unitary_rows(ch)
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got, [w for w, _, _ in want])


def _assert_experiment_matches_oracle(ch, seed, **kwargs):
    """Counts of every cell equal the scalar default_rng oracle's bit for bit; the
    records, fitted together here and one cell at a time there, agree
    within 1e-15."""
    phases, counts = _simulate_cells(ch, PREPS, FILTERS, None, **kwargs, seed=seed)
    want_cells = ref.simulate_cells(ch, seed, **kwargs)
    assert counts.shape == (16, 4, 13) and len(want_cells) == 16
    for cell, (mu, nu, want) in zip(counts, want_cells):
        assert phases == want.phases
        assert np.array_equal(cell, want.counts), (mu, nu)
    _assert_records_close(run_experiment(ch, seed=seed, **kwargs),
                          ref.run_experiment(ch, seed, **kwargs), 1e-15)


FIT_FIELDS = ("p", "visibility", "sigma_p", "sigma_v", "residual_rms")


def _assert_records_close(got, want, atol):
    """Equal keys, and every fitted field, the residual rms too, within atol."""
    assert len(got) == len(want) == 16
    for g, w in zip(got, want):
        assert (g.mu, g.nu) == (w.mu, w.nu)
        for name in FIT_FIELDS:
            a, b = getattr(g, name), getattr(w, name)
            assert abs(a - b) <= atol, (g.mu, g.nu, name, a, b)


@pytest.mark.parametrize("seed", [1, 7, 42, 9001])
def test_run_experiment_records_match_loop_reference(seed):
    efficiencies = (1.0,) * 4 if seed % 2 == 0 else (0.95, 0.8, 0.9, 0.85)
    _assert_experiment_matches_oracle(pauli_mixture_channel(), seed, shots_per_phase=2000,
                                      efficiencies=efficiencies, contrast=0.96)


@pytest.mark.parametrize("efficiencies", [(1.0,) * 4, (0.93, 1.0, 0.81, 0.88)])
@pytest.mark.parametrize("seed", [1, 9001])
def test_benchmark_configuration_matches_default_rng_oracle(seed, efficiencies):
    # the experiment_pipeline operation: Pauli mixture, 10 000 shots per
    # phase, contrast 0.96; unequal efficiencies with one detector at 1.0
    _assert_experiment_matches_oracle(pauli_mixture_channel(), seed, shots_per_phase=10_000,
                                      efficiencies=efficiencies, contrast=0.96)


ORACLE_CHANNELS = {
    "pauli": pauli_mixture_channel(),
    "transpose": transpose_channel(2),
    "pooled(2,3,17)": random_path_channel(2, 3, 17),
    "pooled(2,2,18)": random_path_channel(2, 2, 18),
}


@pytest.mark.parametrize("efficiencies", [(1.0,) * 4, (0.9, 1.0, 0.75, 0.8)])
@pytest.mark.parametrize("seed", [7, (3, 4), 2**40 + 5])
@pytest.mark.parametrize("label", list(ORACLE_CHANNELS))
def test_counts_match_default_rng_oracle(label, seed, efficiencies):
    ch = ORACLE_CHANNELS[label]
    assert (_unitary_rows(ch) is None) == (label != "pauli")  # the rest take the pooled fallback
    kwargs = dict(shots_per_phase=1000, efficiencies=efficiencies, contrast=0.96)
    for mu, nu in (("hh", "hh"), ("vh", "hv")):
        got = simulate_fringes(ch, PREPS[mu], FILTERS[nu], seed=seed, **kwargs)
        want = ref.simulate_fringes(ch, PREPS[mu], FILTERS[nu], seed=seed, **kwargs)
        assert np.array_equal(got.counts, want.counts), (mu, nu)
    ds = simulate_fringes(ch, PREPS["hh"], FILTERS["hh"], seed=seed, **kwargs)
    reference = min(efficiencies) / 2
    got = binomial_resample(ds, reference, seed=seed)
    want = ref.binomial_resample(ds, reference, seed)
    assert np.array_equal(got.counts, want.counts)
    _assert_experiment_matches_oracle(ch, seed, **kwargs)


@pytest.mark.parametrize("efficiencies", [(1.0,) * 4, (0.9, 1.0, 0.75, 0.8)])
@pytest.mark.parametrize("label", ["pauli", "pooled(2,3,17)"])
def test_run_experiment_builds_no_dataset(monkeypatch, label, efficiencies):
    # the channel's unitary rows are analysed once for all 16 cells, and the
    # counts go to the fit as one array
    calls = {"rows": 0, "datasets": 0}
    rows, post_init = interferometer._unitary_rows, FringeDataset.__post_init__

    def counting_rows(ch):
        calls["rows"] += 1
        return rows(ch)

    def counting_post_init(ds):
        calls["datasets"] += 1
        post_init(ds)

    monkeypatch.setattr(interferometer, "_unitary_rows", counting_rows)
    monkeypatch.setattr(FringeDataset, "__post_init__", counting_post_init)
    records = run_experiment(ORACLE_CHANNELS[label], shots_per_phase=500,
                             efficiencies=efficiencies, seed=5)
    assert len(records) == 16
    assert calls == {"rows": 1, "datasets": 0}


@pytest.mark.parametrize("efficiencies", [(1.0,) * 4, (0.9, 1.0, 0.75, 0.8)])
def test_one_generator_per_cell(monkeypatch, efficiencies):
    # run_experiment builds one generator per cell and no resampling stream;
    # simulate_fringes and binomial_resample build one each
    seeds, default_rng = [], np.random.default_rng

    def counting_rng(seed):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    ch = pauli_mixture_channel()
    run_experiment(ch, shots_per_phase=500, efficiencies=efficiencies, seed=(5, 6))
    assert seeds == [(5, 6, i_mu, i_nu) for i_mu in range(4) for i_nu in range(4)]
    seeds.clear()
    ds = simulate_fringes(ch, PREPS["hh"], FILTERS["hh"], efficiencies=efficiencies, seed=9)
    binomial_resample(ds, min(efficiencies), seed=3)
    assert seeds == [(9,), (3,)]


def _assert_fits_match_lstsq_oracle(ch, seed, **kwargs):
    """fit_fringes of each oracle cell, and the records of run_experiment,
    agree with the lstsq oracle within 1e-12."""
    cells = ref.simulate_cells(ch, seed, **kwargs)
    for mu, nu, ds in cells:
        got, want = fit_fringes(ds), ref.fit_fringes(ds)
        for name in FIT_FIELDS:
            assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12, (mu, nu, name)
    _assert_records_close(run_experiment(ch, seed=seed, **kwargs),
                          ref.run_experiment(ch, seed, fit=ref.fit_record, **kwargs), 1e-12)
    return cells


@pytest.mark.parametrize("efficiencies", [(1.0,) * 4, (0.9, 1.0, 0.75, 0.8)])
@pytest.mark.parametrize("label", ["pauli", "pooled(2,3,17)"])
def test_fits_match_lstsq_oracle(label, efficiencies):
    _assert_fits_match_lstsq_oracle(ORACLE_CHANNELS[label], 4, shots_per_phase=1000,
                                    efficiencies=efficiencies, contrast=0.96)


@pytest.mark.parametrize("label", ["pauli", "pooled(2,3,17)"])
def test_fits_with_zero_total_phases_match_lstsq_oracle(label):
    # 3 shots per phase at efficiencies near 0.3 leave some phases of a cell
    # without counts, a different set in each cell
    cells = _assert_fits_match_lstsq_oracle(ORACLE_CHANNELS[label], 4, shots_per_phase=3,
                                            efficiencies=(0.3, 0.4, 0.35, 0.3), contrast=0.96)
    empty = [tuple(ds.counts.sum(axis=0) == 0) for _, _, ds in cells]
    assert sum(map(any, empty)) == 16 and len(set(empty)) > 8


def test_fit_counts_fits_a_zero_total_phase_cell_in_the_same_svd(monkeypatch):
    ch = pauli_mixture_channel()
    cells = [simulate_fringes(ch, PREPS[mu], FILTERS[nu], shots_per_phase=500,
                              contrast=0.9, seed=(5, c))
             for c, (mu, nu) in enumerate((("hh", "hh"), ("hv", "vh"), ("vh", "hh")))]
    counts = cells[1].counts.copy()
    counts[:, 4] = 0
    cells[1] = _dataset(counts, phases=np.array(cells[1].phases), shots_per_phase=500)
    assert cells[1].counts.sum(axis=0)[4] == 0 and (cells[0].counts.sum(axis=0) > 0).all()

    svd, factorizations = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: factorizations.append(1) or svd(*a, **k))
    stacked = np.array([ds.counts for ds in cells])
    fits = _fit_counts(np.array(cells[0].phases), stacked, [("", "")] * 3)
    assert len(factorizations) == 1
    monkeypatch.setattr(np.linalg, "svd", svd)
    for fit, ds in zip(fits, cells):
        alone = fit_fringes(ds)
        for name in FIT_FIELDS:
            assert abs(getattr(fit, name) - getattr(alone, name)) <= 1e-15


@pytest.mark.parametrize("populated, message", [
    ((0, 1, 2), "need >= 4 populated phases"),
    ((0, 1, 2, 3), "span below half a period"),
    ((0, 1, 2, 6), "degenerate design matrix"),
])
def test_fit_counts_refuses_a_later_cell_on_its_own_populated_phases(populated, message):
    phases = np.array([0.0, 1e-7, 2e-7, 1.0, 2.0, 2.5, np.pi, 4.0, 5.0, 6.0])
    counts = np.full((3, 4, len(phases)), 10, dtype=np.int64)
    keys = [("", "")] * 3
    assert len(_fit_counts(phases, counts, keys)) == 3
    keep = np.zeros(len(phases), dtype=bool)
    keep[list(populated)] = True
    counts[2, :, ~keep] = 0
    with pytest.raises(NumericalError, match=message):
        _fit_counts(phases, counts, keys)


def test_fit_counts_names_the_fault_of_the_first_failing_cell():
    phases = np.linspace(0.0, 2 * np.pi, 13)
    sparse, narrow = np.zeros((2, 4, 13), dtype=np.int64)
    sparse[:, [0, 12]] = 10  # two phases
    narrow[:, :5] = 10  # five phases spanning 2.6 rad
    for cells, message in (((narrow, sparse), "span below half a period"),
                           ((sparse, narrow), "need >= 4 populated phases")):
        with pytest.raises(NumericalError, match=message):
            _fit_counts(phases, np.array(cells), [("", "")] * 2)


def _inconsistent_tables(ch, kets, filters, phases, contrast, shots_per_phase):
    # plus - minus = cos(phi) but plus + minus = |cos(phi)|: |V| near 1
    # against p near 2/pi, far outside the 3-sigma envelope at 64 phases
    c = np.cos(np.asarray(phases))
    pvals = np.stack([np.maximum(c, 0), np.maximum(-c, 0), (1 - np.abs(c)) / 2,
                      (1 - np.abs(c)) / 2], axis=-1)
    cells = len(kets) * len(filters)
    return np.array([shots_per_phase]), np.broadcast_to(pvals[None, :, None, :], (cells, len(c), 1, 4))


@pytest.mark.parametrize("phases, message", [
    ((0.0, 1.0, 2.0), "need >= 4 populated phases"),
    ((0.0, 1e-14, 2.0, 4.0), "need >= 4 populated phases"),
    (np.linspace(0.0, 3.0, 7), "span below half a period"),
    ((0.0, 1e-7, 2e-7, np.pi), "degenerate design matrix"),
    (np.linspace(0.0, 2 * np.pi, 64), "beyond the 3-sigma envelope"),
])
def test_run_experiment_raises_each_fit_refusal(phases, message, monkeypatch):
    if message.startswith("beyond"):
        monkeypatch.setattr(interferometer, "_probability_tables", _inconsistent_tables)
    with pytest.raises(NumericalError, match=message):
        run_experiment(pauli_mixture_channel(), phases=phases, shots_per_phase=5000, seed=3)


def test_import_cli_leaves_numpy_random_unloaded():
    # numpy loads numpy.random (about 13 ms) on first use, and only the
    # drawing functions use it, when they run
    code = "import sys, whichway.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(interferometer.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_simulate_rejects_non_finite_phases(bad):
    phases = np.linspace(0.0, 2 * np.pi, 13)
    phases[4] = bad
    with pytest.raises(NonFiniteError, match="phases"):
        simulate_fringes(pauli_mixture_channel(), PREPS["hh"], FILTERS["hh"], phases=phases)


@pytest.mark.parametrize("row, count", [("1.0,1,1", 3), ("1.0,1,1,1,1,1", 6)])
def test_read_dataset_csv_rejects_a_row_of_the_wrong_length(row, count):
    text = "phase,n_plus,n_minus,n_ref0,n_ref1\n0.0,1,1,1,1\n" + row + "\n"
    with pytest.raises(ValueError, match=f"CSV line 3: expected 5 fields, got {count}"):
        read_dataset_csv(io.StringIO(text), shots_per_phase=10)


@pytest.mark.parametrize("row, column, text", [
    ("x,1,1,1,1", "phase", "could not convert string to float: 'x'"),
    ("1.0,1,1.5,1,1", "n_minus", "invalid literal for int() with base 10: '1.5'"),
    ("1.0,1,1,1,abc", "n_ref1", "invalid literal for int() with base 10: 'abc'"),
])
def test_read_dataset_csv_names_the_line_and_column_of_a_bad_field(row, column, text):
    csv_text = "phase,n_plus,n_minus,n_ref0,n_ref1\n0.0,1,1,1,1\n\n" + row + "\n"
    with pytest.raises(ValueError) as exc:
        read_dataset_csv(io.StringIO(csv_text), shots_per_phase=10)
    assert str(exc.value) == f"CSV line 4, column {column}: {text}"


def test_read_dataset_csv_rejects_non_finite_phase():
    text = "phase,n_plus,n_minus,n_ref0,n_ref1\n0.0,1,1,1,1\nnan,1,1,1,1\n3.0,1,1,1,1\n"
    with pytest.raises(NonFiniteError, match="phases"):
        read_dataset_csv(io.StringIO(text), shots_per_phase=10)
