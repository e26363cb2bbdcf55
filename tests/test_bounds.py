import dataclasses
import io
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    measured_records,
    random_density,
    random_ket,
    random_orthonormal_filters,
    random_unitary,
    same_certificate,
)
from whichway import (
    ContractionError,
    DimensionError,
    FilterPair,
    FractionalVisibilityRecord,
    InputFormatError,
    NonFiniteError,
    NumericalError,
    PathChannel,
    PositivityError,
    Preparation,
    RunBounds,
    SupportError,
    bound_from_visibilities,
    certificate_report,
    certify_run,
    fractional_visibility,
    generalized_visibility,
    identity_channel,
    ket,
    pauli_mixture_channel,
    random_path_channel,
    read_records_csv,
    replace_channel,
    rectilinear_filters,
    rectilinear_preparations,
    run_experiment,
    single_preparation_certificate,
    swap_certificate,
    transpose_channel,
    verify_alpha_constraint,
    verify_inequality,
    write_records_csv,
)
from reference_kernels import (
    detection_probabilities,
    orthonormal_filter_bound,
    pure_leak_ratio,
    stacks_single_certificate,
    swap_estimate,
)
from whichway import bounds
from whichway.bounds import CONTRACTION_TOL, COMPLEMENTARY, SWAP_KEYS, _ket_support, _root_support
from whichway.linalg import psd_eigh

H, V = ket(0, 2), ket(1, 2)
DEMO_RECORDS = Path(__file__).resolve().parents[1] / "demos" / "data" / "measured_records.csv"


def test_detection_probabilities_extremes():
    assert detection_probabilities(0.5, 0.5, 0.0) == pytest.approx((0.5, 0.0))
    assert detection_probabilities(0.5, 0.5, np.pi) == pytest.approx((0.0, 0.5))
    p_plus, p_minus = detection_probabilities(0.7, 0.0, 1.3)
    assert p_plus == p_minus == pytest.approx(0.35)


def test_detection_probabilities_sum_and_positivity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = rng.uniform(0, 1)
        v = rng.uniform(0, p) * np.exp(2j * np.pi * rng.random())
        phi = rng.uniform(0, 2 * np.pi)
        a, b = detection_probabilities(p, v, phi)
        assert a >= 0 and b >= 0
        assert a + b == pytest.approx(p, abs=1e-12)


def test_detection_probabilities_contract_violations():
    with pytest.raises(DimensionError):
        detection_probabilities(0.4, 0.5, 0.0)
    with pytest.raises(DimensionError):
        detection_probabilities(1.2, 0.1, 0.0)


def test_fractional_visibility_grid_pattern():
    ch = pauli_mixture_channel()
    preps = rectilinear_preparations()
    filters = rectilinear_filters()
    expected_half = {("hh", "hh"), ("hv", "vh"), ("vh", "hv"), ("vv", "vv")}
    for mu in preps:
        for nu in filters:
            rec = fractional_visibility(ch, preps[mu], filters[nu], mu=mu)
            assert rec.p == pytest.approx(0.5, abs=1e-12)
            target = 0.5 if (mu, nu) in expected_half else 0.0
            assert abs(rec.visibility) == pytest.approx(target, abs=1e-12)


def test_fractional_visibility_identity_channel_full_interference():
    psi = random_ket(2, np.random.default_rng(1))
    filt = FilterPair(psi, psi, label="same")
    rec = fractional_visibility(identity_channel(2), (psi, psi), filt)
    assert rec.p == pytest.approx(1.0, abs=1e-12)
    assert rec.visibility == pytest.approx(1.0, abs=1e-12)


def test_fractional_visibility_bounded_by_probability():
    rng = np.random.default_rng(2)
    for _ in range(50):
        d = int(rng.integers(2, 4))
        ch = random_path_channel(d, int(rng.integers(1, 4)), seed=int(rng.integers(1e6)))
        pair = (random_ket(d, rng), random_ket(d, rng))
        filt = FilterPair(random_ket(d, rng), random_ket(d, rng), label="r")
        rec = fractional_visibility(ch, pair, filt)
        assert abs(rec.visibility) <= rec.p + 1e-10


def test_record_validation():
    with pytest.raises(DimensionError):
        FractionalVisibilityRecord(mu="a", nu="b", p=0.1, visibility=0.5)
    with pytest.raises(DimensionError):
        FractionalVisibilityRecord(mu="a", nu="b", p=1.4, visibility=0.0)
    with pytest.raises(DimensionError, match="nonnegative"):
        FractionalVisibilityRecord(mu="a", nu="b", p=0.1, visibility=0.0, residual_rms=-1e-3)
    for p, visibility in (("0.5", 0.1), (0.5, "0.1"), (0.5, None)):
        with pytest.raises(DimensionError, match=r"record \(a, b\) holds a field that is not a"):
            FractionalVisibilityRecord("a", "b", p, visibility)
    # 3-sigma envelope admits noisy records
    FractionalVisibilityRecord(mu="a", nu="b", p=0.1, visibility=0.11, sigma_v=0.01)


def test_record_fields_and_the_records_without_a_residual():
    assert [f.name for f in dataclasses.fields(FractionalVisibilityRecord)] == [
        "mu", "nu", "p", "visibility", "sigma_p", "sigma_v", "residual_rms"]
    ch = pauli_mixture_channel()
    rec = fractional_visibility(ch, rectilinear_preparations()["hh"], rectilinear_filters()["hh"])
    assert (rec.sigma_p, rec.sigma_v, rec.residual_rms) == (0.0, 0.0, 0.0)
    # the records CSV has no residual column: a fitted record reads back without one
    fitted = run_experiment(ch, shots_per_phase=500, seed=3)
    buf = io.StringIO()
    write_records_csv(fitted, buf)
    buf.seek(0)
    for rec, back in zip(fitted, read_records_csv(buf)):
        assert rec.residual_rms > 0 and back.residual_rms == 0.0
        assert dataclasses.replace(back, residual_rms=rec.residual_rms) == rec


@pytest.mark.parametrize("field,value", [
    ("p", float("nan")),
    ("p", float("inf")),
    ("visibility", complex(float("nan"), 0.0)),
    ("visibility", complex(0.0, float("inf"))),
    ("sigma_p", float("nan")),
    ("sigma_p", float("inf")),
    ("sigma_v", float("nan")),
    ("sigma_v", float("inf")),
    ("residual_rms", float("nan")),
    ("residual_rms", float("inf")),
])
def test_record_rejects_non_finite_fields(field, value):
    kwargs = dict(mu="a", nu="b", p=0.5, visibility=0.25 + 0.0j, sigma_p=0.01, sigma_v=0.01)
    kwargs[field] = value
    with pytest.raises(NonFiniteError, match=r"NaN or infinite entry in record \(a, b\)"):
        FractionalVisibilityRecord(**kwargs)


def test_swap_alpha_family_reconstructs_a_unitary():
    alphas = {k: 0.5 * np.exp(1j * t) for k, t in zip(
        (("hh", "hh"), ("hv", "vh"), ("vh", "hv"), ("vv", "vv")),
        (0.3, -1.2, 2.5, 0.0),
    )}
    cert = verify_alpha_constraint(
        alphas, rectilinear_preparations(), rectilinear_filters(),
        np.eye(2) / 2, np.eye(2) / 2,
    )
    gram = cert.u_hat.conj().T @ cert.u_hat
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)
    assert abs(cert.contraction_slack) <= 1e-9


def test_single_preparation_alpha_family_is_contraction():
    rng = np.random.default_rng(3)
    preps = {"m": (random_ket(2, rng), random_ket(2, rng))}
    filters = random_orthonormal_filters(2, rng)
    alphas = {("m", nu): np.exp(1j * rng.uniform(0, 2 * np.pi)) for nu in filters}
    psi0, psi1 = preps["m"]
    cert = verify_alpha_constraint(
        alphas, preps, filters,
        np.outer(psi0, psi0.conj()), np.outer(psi1, psi1.conj()),
    )
    assert cert.contraction_slack <= 1e-9


def test_a_slack_whose_eigensolver_did_not_converge_is_a_numerical_error(monkeypatch):
    # the LAPACK binding returns NaN where the solver does not converge, and
    # NaN > CONTRACTION_TOL is false, so the explicit and mixed sets must
    # refuse a NaN slack on their own; an infinite one is not a contraction
    rng = np.random.default_rng(11)
    pair = (random_ket(3, rng), random_ket(3, rng))
    filters = random_orthonormal_filters(3, rng)
    records = [fractional_visibility(random_path_channel(3, 2, seed=4), pair, f, mu="m")
               for f in filters.values()]
    half = np.eye(2) / 2
    monkeypatch.setattr(bounds, "_eigvalsh", lambda a: np.full(a.shape[:-1], np.nan))
    message = "^contraction slack is NaN: the eigensolver did not converge$"
    with pytest.raises(NumericalError, match=message):
        single_preparation_certificate("m", records, preps={"m": pair}, filters=filters)
    with pytest.raises(NumericalError, match=message):
        verify_alpha_constraint({key: 0.5 for key in bounds.SWAP_KEYS},
                                rectilinear_preparations(), rectilinear_filters(), half, half)
    with pytest.raises(ContractionError, match="slack inf"):
        bounds._contraction(np.inf)


def test_zero_alphas_give_slack_minus_one():
    alphas = {("hh", "hh"): 0.0}
    cert = verify_alpha_constraint(
        alphas, rectilinear_preparations(), rectilinear_filters(),
        np.eye(2) / 2, np.eye(2) / 2,
    )
    assert cert.contraction_slack == pytest.approx(-1.0, abs=1e-12)
    assert np.max(np.abs(cert.u_hat)) == 0.0


@pytest.mark.parametrize("alpha", ["x", "0.5", b"0.5", [0.5, 0.5]],
                         ids=["malformed-string", "numeric-string", "bytes", "pair"])
def test_coefficients_that_are_not_numbers_are_a_dimension_error(alpha):
    # a numeric string used to be stored in the certificate as it was given,
    # and bound_from_visibilities then died on it with a bare TypeError
    with pytest.raises(DimensionError, match="coefficients"):
        verify_alpha_constraint({("hh", "hh"): alpha}, rectilinear_preparations(),
                                rectilinear_filters(), np.eye(2) / 2, np.eye(2) / 2)


def test_certificate_stores_its_checked_coefficients_as_numbers():
    alphas = {("hh", "hh"): 0, ("vv", "vv"): np.float64(0.25), ("hv", "vh"): np.complex64(0.5j)}
    cert = verify_alpha_constraint(alphas, rectilinear_preparations(), rectilinear_filters(),
                                   np.eye(2) / 2, np.eye(2) / 2)
    assert [type(a) for a in cert.alphas.values()] == [complex] * 3
    assert cert.alphas == {("hh", "hh"): 0j, ("vv", "vv"): 0.25 + 0j, ("hv", "vh"): 0.5j}
    recs = [r for r in measured_records() if r.key in alphas]
    folded = bound_from_visibilities(cert, recs)
    v = {r.key: r.visibility for r in recs}
    assert folded.vg_lower == pytest.approx(
        abs(0.25 * v[("vv", "vv")] + 0.5j * v[("hv", "vh")]), rel=0, abs=1e-15)


def test_support_violation_detected():
    # preparation supported on |h> only, but the combination references |v>
    preps = {"m": (V, V)}
    filters = rectilinear_filters()
    rho = np.outer(H, H.conj())
    with pytest.raises(SupportError):
        verify_alpha_constraint({("m", "hh"): 1.0}, preps, filters, rho, rho)


def test_contraction_violation_detected():
    alphas = {("hh", "hh"): 3.0}
    with pytest.raises(ContractionError):
        verify_alpha_constraint(
            alphas, rectilinear_preparations(), rectilinear_filters(),
            np.eye(2) / 2, np.eye(2) / 2,
        )


def _hh_transpose_records():
    """Exact records of the hh preparation under the transpose channel in
    the complete filter basis {hh, vv}, and its true V_G (1/2)."""
    ch, filters = transpose_channel(2), rectilinear_filters()
    records = [fractional_visibility(ch, (H, H), filters[nu], mu="hh") for nu in ("hh", "vv")]
    return records, generalized_visibility(ch, Preparation.pure(H, H))


def test_verify_alpha_constraint_rejects_kets_off_unit_norm():
    # kets of norm 1/2 with the coefficients scaled by 4 would certify
    # V_G >= 1 against a true V_G of 1/2
    records, true_vg = _hh_transpose_records()
    assert true_vg == pytest.approx(0.5, abs=1e-12)
    alphas = {r.key: 4.0 * np.exp(-1j * np.angle(r.visibility)) for r in records}
    rho = np.outer(H, H.conj())
    with pytest.raises(DimensionError, match="psi0 norm 0.5 differs from 1"):
        verify_alpha_constraint(alphas, {"hh": (0.5 * H, 0.5 * H)}, rectilinear_filters(),
                                rho, rho)
    cert = verify_alpha_constraint({k: a / 4 for k, a in alphas.items()}, {"hh": (H, H)},
                                   rectilinear_filters(), rho, rho)
    assert bound_from_visibilities(cert, records).vg_lower <= true_vg + 1e-12


def test_verify_alpha_constraint_rejects_a_density_matrix_of_trace_two():
    # with rho = 1 the swap family with doubled coefficients is a contraction
    alphas = {k: 1.0 for k in SWAP_KEYS}
    with pytest.raises(PositivityError, match="rho0 trace differs from one"):
        verify_alpha_constraint(alphas, rectilinear_preparations(), rectilinear_filters(),
                                np.eye(2), np.eye(2))
    with pytest.raises(PositivityError, match="rho1 trace differs from one"):
        verify_alpha_constraint(alphas, rectilinear_preparations(), rectilinear_filters(),
                                np.eye(2) / 2, np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_verify_alpha_constraint_rejects_non_finite_inputs(bad):
    half = np.eye(2, dtype=complex) / 2
    psi = H.copy()
    psi[1] = bad
    with pytest.raises(NonFiniteError, match="psi1"):
        verify_alpha_constraint({("m", "hh"): 0.5}, {"m": (H, psi)}, rectilinear_filters(),
                                half, half)
    rho = half.copy()
    rho[0, 1] = bad
    with pytest.raises(NonFiniteError, match="rho1"):
        verify_alpha_constraint({("hh", "hh"): 0.5}, rectilinear_preparations(),
                                rectilinear_filters(), half, rho)
    with pytest.raises(NonFiniteError, match="coefficients"):
        verify_alpha_constraint({("hh", "hh"): bad}, rectilinear_preparations(),
                                rectilinear_filters(), half, half)


def test_verify_alpha_constraint_rejects_mismatched_inputs():
    preps, filters = rectilinear_preparations(), rectilinear_filters()
    third, half = np.eye(3) / 3, np.eye(2) / 2
    with pytest.raises(DimensionError, match="filter 'hh' has dimension 2, not 3"):
        verify_alpha_constraint({("hh", "hh"): 0.5}, preps, filters, third, third)
    with pytest.raises(DimensionError, match="dimensions differ"):
        verify_alpha_constraint({("hh", "hh"): 0.5}, preps, filters, half, third)
    three = {"hh": FilterPair(ket(0, 3), ket(0, 3))}
    with pytest.raises(DimensionError, match="dimension 3"):
        verify_alpha_constraint({("hh", "hh"): 0.5}, preps, three, third, third)
    with pytest.raises(DimensionError, match="unknown preparation 'xx'"):
        verify_alpha_constraint({("xx", "hh"): 0.5}, preps, filters, half, half)
    with pytest.raises(DimensionError, match="unknown filter 'xx'"):
        verify_alpha_constraint({("hh", "xx"): 0.5}, preps, filters, half, half)


@pytest.mark.parametrize("args, message", [
    ((5, {}, {}), "alphas 5 is not a mapping"),
    (({("hh", "hh"): 0.5}, "hh", {}), "preps 'hh' is not a mapping"),
    (({("hh", "hh"): 0.5}, {}, [1]), "filters [1] is not a mapping"),
], ids=["alphas", "preps", "filters"])
def test_verify_alpha_constraint_containers_that_are_not_mappings_are_a_dimension_error(
        args, message):
    # alphas=5 raised an AttributeError
    with pytest.raises(DimensionError, match=re.escape(message)):
        verify_alpha_constraint(*args, np.eye(2) / 2, np.eye(2) / 2)


def test_verify_alpha_constraint_refuses_no_coefficients():
    # no coefficients reached numpy's reshape of the empty term stack, a ValueError
    with pytest.raises(DimensionError, match="alphas is empty: no coefficient to certify"):
        verify_alpha_constraint({}, {}, {}, np.eye(2) / 2, np.eye(2) / 2)


@pytest.mark.parametrize("key", [("hh", "hh", "x"), "hh", 5, ("hh", 1)],
                         ids=["three-labels", "str", "int", "int-label"])
def test_verify_alpha_constraint_refuses_a_key_that_is_not_a_pair_of_labels(key):
    # the keys were unpacked with `for mu, nu in keys`: a triple raised a bare
    # ValueError, 5 a bare TypeError, and 'hh' was read as ('h', 'h'). The key
    # is refused before any term is gathered, so before rho (of trace two
    # here) is checked
    with pytest.raises(DimensionError, match=re.escape(
            f"coefficient key {key!r} is not a (mu, nu) pair of labels")):
        verify_alpha_constraint({key: 0.5}, rectilinear_preparations(), rectilinear_filters(),
                                np.eye(2), np.eye(2))


@pytest.mark.parametrize("call", [
    lambda: verify_alpha_constraint({("hh", "hh"): 0.5}, {"hh": 5}, rectilinear_filters(),
                                    np.eye(2) / 2, np.eye(2) / 2),
    lambda: single_preparation_certificate(
        "hh", [r for r in measured_records() if r.key in (("hh", "hh"), ("hh", "vv"))],
        preps={"hh": 5}),
    lambda: run_experiment(pauli_mixture_channel(), preparations={"hh": 5}),
], ids=["verify_alpha_constraint", "single_preparation_certificate", "run_experiment"])
def test_a_preparation_that_is_not_two_kets_is_named_by_its_key(call):
    # each used to raise `pure pair 0 is not two kets`, which names no preparation
    with pytest.raises(DimensionError, match=re.escape(
            "preparation 'hh' is not two kets (psi0, psi1)")):
        call()


def test_bound_from_measured_records():
    records = measured_records()
    assert swap_estimate(records) == pytest.approx(0.9605, abs=1e-12)
    cert = swap_certificate(records)
    assert cert.vg_lower == pytest.approx(0.9605, abs=1e-12)
    assert cert.d_upper == pytest.approx(np.sqrt(1 - 0.9605**2), abs=1e-12)
    assert cert.sigma_vg == pytest.approx(0.006, abs=1e-12)
    assert cert.sigma_d == pytest.approx(0.0207, abs=5e-4)
    assert abs(cert.vg_lower - swap_estimate(records)) <= 1e-12


def test_oracle_bounds_match_the_certificates():
    # the summed-magnitude oracles against the shipped certificates
    rng = np.random.default_rng(1301)
    for _ in range(50):
        records = []
        for mu, nu in SWAP_KEYS:
            p = rng.uniform(0.05, 1.0)
            v = rng.uniform(0.0, p) * np.exp(2j * np.pi * rng.random())
            records.append(FractionalVisibilityRecord(mu, nu, p, v))
        assert abs(swap_certificate(records).vg_lower - swap_estimate(records)) <= 1e-12
    for d in (2, 3):
        for _ in range(25):
            ch = random_path_channel(d, int(rng.integers(1, 4)), seed=int(rng.integers(2**31)))
            pair = (random_ket(d, rng), random_ket(d, rng))
            filters = random_orthonormal_filters(d, rng)
            records = [fractional_visibility(ch, pair, f, mu="m") for f in filters.values()]
            cert = single_preparation_certificate("m", records, preps={"m": pair},
                                                  filters=filters)
            assert abs(cert.vg_lower - orthonormal_filter_bound(records, filters)) <= 1e-12


def test_bound_zero_and_ideal_records():
    zero = [
        FractionalVisibilityRecord(mu=m, nu=n, p=0.5, visibility=0.0)
        for (m, n) in (("hh", "hh"), ("hv", "vh"), ("vh", "hv"), ("vv", "vv"))
    ]
    cert = swap_certificate(zero)
    assert cert.vg_lower == 0.0 and cert.d_upper == 1.0

    ch = pauli_mixture_channel()
    preps, filters = rectilinear_preparations(), rectilinear_filters()
    ideal = [
        fractional_visibility(ch, preps[m], filters[n], mu=m)
        for (m, n) in (("hh", "hh"), ("hv", "vh"), ("vh", "hv"), ("vv", "vv"))
    ]
    cert = swap_certificate(ideal)
    assert cert.vg_lower == pytest.approx(1.0, abs=1e-12)
    assert cert.d_upper == pytest.approx(0.0, abs=1e-12)


def test_missing_records_raise():
    with pytest.raises(DimensionError):
        swap_estimate(measured_records()[:2])
    cert = verify_alpha_constraint(
        {("hh", "hh"): 0.5}, rectilinear_preparations(), rectilinear_filters(),
        np.eye(2) / 2, np.eye(2) / 2,
    )
    with pytest.raises(DimensionError):
        bound_from_visibilities(cert, [])


def test_repeated_record_key_is_a_dimension_error():
    records = measured_records()
    # a second (hh, hh) record that would lower the swap bound if it replaced the first
    repeated = records + [FractionalVisibilityRecord("hh", "hh", 0.489, 0.0, 0.003, 0.003)]
    row = [r for r in repeated if r.mu == "hh"]
    for bound in (swap_certificate, swap_estimate,
                  lambda recs: orthonormal_filter_bound(row, rectilinear_filters()),
                  lambda recs: single_preparation_certificate("hh", recs),
                  lambda recs: write_records_csv(recs, io.StringIO())):
        with pytest.raises(DimensionError, match=r"duplicate record for \('hh', 'hh'\)"):
            bound(repeated)
    assert swap_certificate(records).vg_lower == pytest.approx(0.9605, abs=1e-12)


RECORD_TAKERS = {
    "swap_certificate": swap_certificate,
    "certify_run": certify_run,
    "single_preparation_certificate": lambda recs: single_preparation_certificate("hh", recs),
    "bound_from_visibilities": lambda recs: bound_from_visibilities(
        swap_certificate(measured_records()), recs),
    "write_records_csv": lambda recs: write_records_csv(recs, io.StringIO()),
}


@pytest.mark.parametrize("records, message", [
    (5, "records must be an iterable of records, got 5"),
    ([1, 2], "1 is not a FractionalVisibilityRecord"),
    ({("hh", "hh"): "hh"}, "'hh' is not a FractionalVisibilityRecord"),
], ids=["not-iterable", "ints", "dict-of-text"])
@pytest.mark.parametrize("take", RECORD_TAKERS.values(), ids=RECORD_TAKERS.keys())
def test_records_that_are_not_records_are_a_dimension_error(take, records, message):
    # 5 raised a bare TypeError, and [1, 2] an AttributeError
    with pytest.raises(DimensionError) as exc:
        take(records)
    assert str(exc.value) == message


_LABEL = np.array(["hh", "vv"])
_HH = ket(0, 2), ket(0, 2)


@pytest.mark.parametrize("build", [
    lambda: FractionalVisibilityRecord(_LABEL, "hh", 0.5, 0.1),
    lambda: FractionalVisibilityRecord(3, "hh", 0.5, 0.1),
    lambda: FractionalVisibilityRecord("hh", 3, 0.5, 0.1),
    lambda: FilterPair(*_HH, label=3),
    lambda: FilterPair(*_HH, label=_LABEL),
    lambda: fractional_visibility(identity_channel(2), _HH, rectilinear_filters()["hh"], mu=_LABEL),
    lambda: fractional_visibility(identity_channel(2), _HH, rectilinear_filters()["hh"], mu=3),
    lambda: single_preparation_certificate(_LABEL, measured_records()),
    lambda: PathChannel(identity_channel(2).kraus, label=_LABEL),
    lambda: PathChannel(identity_channel(2).kraus, label=3),
    lambda: Preparation.pure(*_HH, label=_LABEL),
    lambda: Preparation.completely_mixed(2, label=3),
], ids=["record-mu-array", "record-mu-int", "record-nu-int", "filter-label-int",
        "filter-label-array", "fractional-mu-array", "fractional-mu-int", "single-mu-array",
        "channel-label-array", "channel-label-int", "preparation-label-array",
        "preparation-label-int"])
def test_a_label_that_is_not_a_str_is_a_dimension_error(build):
    # an array label raised numpy's ambiguous-truth ValueError (for a channel
    # or preparation, in verify_inequality), or was stored
    with pytest.raises(DimensionError, match="is not a str"):
        build()


def test_a_dict_of_records_is_keyed_by_each_records_own_cell():
    # the four largest |V| filed under the swap cells would certify
    # vg_lower = 1 above the true V_G = 0.9909 of the mixed preparation
    ch = random_path_channel(2, 2, 0)
    preps, filters = rectilinear_preparations(), rectilinear_filters()
    records = [fractional_visibility(ch, preps[m], filters[n], mu=m)
               for m in preps for n in filters]
    top = sorted(records, key=lambda r: -abs(r.visibility))[:4]
    assert not {r.key for r in top} & set(SWAP_KEYS)
    mislabelled = dict(zip(SWAP_KEYS, top))
    with pytest.raises(DimensionError, match="missing record"):
        swap_certificate(mislabelled)
    cert = swap_certificate(records)
    with pytest.raises(DimensionError, match="missing"):
        bound_from_visibilities(cert, mislabelled)
    with pytest.raises(DimensionError, match="no records"):
        single_preparation_certificate("hh", {("hh", r.nu): r for r in records if r.mu == "vv"})
    by_cell = swap_certificate({("x", str(i)): r for i, r in enumerate(records)})
    assert by_cell.vg_lower == cert.vg_lower
    assert cert.vg_lower <= verify_inequality(ch, Preparation.completely_mixed(2)).visibility


def test_orthonormal_filter_bound_measured_row():
    row = [r for r in measured_records() if r.mu == "hh"]
    assert orthonormal_filter_bound(row, rectilinear_filters()) == pytest.approx(
        0.580, abs=1e-12
    )
    cert = single_preparation_certificate("hh", row)
    assert cert.vg_lower == pytest.approx(0.580, abs=1e-12)
    assert cert.d_upper == pytest.approx(np.sqrt(1 - 0.580**2), abs=1e-12)
    assert cert.sigma_d == pytest.approx(0.0043, abs=2e-4)


def test_orthonormal_filter_bound_coherent_dephasing_reaches_one():
    # channel leaving arm contents alone but imprinting per-basis phases on
    # the lower arm: full visibility is recoverable by sorting components
    d = 3
    phases = np.exp(1j * np.array([0.4, -1.1, 2.2]))
    ch = PathChannel(((np.eye(d, dtype=complex), np.diag(phases)),))
    psi = np.ones(d, dtype=complex) / np.sqrt(d)
    filters = {
        f"f{k}": FilterPair(ket(k, d), ket(k, d), label=f"f{k}") for k in range(d)
    }
    records = [
        fractional_visibility(ch, (psi, psi), filters[f"f{k}"], mu="m")
        for k in range(d)
    ]
    assert all(abs(abs(r.visibility) - r.p) < 1e-12 for r in records)
    assert orthonormal_filter_bound(records, filters) == pytest.approx(1.0, abs=1e-12)


def test_orthonormal_filter_bound_zero_records():
    filters = rectilinear_filters()
    zero = [
        FractionalVisibilityRecord(mu="m", nu=nu, p=0.5, visibility=0.0)
        for nu in ("hh", "vv")
    ]
    assert orthonormal_filter_bound(zero, filters) == 0.0


def test_orthonormal_filter_bound_rejects_incomplete_basis():
    filters = rectilinear_filters()
    rows = [FractionalVisibilityRecord(mu="m", nu="hh", p=0.5, visibility=0.1)]
    with pytest.raises(DimensionError):
        orthonormal_filter_bound(rows, filters)
    # hh and hv share the upper-arm filter |h>: not orthonormal
    rows = [
        FractionalVisibilityRecord(mu="m", nu=nu, p=0.5, visibility=0.1)
        for nu in ("hh", "hv")
    ]
    with pytest.raises(DimensionError):
        orthonormal_filter_bound(rows, filters)


@pytest.mark.parametrize("scale", [1.0, 1.05])
def test_exact_records_give_an_exact_distinguishability_bound(scale):
    # zero record sigmas give sigma_d exactly 0.0, also when the visibility
    # bound clamps to 1 and the distinguishability bound reaches 0
    from dataclasses import replace

    records = [replace(r, p=max(r.p, abs(scale * r.visibility)), visibility=scale * r.visibility,
                       sigma_p=0.0, sigma_v=0.0)
               for r in measured_records()]
    cert = bound_from_visibilities(swap_certificate(measured_records()), records)
    assert (cert.vg_lower == 1.0) == (scale > 1.0)
    assert cert.sigma_vg == 0.0 and cert.sigma_d == 0.0


def test_global_phase_invariance_of_bound():
    records = measured_records()
    cert = swap_certificate(records)
    rotated = {k: a * np.exp(0.731j) for k, a in cert.alphas.items()}
    cert2 = verify_alpha_constraint(
        rotated, rectilinear_preparations(), rectilinear_filters(),
        np.eye(2) / 2, np.eye(2) / 2,
    )
    cert2 = bound_from_visibilities(cert2, records)
    assert cert2.vg_lower == pytest.approx(cert.vg_lower, abs=1e-12)


def test_certificate_soundness_on_random_instances():
    from whichway import distinguishability, environment_states

    rng = np.random.default_rng(4)
    for _ in range(60):
        ch = random_path_channel(2, int(rng.integers(1, 4)), seed=int(rng.integers(1e6)))
        psi0, psi1 = random_ket(2, rng), random_ket(2, rng)
        filters = random_orthonormal_filters(2, rng)
        records = [
            fractional_visibility(ch, (psi0, psi1), filters[nu], mu="m")
            for nu in filters
        ]
        cert = single_preparation_certificate(
            "m", records, preps={"m": (psi0, psi1)}, filters=filters
        )
        prep = Preparation.pure(psi0, psi1)
        vg = generalized_visibility(ch, prep)
        assert cert.vg_lower <= vg + 1e-8
        # the which-way bound is sound against the dilation value
        d_true = distinguishability(*environment_states(ch, prep))
        assert cert.d_upper >= d_true - 1e-8


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from((2, 3)), k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_single_preparation_certificate_is_sound(d, k, seed):
    rng = np.random.default_rng(seed)
    ch = random_path_channel(d, k, seed=seed)
    psi0, psi1 = random_ket(d, rng), random_ket(d, rng)
    filters = random_orthonormal_filters(d, rng)
    records = [fractional_visibility(ch, (psi0, psi1), f, mu="m") for f in filters.values()]
    cert = single_preparation_certificate("m", records, preps={"m": (psi0, psi1)},
                                          filters=filters)
    assert cert.vg_lower <= generalized_visibility(ch, Preparation.pure(psi0, psi1)) + 1e-9


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
def test_single_preparation_ket_route_matches_eigh_route(d):
    # the ket route (psi* psi^T as support projector and pseudo-inverse)
    # against verify_alpha_constraint on the density matrices, which takes
    # both from an eigendecomposition
    rng = np.random.default_rng(100 + d)
    for _ in range(10):
        ch = random_path_channel(d, int(rng.integers(1, 4)), seed=int(rng.integers(1e6)))
        psi0, psi1 = random_ket(d, rng), random_ket(d, rng)
        preps = {"m": (psi0, psi1)}
        filters = random_orthonormal_filters(d, rng)
        records = [fractional_visibility(ch, preps["m"], f, mu="m") for f in filters.values()]
        cert = single_preparation_certificate("m", records, preps=preps, filters=filters)
        oracle = bound_from_visibilities(
            verify_alpha_constraint(cert.alphas, preps, filters,
                                    np.outer(psi0, psi0.conj()), np.outer(psi1, psi1.conj())),
            records,
        )
        np.testing.assert_allclose(cert.u_hat, oracle.u_hat, rtol=0, atol=1e-12)
        assert cert.contraction_slack == pytest.approx(oracle.contraction_slack, abs=1e-12)
        assert (cert.vg_lower, cert.d_upper) == (oracle.vg_lower, oracle.d_upper)
        for psi in (psi0, psi1):
            support = _ket_support(psi)
            for ref in _root_support(*psd_eigh(np.outer(psi, psi.conj()), "rho")):
                np.testing.assert_allclose(support, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("scale", [2.0, 1.0 + 2e-10, 0.5])
@pytest.mark.parametrize("arm", [0, 1])
def test_single_preparation_certificate_rejects_non_unit_ket(scale, arm):
    # a scaled ket used to give a certificate through the eigh route
    row = [r for r in measured_records() if r.mu == "hh"]
    pair = [H, H]
    pair[arm] = scale * pair[arm]
    with pytest.raises(DimensionError, match="differs from 1"):
        single_preparation_certificate("hh", row, preps={"hh": tuple(pair)})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("arm", [0, 1])
def test_single_preparation_certificate_rejects_non_finite_ket(bad, arm):
    # a NaN ket used to raise PositivityError from the eigendecomposition
    row = [r for r in measured_records() if r.mu == "hh"]
    pair = [H.copy(), H.copy()]
    pair[arm][1] = bad
    with pytest.raises(NonFiniteError):
        single_preparation_certificate("hh", row, preps={"hh": tuple(pair)})


def test_single_preparation_certificate_rejects_mismatched_inputs():
    row = [r for r in measured_records() if r.mu == "hh"]
    with pytest.raises(DimensionError, match="dimension 2"):
        single_preparation_certificate("hh", row, preps={"hh": (ket(0, 3), ket(0, 3))})
    with pytest.raises(DimensionError, match="no preparation 'hh'"):
        single_preparation_certificate("hh", row, preps={"vv": (V, V)})
    with pytest.raises(DimensionError, match="unknown filters"):
        single_preparation_certificate("hh", row, filters={"hh": rectilinear_filters()["hh"]})
    ragged = {"hh": rectilinear_filters()["hh"], "vv": FilterPair(ket(1, 3), ket(1, 3))}
    with pytest.raises(DimensionError, match="filter 'vv' has dimension 3, not 2"):
        single_preparation_certificate("hh", row, filters=ragged)


def test_a_filter_of_another_dimension_is_named_by_its_key():
    # the message named the filter's label, "" by default, where the
    # filter came under a key
    wide = FilterPair(ket(0, 3), ket(1, 3), label="lab")
    message = re.escape("filter 'x' has dimension 3, not 2")
    with pytest.raises(DimensionError, match=message):
        run_experiment(pauli_mixture_channel(), filters={"x": wide})
    row = [FractionalVisibilityRecord("hh", nu, 0.5, 0.1) for nu in ("hh", "x")]
    with pytest.raises(DimensionError, match=message):  # a ragged basis
        single_preparation_certificate("hh", row,
                                       filters={"hh": rectilinear_filters()["hh"], "x": wide})
    half = np.eye(2) / 2
    with pytest.raises(DimensionError, match=message):
        verify_alpha_constraint({("hh", "x"): 0.5}, rectilinear_preparations(), {"x": wide},
                                half, half)
    # a filter given alone is named by its label
    with pytest.raises(DimensionError, match=re.escape("filter 'lab' has dimension 3, not 2")):
        fractional_visibility(pauli_mixture_channel(), rectilinear_preparations()["hh"], wide)


@pytest.mark.parametrize("sets, message", [
    (dict(preps=5), "preps 5 is not a mapping"),
    (dict(filters="ab"), "filters 'ab' is not a mapping"),
], ids=["preps", "filters"])
def test_single_preparation_sets_that_are_not_mappings_are_a_dimension_error(sets, message):
    # preps=5 raised a bare TypeError
    row = [r for r in measured_records() if r.mu == "hh"]
    with pytest.raises(DimensionError, match=re.escape(message)):
        single_preparation_certificate("hh", row, **sets)


def _lower_arm_defect():
    """Two filter pairs whose upper-arm kets {h, v} are a basis and whose
    lower-arm kets {h, h} are not."""
    filters = {"hh": FilterPair(H, H, label="hh"), "vh": FilterPair(V, H, label="vh")}
    rows = [FractionalVisibilityRecord(mu="hh", nu=nu, p=0.5, visibility=0.1)
            for nu in filters]
    return rows, filters


def test_lower_arm_defect_is_named():
    rows, filters = _lower_arm_defect()
    with pytest.raises(DimensionError, match="lower-arm filter states are not orthonormal"):
        orthonormal_filter_bound(rows, filters)
    with pytest.raises(DimensionError, match="lower-arm filter states are not orthonormal"):
        single_preparation_certificate("hh", rows, filters=filters)
    # the same defect in the upper arm is named as such
    swapped = {nu: FilterPair(f.chi1, f.chi0, label=nu) for nu, f in filters.items()}
    with pytest.raises(DimensionError, match="upper-arm filter states are not orthonormal"):
        orthonormal_filter_bound(rows, swapped)


def test_rectilinear_sets_are_fresh_dicts_over_read_only_kets():
    for build in (rectilinear_preparations, rectilinear_filters):
        first, second = build(), build()
        assert first is not second and first.keys() == second.keys()
        first.pop("hh")
        first["vv"] = None
        third = build()
        assert list(third) == ["hh", "hv", "vh", "vv"]
        assert third["vv"] is not None and third["hh"] is second["hh"]
    kets = [k for pair in rectilinear_preparations().values() for k in pair]
    kets += [k for f in rectilinear_filters().values() for k in (f.chi0, f.chi1)]
    for k in kets:
        assert not k.flags.writeable
        with pytest.raises(ValueError):
            k[0] = 5.0
    np.testing.assert_array_equal(rectilinear_preparations()["hv"], (H, V))
    filt = rectilinear_filters()["vh"]
    np.testing.assert_array_equal((filt.chi0, filt.chi1), (V, H))


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_swap_certificate_on_exact_records_is_sound(k, seed):
    ch = random_path_channel(2, k, seed=seed)
    preps, filters = rectilinear_preparations(), rectilinear_filters()
    records = [fractional_visibility(ch, preps[mu], filters[nu], mu=mu)
               for mu in preps for nu in filters]
    cert = swap_certificate(records)
    assert cert.vg_lower <= generalized_visibility(ch, Preparation.completely_mixed(2)) + 1e-9


def test_swap_certificate_equals_the_checked_route_without_rechecking(monkeypatch):
    # swap_certificate runs verify_alpha_constraint's certificate on the
    # stacks the rectilinear grid prepares once, with the same gatherer, on
    # the support of 1/2: it validates no density matrix and no ket and
    # prepares no stack per call, and its certificate is the checked
    # route's bit for bit, on the measured records and on 200 seeded runs
    ch = pauli_mixture_channel()
    runs = [measured_records()] + [
        run_experiment(ch, efficiencies=(0.9, 1.0, 0.8, 1.0), contrast=0.96, seed=seed)
        for seed in range(200)]
    eye2 = np.eye(2) / 2
    wants = [bound_from_visibilities(verify_alpha_constraint(
        swap_certificate(records).alphas, rectilinear_preparations(), rectilinear_filters(),
        eye2, eye2), records) for records in runs]

    def refuse(*args, **kwargs):
        raise AssertionError("swap_certificate re-validated a constant input")

    for name in ("_density_eigh", "pure_pair", "_root_support", "_stacks", "_mixed_stacks"):
        monkeypatch.setattr(bounds, name, refuse)
    for records, want in zip(runs, wants, strict=True):
        same_certificate(swap_certificate(records), want)
    assert not any(m.flags.writeable for m in bounds._rectilinear_grid()["swap"])


@pytest.mark.parametrize("call, name", [
    (lambda f: single_preparation_certificate(
        "hh", [r for r in measured_records() if r.mu == "hh"],
        filters={**rectilinear_filters(), "hh": f}), "hh"),
    (lambda f: single_preparation_certificate(
        "hh", [r for r in measured_records() if r.mu == "hh"],
        filters={**rectilinear_filters(), "vv": f}), "vv"),
    (lambda f: verify_alpha_constraint({("hh", "hh"): 0.5}, rectilinear_preparations(),
                                       {"hh": f}, np.eye(2) / 2, np.eye(2) / 2), "hh"),
    (lambda f: run_experiment(pauli_mixture_channel(),
                              filters={**rectilinear_filters(), "hh": f}), "hh"),
], ids=["single-first", "single-second", "verify-alpha", "run-experiment"])
def test_a_filter_that_is_not_a_filter_pair_is_a_dimension_error(call, name):
    # a value of a filters mapping used to raise a bare AttributeError on .chi0
    with pytest.raises(DimensionError, match=f"^filter '{name}' of type int is not a FilterPair$"):
        call(5)


def test_swap_grid_keeps_u_hat_stacks_only_where_projection_changes_no_bit():
    # on the support of 1/2, all of C^2, projecting leaves the stacks of L
    # bit-identical, so no swap coefficient set can leak and the grid keeps
    # U-hat's stacks alone; a support that drops v is refused once, where
    # the stacks are built
    preps, filters = rectilinear_preparations(), rectilinear_filters()

    def swap_stacks(rho):
        return bounds._swap_stacks(*bounds._mixed_stacks(SWAP_KEYS, preps, filters, rho, rho))

    grid = bounds._rectilinear_grid()["swap"]
    for got, want in zip(swap_stacks(np.eye(2) / 2), grid, strict=True):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    with pytest.raises(SupportError, match="swap terms leak outside the support"):
        swap_stacks(np.diag([1.0, 0.0]))


@pytest.mark.parametrize("mu, nus, message", [
    ("hh", ("hh",), "upper-arm filters do not form a complete basis (1 vectors in dim 2)"),
    ("hh", ("hh", "vv", "hv"),
     "upper-arm filters do not form a complete basis (3 vectors in dim 2)"),
    ("hh", ("hh", "hv"), "upper-arm filter states are not orthonormal within 1e-9"),
    ("hh", ("hh", "vh"), "lower-arm filter states are not orthonormal within 1e-9"),
    ("hh", ("hh", "ab"), "records reference unknown filters ['ab']"),
    ("xx", ("hh", "vv"), "no preparation 'xx'"),
])
def test_default_certificate_keeps_the_errors_of_the_checked_route(mu, nus, message):
    # a record set outside the built-once table of default certificates
    # takes the checked route and raises what the explicit sets raise
    records = [FractionalVisibilityRecord(mu, nu, 0.5, 0.1) for nu in nus]
    for sets in ({}, {"preps": rectilinear_preparations(), "filters": rectilinear_filters()}):
        with pytest.raises(DimensionError) as exc:
            single_preparation_certificate(mu, records, **sets)
        assert str(exc.value) == message


def test_each_density_matrix_is_decomposed_once(monkeypatch):
    # the eigendecomposition that checks a density matrix also gives the
    # eigenpairs replace_channel and verify_alpha_constraint use
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
    rho = np.diag([0.7, 0.3]).astype(complex)
    replace_channel(rho)
    assert len(calls) == 1
    calls.clear()
    verify_alpha_constraint(dict.fromkeys(SWAP_KEYS, 0.5), rectilinear_preparations(),
                            rectilinear_filters(), np.eye(2) / 2, np.eye(2) / 2)
    assert len(calls) == 2


def test_general_certificates_with_full_rank_states():
    # the rectilinear rank-one terms span all operators on the two replicas,
    # so any contraction sandwiched between full-rank state factors yields a
    # decomposable, verifiable coefficient set
    from whichway import distinguishability, environment_states, matrix_sqrt

    rng = np.random.default_rng(6)
    preps = rectilinear_preparations()
    filters = rectilinear_filters()
    basis = {}
    for mu, (psi0, psi1) in preps.items():
        for nu, filt in filters.items():
            basis[(mu, nu)] = np.kron(
                np.outer(psi0, psi1.conj()).T, np.outer(filt.chi1, filt.chi0.conj())
            )
    for _ in range(25):
        rho0 = random_density(2, rng) * 0.98 + 0.01 * np.eye(2)
        rho1 = random_density(2, rng) * 0.98 + 0.01 * np.eye(2)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = g / np.linalg.svd(g, compute_uv=False).max()  # operator norm 1
        left = np.kron(matrix_sqrt(rho1).T, np.eye(2)) @ u @ np.kron(
            matrix_sqrt(rho0).T, np.eye(2)
        )
        alphas = {
            key: complex(term.conj().reshape(-1) @ left.reshape(-1))
            for key, term in basis.items()
        }
        cert = verify_alpha_constraint(alphas, preps, filters, rho0, rho1)
        assert cert.contraction_slack <= 1e-8
        np.testing.assert_allclose(cert.u_hat, u, atol=1e-8)

        # soundness of the assembled bound against an arbitrary channel whose
        # arm inputs realize exactly these rho's
        ch = random_path_channel(2, int(rng.integers(1, 4)), seed=int(rng.integers(1e6)))
        records = {
            key: fractional_visibility(ch, preps[key[0]], filters[key[1]], mu=key[0])
            for key in alphas
        }
        full = bound_from_visibilities(cert, records)
        prep = _preparation_with_marginals(rho0, rho1, rng)
        vg = generalized_visibility(ch, prep)
        assert full.vg_lower <= vg + 1e-8
        d_true = distinguishability(*environment_states(ch, prep))
        assert full.d_upper >= d_true - 1e-8


def _preparation_with_marginals(rho0, rho1, rng):
    """An ensemble preparation whose per-arm marginals are exactly rho0, rho1
    (eigen-decompose each side and pair the eigenvectors independently)."""
    w0, v0 = np.linalg.eigh(rho0)
    w1, v1 = np.linalg.eigh(rho1)
    weights, pairs = [], []
    for i, wi in enumerate(w0):
        for j, wj in enumerate(w1):
            if wi * wj > 1e-12:  # a null direction of a rank-deficient side
                weights.append(wi * wj)
                pairs.append((v0[:, i], v1[:, j]))
    return Preparation.ensemble(weights, pairs)


def _basis_cells(d):
    """The d^2 computational-basis preparation pairs (|a>, |b>) and the d^2
    filter pairs; their rank-one terms (|psi0><psi1|)^T x |chi1><chi0| are an
    orthonormal basis of the operators on two spin replicas. At d=2 they are
    the rectilinear cells, labelled 00, 01, 10, 11 in place of hh, hv, vh, vv."""
    kets = [ket(a, d) for a in range(d)]
    cells = [(f"{a}{b}", kets[a], kets[b]) for a in range(d) for b in range(d)]
    return ({label: (x, y) for label, x, y in cells},
            {label: FilterPair(x, y, label=label) for label, x, y in cells})


def _contraction(rng, norm, d):
    g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    return norm * g / np.linalg.svd(g, compute_uv=False).max()


def _contraction_alphas(rho0, rho1, u):
    """Coefficients of (sqrt(rho1)^T x 1) u (sqrt(rho0)^T x 1) over the
    rank-one terms of :func:`_basis_cells`."""
    from whichway import matrix_sqrt

    d = rho0.shape[0]
    eye = np.eye(d)
    left = np.kron(matrix_sqrt(rho1).T, eye) @ u @ np.kron(matrix_sqrt(rho0).T, eye)
    preps, filters = _basis_cells(d)
    alphas = {}
    for mu, (psi0, psi1) in preps.items():
        for nu, filt in filters.items():
            term = np.kron(np.outer(psi0, psi1.conj()).T, np.outer(filt.chi1, filt.chi0.conj()))
            alphas[(mu, nu)] = complex(term.conj().reshape(-1) @ left.reshape(-1))
    return alphas


def _assert_sound(cert, rho0, rho1, k, seed, rng):
    """The bound assembled from exact records of a random channel does not
    exceed V_G of a preparation with marginals rho0, rho1."""
    d = rho0.shape[0]
    ch = random_path_channel(d, k, seed=seed)
    preps, filters = _basis_cells(d)
    records = {key: fractional_visibility(ch, preps[key[0]], filters[key[1]], mu=key[0])
               for key in cert.alphas}
    full = bound_from_visibilities(cert, records)
    rep = verify_inequality(ch, _preparation_with_marginals(rho0, rho1, rng))
    assert full.vg_lower <= rep.visibility + 1e-9
    assert full.d_upper >= rep.distinguishability - 1e-9


def _full_rank_density(rng, d):
    return random_density(d, rng) * (1.0 - 0.01 * d) + 0.01 * np.eye(d)


def _density_of_rank(rng, d, rank):
    """A density matrix of the given rank whose nonzero eigenvalues are at
    least 0.01."""
    if rank == d:
        return _full_rank_density(rng, d)
    if rank == 1:
        psi = random_ket(d, rng)
        return np.outer(psi, psi.conj())
    q = random_unitary(d, rng)[:, :rank]
    w = rng.dirichlet(np.ones(rank)) * (1.0 - 0.01 * rank) + 0.01
    return (q * w) @ q.conj().T


def _check_full_rank_certificate(d, k, norm, seed):
    rng = np.random.default_rng(seed)
    rho0, rho1 = _full_rank_density(rng, d), _full_rank_density(rng, d)
    u = _contraction(rng, norm, d)
    cert = verify_alpha_constraint(_contraction_alphas(rho0, rho1, u), *_basis_cells(d),
                                   rho0, rho1)
    assert cert.contraction_slack <= 1e-8
    np.testing.assert_allclose(cert.u_hat, u, atol=1e-8)
    _assert_sound(cert, rho0, rho1, k, seed, rng)


def _check_rank_deficient_certificate(d, ranks, leaky, k, seed):
    # coefficients of a contraction between the state factors lie in their
    # supports and give a sound bound; perturbed ones leak and are refused
    rng = np.random.default_rng(seed)
    rho0, rho1 = _density_of_rank(rng, d, ranks[0]), _density_of_rank(rng, d, ranks[1])
    alphas = _contraction_alphas(rho0, rho1, _contraction(rng, 1.0, d))
    if leaky:
        alphas = {key: a + 0.1 * complex(rng.normal(), rng.normal()) for key, a in alphas.items()}
    args = (alphas, *_basis_cells(d), rho0, rho1)
    if leaky:
        with pytest.raises(SupportError):
            verify_alpha_constraint(*args)
        return
    cert = verify_alpha_constraint(*args)
    assert cert.contraction_slack <= 1e-8
    _assert_sound(cert, rho0, rho1, k, seed, rng)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 3), norm=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1))
def test_full_rank_certificates_are_sound(k, norm, seed):
    _check_full_rank_certificate(2, k, norm, seed)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 3), norm=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1))
def test_full_rank_certificates_are_sound_at_d3(k, norm, seed):
    # 81 rank-one terms from 9 preparation pairs and 9 filter pairs
    _check_full_rank_certificate(3, k, norm, seed)


@settings(max_examples=40, deadline=None)
@given(
    ranks=st.sampled_from(((1, 1), (1, 2), (2, 1))),
    leaky=st.booleans(),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_deficient_certificates_are_sound_or_rejected(ranks, leaky, k, seed):
    _check_rank_deficient_certificate(2, ranks, leaky, k, seed)


@settings(max_examples=40, deadline=None)
@given(
    ranks=st.sampled_from([(r0, r1) for r0 in (1, 2, 3) for r1 in (1, 2, 3)][:-1]),
    leaky=st.booleans(),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_deficient_certificates_are_sound_or_rejected_at_d3(ranks, leaky, k, seed):
    _check_rank_deficient_certificate(3, ranks, leaky, k, seed)


def test_records_csv_round_trip(tmp_path):
    records = measured_records()
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    again = read_records_csv(path)
    assert {r.key for r in again} == {r.key for r in records}
    by_key = {r.key: r for r in again}
    for rec in records:
        back = by_key[rec.key]
        assert back.p == rec.p
        assert back.visibility == rec.visibility
        assert back.sigma_v == rec.sigma_v
    buf = io.StringIO()
    write_records_csv(records, buf)
    assert buf.getvalue().encode("ascii") == path.read_bytes()
    buf.seek(0)
    assert len(read_records_csv(buf)) == len(records)


def test_read_records_csv_rejects_a_repeated_record():
    buf = io.StringIO()
    write_records_csv(measured_records(), buf)
    buf.write("hh,hh,0.489,0.0,0.0,0.003,0.003\n")
    buf.seek(0)
    with pytest.raises(DimensionError, match=r"duplicate record for \('hh', 'hh'\)"):
        read_records_csv(buf)


@pytest.mark.parametrize("row, count", [("hh,hh,0.5", 3), ("hh,hh,0.5,0.1,0.0,0.0,0.0,9", 8)])
def test_read_records_csv_rejects_a_row_of_the_wrong_length(row, count):
    text = "mu,nu,p,re_V,im_V,sigma_p,sigma_V\nvv,vv,0.5,0.1,0.0,0.0,0.0\n\n" + row + "\n"
    with pytest.raises(ValueError, match=f"CSV line 4: expected 7 fields, got {count}"):
        read_records_csv(io.StringIO(text))


@pytest.mark.parametrize("row, column, text", [
    ("hh,hh,abc,0.1,0.0,0.0,0.0", "p", "could not convert string to float: 'abc'"),
    ("hh,hh,0.5,0.1,,0.0,0.0", "im_V", "could not convert string to float: ''"),
    ("hh,hh,0.5,0.1,0.0,0.0,1e", "sigma_V", "could not convert string to float: '1e'"),
])
def test_read_records_csv_names_the_line_and_column_of_a_non_numeric_field(row, column, text):
    csv_text = "mu,nu,p,re_V,im_V,sigma_p,sigma_V\nvv,vv,0.5,0.1,0.0,0.0,0.0\n" + row + "\n"
    with pytest.raises(ValueError) as exc:
        read_records_csv(io.StringIO(csv_text))
    assert str(exc.value) == f"CSV line 3, column {column}: {text}"


def test_certificate_report_mentions_bounds():
    cert = swap_certificate(measured_records())
    text = certificate_report(cert)
    assert "0.9605" in text and "slack" in text


def test_certificate_derives_its_distinguishability_bound():
    cert = swap_certificate(measured_records())
    assert [f.name for f in dataclasses.fields(cert)] == [
        "alphas", "u_hat", "contraction_slack", "vg_lower", "sigma_vg"]
    assert cert.d_upper == np.sqrt(1 - cert.vg_lower**2)
    assert cert.sigma_d == cert.vg_lower / cert.d_upper * cert.sigma_vg
    bare = dataclasses.replace(cert, vg_lower=None, sigma_vg=None)
    assert bare.d_upper is None and bare.sigma_d is None


def _reference_run(records):
    """The bounds of one run by the loop ``reproduce`` used to hold: the swap
    certificate or its DimensionError text, one single-preparation
    certificate per preparation and complementary pair, and the key of the
    first strictly largest bound."""
    recs = {r.key: r for r in records}
    try:
        swap, why = swap_certificate(records), None
    except DimensionError as exc:
        swap, why = None, str(exc)
    singles, best = {}, None
    for mu in sorted({r.mu for r in records}):
        for nu, partner in (("hh", "vv"), ("hv", "vh")):
            if (mu, nu) in recs and (mu, partner) in recs:
                cert = single_preparation_certificate(mu, [recs[(mu, nu)], recs[(mu, partner)]])
                singles[(mu, nu, partner)] = cert
                if best is None or cert.vg_lower > singles[best].vg_lower:
                    best = (mu, nu, partner)
    return swap, why, singles, best


def _theory_grid():
    ch, preps, filters = pauli_mixture_channel(), rectilinear_preparations(), rectilinear_filters()
    return [fractional_visibility(ch, preps[mu], filters[nu], mu=mu)
            for mu in sorted(preps) for nu in sorted(filters)]


@pytest.mark.parametrize("source, keep", [
    ("csv", None), (1, None), (7, None), (9001, None), ("theory", None),
    ("csv", {"hh", "vv"}), ("csv", {"hh", "hv", "vh"}), (7, {"hv", "vh", "vv"}),
], ids=["csv", "seed-1", "seed-7", "seed-9001", "theory-ties", "csv-hh-vv", "csv-no-vv",
        "seed-7-no-hh"])
def test_certify_run_matches_the_reference_loop_bit_for_bit(source, keep):
    if source == "csv":
        records = read_records_csv(DEMO_RECORDS)
    elif source == "theory":
        records = _theory_grid()
    else:
        records = run_experiment(pauli_mixture_channel(), shots_per_phase=10_000,
                                 contrast=0.96, seed=source)
    if keep is not None:
        records = [r for r in records if r.nu in keep]
    run = certify_run(records)
    swap, why, singles, best = _reference_run(records)
    assert [f.name for f in dataclasses.fields(RunBounds)] == [
        "swap", "swap_unavailable", "singles", "best"]
    assert (run.swap is None, run.swap_unavailable) == (swap is None, why)
    assert list(run.singles) == list(singles) and run.best == best
    pairs = [(run.singles[key], singles[key]) for key in singles]
    for got, want in pairs + ([(run.swap, swap)] if swap is not None else []):
        assert got.alphas == want.alphas
        for name in ("vg_lower", "d_upper", "sigma_vg", "sigma_d", "contraction_slack"):
            assert getattr(got, name) == getattr(want, name), name
    if source == "theory":
        # four single-preparation bounds tie at 0.5; the first one is best
        assert best == ("hh", "hh", "vv")


@pytest.mark.parametrize("records", [
    [],
    [r for r in measured_records() if r.nu == "hh"],
    [r for r in _theory_grid() if r.nu in ("hh", "hv")],
], ids=["no-records", "one-filter", "half-of-each-pair"])
def test_certify_run_refuses_records_that_certify_nothing(records):
    with pytest.raises(DimensionError, match=(
            f"no bound certified: the {len(records)} records support neither the four-term "
            "bound nor a single-preparation bound")):
        certify_run(records)


def test_certify_run_refuses_a_repeated_record():
    records = measured_records()
    with pytest.raises(DimensionError, match=r"duplicate record for \('hh', 'hh'\)"):
        certify_run(records + records[:1])


@pytest.mark.parametrize("efficiencies", [(1.0,) * 4, (0.93, 1.0, 0.81, 0.88)],
                         ids=["equal", "unequal"])
@pytest.mark.parametrize("contrast", [0.96, 1.0])
def test_certify_run_evaluates_its_sets_as_their_own_calls_do(contrast, efficiencies):
    # certify_run makes one single_preparation_certificate call per set;
    # each certificate equals its one-set call bit for bit, and the stacks
    # route the package ran before the pure factors (reference_kernels), with
    # its own eigvalsh, gives the same U-hat bytes and slack. A third of the
    # runs drop three records, so fewer sets, in other positions of the grid,
    # are certified.
    ch, preps, filters = pauli_mixture_channel(), rectilinear_preparations(), rectilinear_filters()
    rng = np.random.default_rng([int(contrast * 100), len(set(efficiencies))])
    for seed in range(200):
        records = run_experiment(ch, efficiencies=efficiencies, contrast=contrast, seed=seed)
        if seed % 3 == 0:
            records = [records[i] for i in sorted(rng.permutation(16)[3:])]
        recs = {rec.key: rec for rec in records}
        run = certify_run(records)
        for (mu, *pair), cert in run.singles.items():
            same_certificate(cert, single_preparation_certificate(
                mu, [recs[(mu, nu)] for nu in pair]))
            u_hat, slack = stacks_single_certificate(cert.alphas, preps, filters)
            assert u_hat.tobytes() == cert.u_hat.tobytes() and slack == cert.contraction_slack
        assert run.best == max(run.singles, key=lambda key: run.singles[key].vg_lower,
                               default=None)


@pytest.mark.parametrize("source, want_singles", [
    ("default", 8), ("csv", 4), ("dropped", 5),
], ids=["default-run", "measured-csv", "records-dropped"])
def test_certify_run_makes_one_call_per_certificate(monkeypatch, source, want_singles):
    # certify_run holds the run's policy only: one swap_certificate call and
    # one single_preparation_certificate call per preparation and present
    # complementary pair, each with that pair's two records, and no
    # evaluation of its own
    if source == "csv":
        records = read_records_csv(DEMO_RECORDS)
    else:
        records = run_experiment(pauli_mixture_channel(), efficiencies=(0.93, 1.0, 0.81, 0.88),
                                 contrast=0.96, seed=3)
    if source == "dropped":
        records = [r for r in records if r.key not in (("hh", "vv"), ("hv", "vh"), ("vv", "vh"))]
    recs = {rec.key: rec for rec in records}
    pairs = [(mu, pair) for mu in sorted({mu for mu, _ in recs}) for pair in COMPLEMENTARY
             if all((mu, nu) in recs for nu in pair)]
    calls = {"swap": [], "single": []}
    swap, single = bounds.swap_certificate, bounds.single_preparation_certificate

    def counted_swap(records):
        calls["swap"].append(records)
        return swap(records)

    def counted_single(mu, records, *args, **kwargs):
        calls["single"].append((mu, [rec.key for rec in records], args, kwargs))
        return single(mu, records, *args, **kwargs)

    monkeypatch.setattr(bounds, "swap_certificate", counted_swap)
    monkeypatch.setattr(bounds, "single_preparation_certificate", counted_single)
    run = certify_run(records)
    assert len(calls["swap"]) == 1
    assert calls["single"] == [(mu, [(mu, nu) for nu in pair], (), {}) for mu, pair in pairs]
    assert list(run.singles) == [(mu, *pair) for mu, pair in pairs]
    assert len(pairs) == want_singles and (run.swap is None) == (source == "dropped")


def _first_failure(records):
    """The exception of the first failing set when certify_run's sets run as
    one-set calls, in sorted mu, then COMPLEMENTARY order."""
    recs = {rec.key: rec for rec in records}
    for mu in sorted({mu for mu, _ in recs}):
        for pair in COMPLEMENTARY:
            if all((mu, nu) in recs for nu in pair):
                try:
                    single_preparation_certificate(mu, [recs[(mu, nu)] for nu in pair])
                except (ContractionError, DimensionError) as exc:
                    return exc
    return None


@pytest.mark.parametrize("scales, extra, want", [
    ({("hv", "hh"): 1.5, ("vh", "vv"): 2.0}, (), "contraction violated: slack 1.250e+00"),
    ({("vh", "vv"): 2.0}, (), "contraction violated: slack 3.000e+00"),
    ({("hv", "hh"): 1.5}, ("aa",), "no preparation 'aa'"),
    ({("hv", "vv"): 1.5}, ("zz",), "contraction violated: slack 1.250e+00"),
    ({}, ("ab", "zz"), "no preparation 'ab'"),
], ids=["two-contractions", "one-contraction", "unknown-mu-first", "unknown-mu-later",
        "two-unknown"])
def test_certify_run_raises_what_the_first_failing_set_raises(monkeypatch, scales, extra, want):
    # a coefficient scaled past a phase makes a set fail its contraction
    # check, and a preparation off the grid fails its own call; certify_run
    # raises the error of the first failing set in sorted mu, then
    # COMPLEMENTARY order, the one the one-set calls raise first
    # only the (hh, vv) pair of each preparation, so no swap cell (hv, vh)
    mus = sorted({"hh", "hv", "vh", "vv", *extra})
    records = [FractionalVisibilityRecord(mu, nu, 0.5, 0.1 + 0.01 * i)
               for i, (mu, nu) in enumerate((mu, nu) for mu in mus for nu in ("hh", "vv"))]
    by_visibility = {rec.visibility: scales.get(rec.key, 1.0) for rec in records}
    optimal = bounds._optimal_phase
    monkeypatch.setattr(bounds, "_optimal_phase",
                        lambda v: by_visibility.get(v, 1.0) * optimal(v))
    expected = _first_failure(records)
    with pytest.raises((ContractionError, DimensionError)) as exc:
        certify_run(records)
    assert type(exc.value) is type(expected) and str(exc.value) == str(expected)
    assert str(exc.value).startswith(want)


def test_grid_certificates_run_no_eigensolver(monkeypatch):
    # every U-hat on the rectilinear grid holds at most one nonzero per row,
    # so the swap, the one-set grid calls and certify_run take the slack from
    # the diagonal of U-hat^dag U-hat; an explicit pure set (d = 3) and a
    # mixed set still reach the eigensolver, the linalg binding that _slack
    # calls, and no route reaches the public np.linalg.eigvalsh
    records = run_experiment(pauli_mixture_channel(), efficiencies=(0.93, 1.0, 0.81, 0.88),
                             contrast=0.96, seed=4)
    recs = {rec.key: rec for rec in records}
    rng = np.random.default_rng(42)
    preps3 = {"m": (random_ket(3, rng), random_ket(3, rng))}
    filters3 = random_orthonormal_filters(3, rng)
    ch3 = random_path_channel(3, 2, seed=5)
    records3 = [fractional_visibility(ch3, preps3["m"], f, mu="m") for f in filters3.values()]
    half = np.eye(2) / 2
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("eigvalsh ran")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(bounds, "_eigvalsh", refuse)
    assert swap_certificate(records).contraction_slack <= CONTRACTION_TOL
    for mu in sorted({mu for mu, _ in recs}):
        for pair in COMPLEMENTARY:
            cert = single_preparation_certificate(mu, [recs[(mu, nu)] for nu in pair])
            assert cert.contraction_slack <= CONTRACTION_TOL
    run = certify_run(records)
    assert run.swap is not None and len(run.singles) == 8
    assert calls == []
    with pytest.raises(AssertionError, match="eigvalsh ran"):
        single_preparation_certificate("m", records3, preps=preps3, filters=filters3)
    with pytest.raises(AssertionError, match="eigvalsh ran"):
        verify_alpha_constraint({key: 0.5 for key in SWAP_KEYS}, rectilinear_preparations(),
                                rectilinear_filters(), half, half)
    assert len(calls) == 2


def _grid_targets():
    """(name, magnitude, U-hat of a (k, n) coefficient stack) for each of the
    16 single-preparation maps and the swap; the magnitude is that of the
    coefficients whose U-hat is an isometry."""
    grid = bounds._rectilinear_grid()
    for key, i in grid["single_index"].items():
        yield "-".join(key), 1.0, (lambda a, m=grid["singles"][i]: bounds._grid_u_hat(a, m))
    yield "swap", 0.5, (lambda a: bounds._u_hat(a, grid["swap"]))


def test_grid_slack_is_the_eigensolver_slack_bit_for_bit():
    # on every map and on the swap the diagonal slack equals _slack's
    # eigvalsh slack bit for bit: unit-modulus sets (random phases and the
    # exact phases 1, -1, i, -i), magnitudes 1 +- k 2^-52, and sets scaled by
    # 1.5 or 2.0, which raise the same ContractionError text on both routes
    rng = np.random.default_rng(2052)
    for name, size, u_hat_of in _grid_targets():
        n = 4 if name == "swap" else 2
        phases = np.exp(2j * np.pi * rng.random((2400, n)))
        phases[:200] = rng.choice([1, -1, 1j, -1j], size=(200, n))
        edge = 1.0 + rng.integers(-4, 5, size=(800, n)) * 2.0**-52
        scale = np.concatenate([np.ones(1600), rng.choice([1.5, 2.0], size=800)])
        mags = size * scale[:, None] * np.concatenate([np.ones((800, n)), edge,
                                                       np.ones((800, n))])
        u_hats = u_hat_of(mags * phases)
        got, want = bounds._grid_slack(u_hats), bounds._slack(u_hats)
        assert got.shape == want.shape == (2400,)
        assert got.tobytes() == want.tobytes(), name
        for a, b in zip(got[1600:].tolist(), want[1600:].tolist()):
            texts = []
            for slack in (a, b):
                with pytest.raises(ContractionError) as exc:
                    bounds._contraction(slack)
                texts.append(str(exc.value))
            assert texts[0] == texts[1], name


@pytest.mark.parametrize("plant", ["single", "swap"])
def test_grid_build_refuses_a_u_hat_row_with_two_nonzeros(monkeypatch, plant):
    # the diagonal slack holds only while every U-hat the grid can form has
    # at most one nonzero per row; a column factor planted with two nonzeros
    # breaks that, and the grid build refuses it
    def planted(build):
        def stacks(*args):
            row, chi1, w = build(*args)
            w = w.copy()
            w[0] += w[1]
            return row, chi1, w
        return stacks

    name = "_single_factors" if plant == "single" else "_swap_stacks"
    monkeypatch.setattr(bounds, name, planted(getattr(bounds, name)))
    what = "the single-preparation maps" if plant == "single" else "the swap terms"
    with pytest.raises(NumericalError, match=f"^{what}: a U-hat row holds two nonzeros"):
        bounds._rectilinear_grid.__wrapped__()


def test_explicit_pure_sets_match_the_stacks_route():
    # an explicit set builds its pure factors on each call; U-hat is the
    # projected L of the stacks route (L, its projection and the leak check,
    # kept as an oracle), formed by the same products, so U-hat's bytes and
    # the slack are the stacks route's
    rng = np.random.default_rng(39)
    for t in range(300):
        d = 2 + t % 3
        ch = random_path_channel(d, 1 + t % 3, seed=t)
        preps = {"m": (random_ket(d, rng), random_ket(d, rng))}
        filters = random_orthonormal_filters(d, rng)
        records = [fractional_visibility(ch, preps["m"], f, mu="m") for f in filters.values()]
        cert = single_preparation_certificate("m", records, preps=preps, filters=filters)
        u_hat, slack = stacks_single_certificate(cert.alphas, preps, filters)
        assert u_hat.tobytes() == cert.u_hat.tobytes() and slack == cert.contraction_slack


@settings(max_examples=200, deadline=None)
@given(d=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
       edges=st.tuples(*[st.sampled_from([-0.999e-10, 0.0, 0.999e-10])] * 2))
def test_pure_sets_cannot_leak_at_the_norm_edge_of_unit_ket(d, seed, edges):
    # the projected L of a pure set is n0 n1 L, n_i the squared norm of ket
    # i, so the stacks route's leak ratio is |1 - n0 n1|: at most about
    # 4e-10 for kets that unit_ket accepts, far below CONTRACTION_TOL, which
    # is why the pure factor route runs no leak check
    rng = np.random.default_rng(seed)
    psi0, psi1 = ((1.0 + e) * random_ket(d, rng) for e in edges)
    preps = {"m": (psi0, psi1)}
    filters = random_orthonormal_filters(d, rng)
    chis = np.array([[f.chi0 for f in filters.values()], [f.chi1 for f in filters.values()]])
    alphas = np.exp(2j * np.pi * rng.random(d))
    ratio = pure_leak_ratio(psi0, psi1, chis, alphas)
    assert ratio < 1e-9 < CONTRACTION_TOL
    assert ratio == pytest.approx(abs(1 - np.vdot(psi0, psi0).real * np.vdot(psi1, psi1).real),
                                  abs=1e-14)
    records = [FractionalVisibilityRecord("m", nu, 0.5, 0.1) for nu in filters]
    cert = single_preparation_certificate("m", records, preps=preps, filters=filters)
    assert cert.contraction_slack <= CONTRACTION_TOL
