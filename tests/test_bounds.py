import dataclasses
import io

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
)
from whichway import (
    ContractionError,
    DimensionError,
    FilterPair,
    FractionalVisibilityRecord,
    NonFiniteError,
    PathChannel,
    PositivityError,
    Preparation,
    SupportError,
    bound_from_visibilities,
    certificate_report,
    fractional_visibility,
    generalized_visibility,
    identity_channel,
    ket,
    pauli_mixture_channel,
    random_path_channel,
    read_records_csv,
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
from reference_kernels import detection_probabilities, orthonormal_filter_bound, swap_estimate
from whichway.bounds import SWAP_KEYS, _ket_support, _root_support

H, V = ket(0, 2), ket(1, 2)


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


def test_zero_alphas_give_slack_minus_one():
    alphas = {("hh", "hh"): 0.0}
    cert = verify_alpha_constraint(
        alphas, rectilinear_preparations(), rectilinear_filters(),
        np.eye(2) / 2, np.eye(2) / 2,
    )
    assert cert.contraction_slack == pytest.approx(-1.0, abs=1e-12)
    assert np.max(np.abs(cert.u_hat)) == 0.0


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
    with pytest.raises(DimensionError, match="filter 'hh' does not have the states' dimension 3"):
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
            for ref in _root_support(np.outer(psi, psi.conj())):
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
    with pytest.raises(DimensionError, match="different dimensions"):
        single_preparation_certificate("hh", row, filters=ragged)


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
    # rectilinear sets and a cached support of 1/2: it validates no density
    # matrix and no ket per call, and its certificate agrees within 1e-15
    import whichway.bounds as bounds

    records = measured_records()
    eye2 = np.eye(2) / 2
    want = bound_from_visibilities(verify_alpha_constraint(
        swap_certificate(records).alphas, rectilinear_preparations(), rectilinear_filters(),
        eye2, eye2), records)

    def refuse(*args, **kwargs):
        raise AssertionError("swap_certificate re-validated a constant input")

    for name in ("density_matrix", "pure_pair", "_root_support"):
        monkeypatch.setattr(bounds, name, refuse)
    got = swap_certificate(records)
    assert got.alphas == want.alphas
    assert np.abs(got.u_hat - want.u_hat).max() <= 1e-15
    for name in ("contraction_slack", "vg_lower", "d_upper", "sigma_vg", "sigma_d"):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-15, name
    assert not any(m.flags.writeable for m in bounds._mixed_support())


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
