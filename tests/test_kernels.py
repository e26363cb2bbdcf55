"""The reshape-and-matmul kernels against their Kronecker-product references.

Sizes cover spin dimension d in {1, 2, 3, 4, 8} and Kraus rank K in
{1, 2, 4, 16}; agreement is required within 1e-12 in complex128. The
fractional-visibility and certificate kernels are compared with the
block-map, kron-loop and two-eigendecomposition forms they replaced, and D
and V_G from the K x d*n environment factors with the eigendecompositions of
the two K x K environment states, the d^2 x d^2 sandwich and state routes
and the partial-trace distinguishability, also at the CLI caps of K (256)
and d (16); the ensembles of three kets at d = 8, K = 4 give K < d*n, and
ensembles of K / d kets give d*n == K, the edge of the route without a QR.
"""

import re

import numpy as np
import pytest

import reference_kernels as ref
from conftest import random_density, random_ket, random_orthonormal_filters, random_unitary
from whichway import (
    ContractionError,
    FilterPair,
    FractionalVisibilityRecord,
    Preparation,
    SupportError,
    block_choi,
    bound_from_visibilities,
    dilate,
    environment_states,
    fractional_visibility,
    generalized_visibility,
    random_path_channel,
    rectilinear_filters,
    rectilinear_preparations,
    single_preparation_certificate,
    swap_certificate,
    verify_alpha_constraint,
    verify_inequality,
    visibility_operator,
)
from whichway.linalg import matrix_sqrt, trace_norm

ATOL = 1e-12
DIMS = (1, 2, 3, 4, 8)
RANKS = (1, 2, 4, 16)
SIZES = [(d, k) for d in DIMS for k in RANKS]
CAPS = [(2, 256), (16, 1), (16, 16)]  # at the CLI caps of K and d


def _channel(d, k):
    return random_path_channel(d, k, seed=1000 * d + k)


def _preparations(d, rng):
    pure = Preparation.pure(random_ket(d, rng), random_ket(d, rng))
    ensemble = Preparation.ensemble(
        rng.dirichlet(np.ones(3)), [(random_ket(d, rng), random_ket(d, rng)) for _ in range(3)]
    )
    return pure, ensemble


@pytest.mark.parametrize("d", DIMS)
def test_preparation_states_match_loop_reference(d):
    for prep in _preparations(d, np.random.default_rng(d)):
        for side, s in enumerate(prep.factors):
            np.testing.assert_allclose(s @ s.conj().T, ref.mixed_state(prep, side),
                                       rtol=0, atol=ATOL)
        assert not prep.factors.flags.writeable


@pytest.mark.parametrize("d,k", SIZES)
def test_block_choi_matches_kron_reference(d, k):
    ch = _channel(d, k)
    for i in (0, 1):
        for j in (0, 1):
            np.testing.assert_allclose(block_choi(ch, i, j), ref.block_choi(ch, i, j),
                                       rtol=0, atol=ATOL)


@pytest.mark.parametrize("d,k", SIZES)
def test_dilate_matches_kron_reference(d, k):
    ch = _channel(d, k)
    v = dilate(ch)
    v0, v1 = ref.dilate(ch)
    assert v.shape == (2, d * k, d)
    np.testing.assert_allclose(v[0], v0, rtol=0, atol=ATOL)
    np.testing.assert_allclose(v[1], v1, rtol=0, atol=ATOL)


@pytest.mark.parametrize("d,k", SIZES)
def test_environment_states_match_partial_trace_reference(d, k):
    ch = _channel(d, k)
    rng = np.random.default_rng(d * 100 + k)
    for prep in _preparations(d, rng):
        states = environment_states(ch, prep)
        for side, (v, state) in enumerate(zip(dilate(ch), states)):
            rho = ref.mixed_state(prep, side)
            np.testing.assert_allclose(state, ref.environment_state(v, rho, d, k),
                                       rtol=0, atol=ATOL)
            assert np.abs(state - state.conj().T).max() <= 1e-12
            assert np.linalg.eigvalsh(state).min() >= -1e-12


@pytest.mark.parametrize("d,k", SIZES)
def test_visibility_routes_match_kron_references(d, k):
    ch = _channel(d, k)
    rng = np.random.default_rng(d * 100 + k + 1)
    for prep in _preparations(d, rng):
        s0, s1 = (matrix_sqrt(ref.mixed_state(prep, side)) for side in (0, 1))
        sandwich = ref.visibility_sandwich(ch, s0, s1)
        state = ref.visibility_state(ch, s0, s1)
        np.testing.assert_allclose(ref.state_route(ch, s0, s1), state, rtol=0, atol=ATOL)
        np.testing.assert_allclose(visibility_operator(ch, prep), sandwich, rtol=0, atol=ATOL)
        expected = min(d * trace_norm(state), 1.0)
        assert generalized_visibility(ch, prep) == pytest.approx(expected, abs=ATOL)


def _rank_deficient(d, rng):
    """A preparation whose per-arm states have rank d - 1 (rank 1 at d <= 2)."""
    m = max(d - 1, 1)
    pairs = [(random_ket(d, rng), random_ket(d, rng)) for _ in range(m)]
    return Preparation.ensemble(rng.dirichlet(np.ones(m)), pairs)


def _filling(d, k, rng):
    """Preparations of n = K / d pairs, so that d*n == K: the largest n for
    which V_G needs no QR (none where d does not divide K)."""
    if k % d:
        return ()
    n = k // d
    pairs = [(random_ket(d, rng), random_ket(d, rng)) for _ in range(n)]
    return (Preparation.ensemble(rng.dirichlet(np.ones(n)), pairs),)


@pytest.mark.parametrize("d,k", SIZES + CAPS)
def test_d_and_vg_match_the_retired_routes(d, k):
    ch = _channel(d, k)
    rng = np.random.default_rng(d * 100 + k + 3)
    pure, ensemble = _preparations(d, rng)
    mixed = Preparation.completely_mixed(d)
    preps = (pure, mixed) if (d, k) in CAPS else (pure, ensemble, mixed, _rank_deficient(d, rng))
    for prep in preps + _filling(d, k, rng):
        rep = verify_inequality(ch, prep)
        gram_d, gram_vg = ref.gram_route(ch, prep)
        sandwich = min(d * trace_norm(visibility_operator(ch, prep)), 1.0)
        state = min(ref.visibility_state_route(ch, prep), 1.0)
        assert abs(rep.distinguishability - gram_d) <= ATOL
        assert abs(rep.visibility - gram_vg) <= ATOL
        assert abs(rep.visibility - sandwich) <= ATOL
        assert abs(rep.visibility - state) <= ATOL
        assert abs(rep.distinguishability - ref.distinguishability(ch, prep)) <= ATOL
        assert generalized_visibility(ch, prep) == rep.visibility


@pytest.mark.parametrize("d", DIMS)
def test_fidelity_matches_square_root_reference(d):
    rng = np.random.default_rng(d + 40)
    rank_deficient = ref.mixed_state(_rank_deficient(d, rng), 0)
    states = (random_density(d, rng), random_density(d, rng), rank_deficient, np.eye(d) / d)
    for rho in states:
        for sigma in states:
            assert abs(ref.eigh_fidelity(rho, sigma) - ref.fidelity(rho, sigma)) <= ATOL


def _alpha_inputs(d, n_terms, rng):
    preps = {f"m{n}": (random_ket(d, rng), random_ket(d, rng)) for n in range(n_terms)}
    filters = {f"f{n}": FilterPair(random_ket(d, rng), random_ket(d, rng), label=f"f{n}")
               for n in range(n_terms)}
    alphas = {(f"m{n}", f"f{n}"): complex(rng.normal(), rng.normal()) for n in range(n_terms)}
    return alphas, preps, filters


def _left_operator(alphas, preps, filters):
    d = next(iter(preps.values()))[0].size
    left = np.zeros((d * d, d * d), dtype=complex)
    for (mu, nu), alpha in alphas.items():
        psi0, psi1 = preps[mu]
        chi0, chi1 = filters[nu].chi0, filters[nu].chi1
        left += alpha * np.kron(np.outer(psi0, psi1.conj()).T, np.outer(chi1, chi0.conj()))
    return left


@pytest.mark.parametrize("d", DIMS)
def test_alpha_constraint_sandwich_matches_kron_reference(d):
    rng = np.random.default_rng(50 + d)
    rho0, rho1 = random_density(d, rng), random_density(d, rng)
    alphas, preps, filters = _alpha_inputs(d, 3, rng)
    _, inv0 = ref.support_projector(matrix_sqrt(rho0).T)
    _, inv1 = ref.support_projector(matrix_sqrt(rho1).T)
    u_ref = ref.factor_sandwich(inv1, _left_operator(alphas, preps, filters), inv0)
    # rescale the coefficients so that the reconstructed U is a contraction
    scale = 0.5 / np.linalg.norm(u_ref, 2)
    alphas = {key: scale * a for key, a in alphas.items()}
    cert = verify_alpha_constraint(alphas, preps, filters, rho0, rho1)
    np.testing.assert_allclose(cert.u_hat, scale * u_ref, rtol=0, atol=ATOL)
    assert cert.contraction_slack == pytest.approx(-0.75, abs=1e-9)


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_alpha_constraint_support_projection_matches_kron_reference(d):
    # pure per-arm states: random coefficients leak outside the rank-one supports
    rng = np.random.default_rng(70 + d)
    psi0, psi1 = random_ket(d, rng), random_ket(d, rng)
    rho0, rho1 = np.outer(psi0, psi0.conj()), np.outer(psi1, psi1.conj())
    alphas, preps, filters = _alpha_inputs(d, 3, rng)
    left = _left_operator(alphas, preps, filters)
    p0, _ = ref.support_projector(matrix_sqrt(rho0).T)
    p1, _ = ref.support_projector(matrix_sqrt(rho1).T)
    projected = ref.factor_sandwich(p1, left, p0)
    assert np.linalg.norm(left - projected) > 1e-8 * np.linalg.norm(left)
    with pytest.raises(SupportError):
        verify_alpha_constraint(alphas, preps, filters, rho0, rho1)


@pytest.mark.parametrize("d,k", SIZES)
def test_fractional_visibility_matches_block_map_reference(d, k):
    ch = _channel(d, k)
    rng = np.random.default_rng(d * 100 + k + 2)
    prep = Preparation.pure(random_ket(d, rng), random_ket(d, rng))
    for filt in random_orthonormal_filters(d, rng).values():
        rec = fractional_visibility(ch, prep, filt)
        p, v = ref.fractional_visibility(ch, prep, filt)
        assert abs(rec.p - p) <= ATOL
        assert abs(rec.visibility - v) <= ATOL


def _supported_inputs(d, rank, rng):
    """Per-arm states of the given rank and coefficients over three
    preparations whose kets lie in those states' supports, paired with a
    random orthonormal filter basis."""
    bases = random_unitary(d, rng)[:, :rank], random_unitary(d, rng)[:, :rank]
    rhos = [(b * w) @ b.conj().T for b, w in
            zip(bases, (rng.uniform(0.5, 1.5, rank) for _ in range(2)))]
    rhos = [rho / np.trace(rho).real for rho in rhos]
    preps = {f"m{n}": tuple(b @ random_ket(rank, rng) for b in bases) for n in range(3)}
    filters = random_orthonormal_filters(d, rng)
    alphas = {(mu, nu): complex(rng.normal(), rng.normal()) for mu in preps for nu in filters}
    return alphas, preps, filters, rhos[0], rhos[1]


RANK_CASES = [(d, r) for d in DIMS for r in sorted({1, max(d - 1, 1), d})]


@pytest.mark.parametrize("d,rank", RANK_CASES)
def test_alpha_constraint_matches_two_eigh_reference(d, rank):
    rng = np.random.default_rng(90 + 10 * d + rank)
    alphas, preps, filters, rho0, rho1 = _supported_inputs(d, rank, rng)
    u_ref = ref.verify_alpha_constraint(alphas, preps, filters, rho0, rho1, tol=np.inf).u_hat
    # rescale the coefficients so that the reconstructed U is a contraction
    scale = 0.5 / np.linalg.norm(u_ref, 2)
    alphas = {key: scale * a for key, a in alphas.items()}
    cert = verify_alpha_constraint(alphas, preps, filters, rho0, rho1)
    expected = ref.verify_alpha_constraint(alphas, preps, filters, rho0, rho1)
    np.testing.assert_allclose(cert.u_hat, expected.u_hat, rtol=0, atol=ATOL)
    assert abs(cert.contraction_slack - expected.contraction_slack) <= ATOL
    assert cert.contraction_slack == pytest.approx(-0.75, abs=1e-9)


@pytest.mark.parametrize("d,rank", [(d, r) for d, r in RANK_CASES if r < d])
def test_alpha_constraint_leak_is_a_support_error_in_both(d, rank):
    rng = np.random.default_rng(190 + 10 * d + rank)
    alphas, _, filters, rho0, rho1 = _supported_inputs(d, rank, rng)
    # kets drawn from the whole space leak outside the rank-deficient supports
    preps = {f"m{n}": (random_ket(d, rng), random_ket(d, rng)) for n in range(3)}
    for check in (verify_alpha_constraint, ref.verify_alpha_constraint):
        with pytest.raises(SupportError):
            check(alphas, preps, filters, rho0, rho1)


@pytest.mark.parametrize("d,rank", RANK_CASES)
def test_alpha_constraint_over_unit_set_is_a_contraction_error_in_both(d, rank):
    rng = np.random.default_rng(290 + 10 * d + rank)
    alphas, preps, filters, rho0, rho1 = _supported_inputs(d, rank, rng)
    u_ref = ref.verify_alpha_constraint(alphas, preps, filters, rho0, rho1, tol=np.inf).u_hat
    scale = 1.5 / np.linalg.norm(u_ref, 2)
    alphas = {key: scale * a for key, a in alphas.items()}
    for check in (verify_alpha_constraint, ref.verify_alpha_constraint):
        with pytest.raises(ContractionError):
            check(alphas, preps, filters, rho0, rho1)


@pytest.mark.parametrize("d", [2, 3])
def test_alpha_constraint_keeps_small_eigenvalues_in_the_support(d):
    # a per-arm eigenvalue of 1e-7 (square root ~3e-4 of the largest) lies
    # far above the 1e-10 cutoff: its direction stays in the support
    rng = np.random.default_rng(390 + d)
    alphas, preps, filters, _, _ = _supported_inputs(d, d, rng)
    q = random_unitary(d, rng)
    rho = (q * np.r_[1.0, np.full(d - 1, 1e-7)]) @ q.conj().T
    rho /= np.trace(rho).real
    u_ref = ref.verify_alpha_constraint(alphas, preps, filters, rho, rho, tol=np.inf).u_hat
    alphas = {key: 0.5 / np.linalg.norm(u_ref, 2) * a for key, a in alphas.items()}
    cert = verify_alpha_constraint(alphas, preps, filters, rho, rho)
    expected = ref.verify_alpha_constraint(alphas, preps, filters, rho, rho)
    np.testing.assert_allclose(cert.u_hat, expected.u_hat, rtol=0, atol=1e-6)
    assert cert.contraction_slack == pytest.approx(-0.75, abs=1e-6)


def _assert_same_certificate(got, want):
    """U-hat and the slack within 1e-12; the coefficients and the bound
    equal."""
    np.testing.assert_allclose(got.u_hat, want.u_hat, rtol=0, atol=ATOL)
    assert abs(got.contraction_slack - want.contraction_slack) <= ATOL
    assert got.alphas == want.alphas
    assert got.vg_lower == want.vg_lower


def _contraction_scaled(scale, alphas, preps, filters, rho0, rho1):
    """``alphas`` rescaled so that the oracle's U-hat has spectral norm
    ``scale``, as Python complex numbers."""
    u_ref = ref.verify_alpha_constraint(alphas, preps, filters, rho0, rho1, tol=np.inf).u_hat
    return {key: complex(scale / np.linalg.norm(u_ref, 2) * a) for key, a in alphas.items()}


LEAK_MESSAGE = ("combination leaks outside the support of the preparation states; "
                "no contraction factorization exists")


@pytest.mark.parametrize("d", DIMS)
def test_certificate_kernel_matches_the_kron_oracle_on_every_route(d):
    rng = np.random.default_rng(490 + d)
    # one pure preparation, complete orthonormal filters, exact records
    ch = random_path_channel(d, 3, seed=490 + d)
    preps = {"m": (random_ket(d, rng), random_ket(d, rng))}
    filters = random_orthonormal_filters(d, rng)
    records = [fractional_visibility(ch, preps["m"], f, mu="m") for f in filters.values()]
    cert = single_preparation_certificate("m", records, preps=preps, filters=filters)
    rhos = [np.outer(psi, psi.conj()) for psi in preps["m"]]
    _assert_same_certificate(cert, bound_from_visibilities(
        ref.verify_alpha_constraint(cert.alphas, preps, filters, *rhos), records))

    # the four-term set on exact records of a random qubit channel of Kraus rank d
    ch = random_path_channel(2, d, seed=590 + d)
    preps, filters = rectilinear_preparations(), rectilinear_filters()
    records = [fractional_visibility(ch, preps[mu], filters[nu], mu=mu)
               for mu in preps for nu in filters]
    cert = swap_certificate(records)
    eye2 = np.eye(2) / 2
    _assert_same_certificate(cert, bound_from_visibilities(
        ref.verify_alpha_constraint(cert.alphas, preps, filters, eye2, eye2), records))

    # general sets between full-rank and rank-deficient states
    for rank in sorted({1, max(d - 1, 1), d}):
        alphas, preps, filters, rho0, rho1 = _supported_inputs(d, rank, rng)
        alphas = _contraction_scaled(0.5, alphas, preps, filters, rho0, rho1)
        records = [FractionalVisibilityRecord(mu, nu, p=1.0, sigma_v=0.01,
                                              visibility=complex(*rng.uniform(-0.5, 0.5, 2)))
                   for mu, nu in alphas]
        got = verify_alpha_constraint(alphas, preps, filters, rho0, rho1)
        want = ref.verify_alpha_constraint(alphas, preps, filters, rho0, rho1)
        _assert_same_certificate(bound_from_visibilities(got, records),
                                 bound_from_visibilities(want, records))

    # a leaking set and an over-long one keep their errors and messages
    if d > 1:
        alphas, _, filters, rho0, rho1 = _supported_inputs(d, d - 1, rng)
        preps = {f"m{n}": (random_ket(d, rng), random_ket(d, rng)) for n in range(3)}
        with pytest.raises(SupportError, match=f"^{re.escape(LEAK_MESSAGE)}$"):
            verify_alpha_constraint(alphas, preps, filters, rho0, rho1)
    alphas, preps, filters, rho0, rho1 = _supported_inputs(d, d, rng)
    alphas = _contraction_scaled(1.5, alphas, preps, filters, rho0, rho1)
    with pytest.raises(ContractionError,
                       match=r"^contraction violated: slack 1\.250e\+00 > tol 1\.0e-08$"):
        verify_alpha_constraint(alphas, preps, filters, rho0, rho1)
