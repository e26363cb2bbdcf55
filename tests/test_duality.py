import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_ket, random_preparation, random_unitary
from reference_kernels import brute_force_visibility, eigh_fidelity, mixed_state, mp_d_and_vg
from whichway import (
    DimensionError,
    NonFiniteError,
    NumericalError,
    PathChannel,
    PositivityError,
    Preparation,
    distinguishability,
    environment_states,
    explicit_transpose_dilation,
    generalized_visibility,
    identity_channel,
    ket,
    pauli_mixture_channel,
    random_path_channel,
    replace_channel,
    transpose_channel,
    verify_inequality,
    visibility_operator,
)
from whichway.duality import DIRECT_EXCESS

H, V = ket(0, 2), ket(1, 2)


def _env_projector(indices, dim=4):
    m = np.zeros((dim, dim), dtype=complex)
    for i in indices:
        m[i, i] = 0.5
    return m


def test_environment_states_horizontal_preparation():
    ch = explicit_transpose_dilation()
    e0, e1 = environment_states(ch, Preparation.pure(H, H))
    np.testing.assert_allclose(e0, _env_projector([0, 1]), atol=1e-10)
    np.testing.assert_allclose(e1, _env_projector([0, 2]), atol=1e-10)


def test_environment_states_vertical_preparation():
    ch = explicit_transpose_dilation()
    e0, e1 = environment_states(ch, Preparation.pure(V, V))
    np.testing.assert_allclose(e0, _env_projector([2, 3]), atol=1e-10)
    np.testing.assert_allclose(e1, _env_projector([1, 3]), atol=1e-10)


def test_environment_states_mixed_preparation_coincide():
    ch = explicit_transpose_dilation()
    e0, e1 = environment_states(ch, Preparation.completely_mixed(2))
    np.testing.assert_allclose(e0, np.eye(4) / 4, atol=1e-10)
    np.testing.assert_allclose(e1, np.eye(4) / 4, atol=1e-10)


def test_environment_states_via_replica_contraction():
    # independent route: d * Tr_{SS'} of the purified cross projector
    # weighted by the transposed arm state
    rng = np.random.default_rng(9)
    ch = random_path_channel(2, 3, seed=51)
    prep = random_preparation(2, rng)
    d, k = 2, ch.n_kraus
    phi = np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)
    for side in (0, 1):
        rho = mixed_state(prep, side)
        vecs = []
        for a, b in ch.kraus:
            op = b if side else a
            vecs.append(np.kron(np.eye(d), op) @ phi)
        lam = np.zeros((d * d * k,), dtype=complex)
        for n, v in enumerate(vecs):
            lam += np.kron(v, ket(n, k))
        proj = np.outer(lam, lam.conj())
        weight = np.kron(rho.T, np.eye(d * k))
        contracted = proj @ weight
        t = contracted.reshape(d, d, k, d, d, k)
        env = d * np.einsum("abnabm->nm", t)
        direct = environment_states(ch, prep)[side]
        np.testing.assert_allclose(env, direct, atol=1e-10)


def test_distinguishability_trivial_cases():
    rho = np.eye(4) / 4
    assert distinguishability(rho, rho) == 0.0
    p0 = np.outer(ket(0, 2), ket(0, 2).conj())
    p1 = np.outer(ket(1, 2), ket(1, 2).conj())
    assert distinguishability(p0, p1) == pytest.approx(1.0, abs=1e-12)
    assert distinguishability(_env_projector([0, 1]), _env_projector([0, 2])) == (
        pytest.approx(0.5, abs=1e-12)
    )
    with pytest.raises(DimensionError):
        distinguishability(np.eye(2) / 2, np.eye(3) / 3)


def test_distinguishability_rejects_non_hermitian_states():
    skew = np.array([[0.5, 0.1], [0.0, 0.5]])
    with pytest.raises(PositivityError):
        distinguishability(skew, np.eye(2) / 2)


def test_distinguishability_refuses_inputs_that_are_not_states():
    with pytest.raises(PositivityError, match="e0 trace differs from one"):
        distinguishability(2 * np.eye(2), np.zeros((2, 2)))
    with pytest.raises(PositivityError, match="e1 trace differs from one"):
        distinguishability(np.eye(2) / 2, np.zeros((2, 2)))
    nan = np.full((2, 2), np.nan)
    with pytest.raises(NonFiniteError):
        distinguishability(nan, np.eye(2) / 2)
    with pytest.raises(NonFiniteError):
        distinguishability(np.eye(2) / 2, nan)


def test_visibility_identity_channel_is_one():
    rng = np.random.default_rng(10)
    for d in (2, 3):
        prep = random_preparation(d, rng)
        assert generalized_visibility(identity_channel(d), prep) == pytest.approx(
            1.0, abs=1e-9
        )


def test_visibility_replace_channel_is_fidelity():
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = int(rng.integers(2, 4))
        prep = random_preparation(d, rng)
        ch = replace_channel(random_density(d, rng))
        assert generalized_visibility(ch, prep) == pytest.approx(
            eigh_fidelity(mixed_state(prep, 0), mixed_state(prep, 1)), abs=1e-9
        )


def test_visibility_replace_orthogonal_pure_is_zero():
    ch = replace_channel(np.eye(2) / 2)
    prep = Preparation.pure(H, V)
    assert generalized_visibility(ch, prep) == pytest.approx(0.0, abs=1e-12)


def test_visibility_transpose_channel_closed_forms():
    ch = transpose_channel(2)
    rng = np.random.default_rng(12)
    prep = Preparation.pure(random_ket(2, rng), random_ket(2, rng))
    assert generalized_visibility(ch, prep) == pytest.approx(0.5, abs=1e-9)
    assert generalized_visibility(ch, Preparation.completely_mixed(2)) == (
        pytest.approx(1.0, abs=1e-9)
    )
    # general d: (1/d) ||sqrt(rho0)||_1 ||sqrt(rho1)||_1
    def root_eigenvalue_sum(rho):
        w = np.linalg.eigvalsh(rho)
        return np.sqrt(w[w > 1e-12]).sum()

    ch3 = transpose_channel(3)
    prep3 = random_preparation(3, rng)
    rho0, rho1 = mixed_state(prep3, 0), mixed_state(prep3, 1)
    expected = root_eigenvalue_sum(rho0) * root_eigenvalue_sum(rho1) / 3
    assert generalized_visibility(ch3, prep3) == pytest.approx(expected, abs=1e-9)


def test_brute_force_matches_closed_forms():
    prep = Preparation.pure(H, H)
    res = brute_force_visibility(identity_channel(2), prep, seed=1)
    assert res.converged and res.value == pytest.approx(1.0, abs=1e-6)
    res = brute_force_visibility(transpose_channel(2), prep, seed=2)
    assert res.converged and res.value == pytest.approx(0.5, abs=1e-6)


def test_brute_force_matches_closed_form_on_random_channel():
    rng = np.random.default_rng(13)
    ch = random_path_channel(2, 3, seed=77)
    prep = random_preparation(2, rng)
    closed = generalized_visibility(ch, prep)
    res = brute_force_visibility(ch, prep, seed=3)
    assert res.converged
    assert res.value == pytest.approx(closed, abs=1e-6)
    assert res.value <= closed + 1e-6


def test_brute_force_rejects_large_dimensions():
    ch = identity_channel(5)
    prep = Preparation.completely_mixed(5)
    with pytest.raises(DimensionError):
        brute_force_visibility(ch, prep)


def test_brute_force_handles_rank_deficient_preparations():
    # orthogonal pure states under the replace channel: visibility exactly 0
    ch = replace_channel(np.eye(2) / 2)
    res = brute_force_visibility(ch, Preparation.pure(H, V), seed=4)
    assert res.value == pytest.approx(0.0, abs=1e-6)


def test_distinguishability_independent_of_kraus_representation():
    rng = np.random.default_rng(14)
    ch = random_path_channel(2, 3, seed=99)
    prep = random_preparation(2, rng)
    ref = distinguishability(*environment_states(ch, prep))
    for trial in range(5):
        w = random_unitary(3, rng)
        pairs = []
        for j in range(3):
            a = sum(w[j, k] * ch.kraus[k, 0] for k in range(3))
            b = sum(w[j, k] * ch.kraus[k, 1] for k in range(3))
            pairs.append((a, b))
        mixed = PathChannel(pairs)
        val = distinguishability(*environment_states(mixed, prep))
        assert val == pytest.approx(ref, abs=1e-9)


def test_verify_inequality_worked_cases():
    rep = verify_inequality(identity_channel(2), Preparation.pure(H, V))
    assert rep.distinguishability == pytest.approx(0.0, abs=1e-9)
    assert rep.visibility == pytest.approx(1.0, abs=1e-9)
    assert rep.slack == pytest.approx(0.0, abs=1e-9)

    ch = explicit_transpose_dilation()
    rep = verify_inequality(ch, Preparation.pure(H, H))
    assert rep.distinguishability == pytest.approx(0.5, abs=1e-9)
    assert rep.visibility == pytest.approx(0.5, abs=1e-9)
    assert rep.slack == pytest.approx(0.5, abs=1e-9)

    rep = verify_inequality(replace_channel(np.eye(2) / 2), Preparation.pure(H, V))
    assert rep.distinguishability == pytest.approx(1.0, abs=1e-9)
    assert rep.visibility == pytest.approx(0.0, abs=1e-9)
    assert rep.slack == pytest.approx(0.0, abs=1e-9)


def test_spinless_limit_saturates_the_trade_off():
    # d = 1: channels act on scalars; the trade-off is tight for every channel
    rng = np.random.default_rng(15)
    prep = Preparation.pure(np.array([1.0]), np.array([1.0]))
    for _ in range(20):
        ch = random_path_channel(1, int(rng.integers(1, 5)), seed=int(rng.integers(1e6)))
        rep = verify_inequality(ch, prep)
        assert rep.slack == pytest.approx(0.0, abs=1e-9)


def test_quantities_stay_in_unit_interval():
    rng = np.random.default_rng(16)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        ch = random_path_channel(d, int(rng.integers(1, 4)), seed=int(rng.integers(1e6)))
        prep = random_preparation(d, rng)
        rep = verify_inequality(ch, prep)
        assert 0.0 <= rep.distinguishability <= 1.0
        assert 0.0 <= rep.visibility <= 1.0


def test_visibility_routes_agree_on_random_inputs():
    from reference_kernels import visibility_state_route
    from whichway.duality import visibility_operator
    from whichway.linalg import trace_norm

    rng = np.random.default_rng(17)
    for _ in range(25):
        d = int(rng.integers(2, 4))
        ch = random_path_channel(d, int(rng.integers(1, 4)), seed=int(rng.integers(1e6)))
        prep = random_preparation(d, rng)
        sandwich = d * trace_norm(visibility_operator(ch, prep))
        state = visibility_state_route(ch, prep)
        assert sandwich == pytest.approx(state, abs=1e-9)


def test_visibility_is_preparation_marginal_property():
    # only rho0, rho1 matter, not the ensemble realization
    ch = pauli_mixture_channel()
    four = Preparation.ensemble(
        [0.25] * 4, [(H, H), (H, V), (V, H), (V, V)]
    )
    two = Preparation.completely_mixed(2)
    assert generalized_visibility(ch, four) == pytest.approx(
        generalized_visibility(ch, two), abs=1e-12
    )


def test_dilation_dimension_mismatch_raises():
    ch = explicit_transpose_dilation()
    with pytest.raises(DimensionError):
        environment_states(ch, Preparation.pure(np.array([1.0]), np.array([1.0])))


@pytest.mark.parametrize("kind", ["H", "V", "mixed", "random"])
def test_explicit_dilation_environment_is_the_transpose_channels_relabelled(kind):
    rng = np.random.default_rng(18)
    prep = {
        "H": Preparation.pure(H, H),
        "V": Preparation.pure(V, V),
        "mixed": Preparation.completely_mixed(2),
        "random": random_preparation(2, rng),
    }[kind]
    tags = [0, 2, 1, 3]  # environment kets e2 and e3 swap places
    for explicit, canonical in zip(environment_states(explicit_transpose_dilation(), prep),
                                   environment_states(transpose_channel(2), prep)):
        np.testing.assert_allclose(explicit, canonical[np.ix_(tags, tags)],
                                   rtol=0, atol=1e-15)


def test_thread_safe_parallel_evaluation():
    # all operations are pure functions on immutable values; a parallel map
    # over a channel corpus must reproduce the serial results exactly
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(99)
    corpus = []
    for _ in range(24):
        d = int(rng.integers(2, 4))
        ch = random_path_channel(d, int(rng.integers(1, 4)), seed=int(rng.integers(1e6)))
        corpus.append((ch, random_preparation(d, rng)))
    serial = [verify_inequality(ch, prep) for ch, prep in corpus]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda args: verify_inequality(*args), corpus))
    for a, b in zip(serial, parallel):
        assert a.distinguishability == b.distinguishability
        assert a.visibility == b.visibility


def test_duality_report_rejects_violations():
    from whichway import DualityReport

    with pytest.raises(NumericalError):
        DualityReport(distinguishability=0.9, visibility=0.9,
                      channel_id="x", preparation_id="y")


def test_environment_trace_beyond_1e10_is_a_positivity_error():
    # trace preservation off by 5e-10 is refused when the channel is built,
    # before any environment state could leave unit trace by more than 1e-10
    a = np.sqrt(1.0 + 5e-10) * np.eye(2)
    with pytest.raises(PositivityError, match="not trace preserving within 1e-10"):
        PathChannel(((a, a),))


def _near_trace_preserving(d, err):
    """Kraus pair (A, A) with A^dag A = 1 + err * J/d, J the all-ones matrix:
    entrywise off by err/d, in operator norm by err along the uniform ket."""
    proj = np.full((d, d), 1.0 / d)
    a = np.eye(d) + (np.sqrt(1.0 + err) - 1.0) * proj
    return ((a, a),)


@pytest.mark.parametrize("err", [0.99e-10, 5e-10])
@pytest.mark.parametrize("d", [1, 2, 4, 8])
def test_trace_tolerances_agree(d, err):
    # a channel within 1e-10 of trace preserving and an ensemble whose
    # weights sum to 1 within 1e-10 always give unit-trace environment
    # states; a channel outside is refused when it is built
    if err > 1e-10:
        with pytest.raises(PositivityError, match="not trace preserving"):
            PathChannel(_near_trace_preserving(d, err))
        return
    ch = PathChannel(_near_trace_preserving(d, err))
    uniform = np.full(d, 1.0 / np.sqrt(d))
    prep = Preparation.ensemble([0.5 + 0.245e-10, 0.5 + 0.245e-10],
                                [(uniform, uniform), (uniform, uniform)])
    rep = verify_inequality(ch, prep)
    assert rep.visibility == pytest.approx(1.0, abs=1e-9)
    assert rep.distinguishability == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("arms", [(0,), (1,), (0, 1)])
def test_environment_trace_check_still_fires(monkeypatch, arms):
    # both traces are read in one pass, and either one off by 2e-6 is refused
    import whichway.duality as duality

    factors = duality._factors
    scale = np.ones((2, 1, 1))
    scale[list(arms)] = 1 + 1e-6
    monkeypatch.setattr(duality, "_factors", lambda ch, prep: factors(ch, prep) * scale)
    for compute in (verify_inequality, environment_states):
        with pytest.raises(PositivityError, match="trace differs from one"):
            compute(transpose_channel(2), Preparation.pure(H, H))


@pytest.mark.parametrize("compute, args, message", [
    (verify_inequality, lambda: (identity_channel(2), (H, H)),
     "preparation prep of type tuple is not a Preparation"),
    (generalized_visibility, lambda: (pauli_mixture_channel(), 5),
     "preparation prep of type int is not a Preparation"),
    (environment_states, lambda: ("x", Preparation.pure(H, H)),
     "channel ch of type str is not a PathChannel"),
    (visibility_operator, lambda: (pauli_mixture_channel(), [H, H]),
     "preparation prep of type list is not a Preparation"),
])
def test_entry_points_refuse_another_type_of_channel_or_preparation(compute, args, message):
    # each raised a bare AttributeError ('tuple' object has no attribute
    # 'spin_dim') before the types were checked with the spin dimensions
    with pytest.raises(DimensionError) as info:
        compute(*args())
    assert str(info.value) == message


def _unitary_mixture(p, q, d, rng):
    """Kraus pairs (sqrt(p_k) U_k, sqrt(q_k) U_k) with random unitaries
    U_k: for one pure state on both arms the environment states differ only
    through the weights p and q."""
    us = [random_unitary(d, rng) for _ in p]
    return PathChannel([(np.sqrt(a) * u, np.sqrt(b) * u) for a, b, u in zip(p, q, us)])


def _oracle_cases():
    rng = np.random.default_rng(2026)

    def kets(d, n):
        return [(random_ket(d, rng), random_ket(d, rng)) for _ in range(n)]

    d4, d8, psi = kets(4, 3), kets(8, 2), random_ket(3, rng)
    # name: (channel, weights, pairs, QR route, (low, high) of D or V_G or None)
    return {
        "direct, d*n - K = 10": (random_path_channel(4, 2, 11), (0.2, 0.3, 0.5), d4, False, None),
        "qr, d*n - K = 11": (random_path_channel(13, 2, 11), (1.0,), kets(13, 1), True, None),
        "qr, d*n - K = 12": (random_path_channel(8, 4, 16), (0.6, 0.4), d8, True, None),
        "direct, d*n <= K": (random_path_channel(2, 4, 12), (1.0,), kets(2, 1), False, None),
        "qr, d*n = 16, K = 2": (random_path_channel(8, 2, 13), (0.6, 0.4), d8, True, None),
        "D near 1e-6": (_unitary_mixture((0.5 + 1e-6, 0.5 - 1e-6), (0.5, 0.5), 3, rng),
                        (1.0,), [(psi, psi)], False, ("D", 0.9e-6, 1.1e-6)),
        "V_G near 1e-6": (_unitary_mixture((1 - 2.5e-13, 2.5e-13), (2.5e-13, 1 - 2.5e-13), 3,
                                           rng), (1.0,), [(psi, psi)], False,
                          ("V_G", 0.9e-6, 1.1e-6)),
        "weight 1e-12, direct": (random_path_channel(3, 2, 14), (1 - 1e-12, 1e-12), kets(3, 2),
                                 False, None),
        "weight 1e-12, qr": (random_path_channel(5, 2, 15), (0.5, 0.5 - 1e-12, 1e-12),
                             kets(5, 3), True, None),
    }


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_d_and_vg_match_a_40_digit_oracle(name):
    # D and V_G on both sides of the route crossover and on hard families
    # against mpmath at 40 digits, which shares no floating-point step with
    # either route. Over 300 random cases (d <= 6, K <= 8, n <= 3) and these
    # the largest error was 6.7e-16; the tolerance 1e-14 leaves a margin of 15.
    ch, weights, pairs, qr, regime = ORACLE_CASES[name]
    assert (ch.spin_dim * len(weights) - ch.n_kraus > DIRECT_EXCESS) == qr
    report = verify_inequality(ch, Preparation.ensemble(weights, pairs))
    d_want, v_want = mp_d_and_vg(ch.kraus, weights, pairs)
    if regime is not None:
        what, low, high = regime
        assert low < {"D": d_want, "V_G": v_want}[what] < high
    assert abs(report.distinguishability - d_want) <= 1e-14
    assert abs(report.visibility - v_want) <= 1e-14


def test_verify_at_the_kraus_cap_eigendecomposes_no_environment_state(monkeypatch):
    # V_G comes from the K x d*n factors, so no eigh runs, and the singular
    # values of the d*n x d*n matrix X_0^dag X_1 are taken while
    # d*n <= K + 10; beyond, one batched QR shrinks it to K x K first. At
    # d=2, K=256 and at d*n = 6 > K = 1 the matrix is taken as it is; at
    # d*n = 16 > K + 10 = 12 and at d=16, K=1 the QR runs. D takes one K x K
    # eigensolve of e0 - e1. Both spectra come from the linalg binding, so
    # the public wrappers see no call.
    import whichway.duality as duality

    rng = np.random.default_rng(7)
    three = Preparation.ensemble((0.2, 0.3, 0.5), [(random_ket(2, rng), random_ket(2, rng))
                                                   for _ in range(3)])
    two = Preparation.ensemble((0.4, 0.6), [(random_ket(8, rng), random_ket(8, rng))
                                            for _ in range(2)])
    # (channel, preparation, QR calls, side of the one SVD operand)
    cases = (
        (random_path_channel(2, 256, seed=7), Preparation.pure(H, V), 0, 2),
        (random_path_channel(2, 256, seed=7), Preparation.completely_mixed(2), 0, 4),
        (random_path_channel(2, 1, 7), three, 0, 6),
        (random_path_channel(8, 2, 7), two, 1, 2),
        (random_path_channel(16, 1, seed=7), Preparation.completely_mixed(16), 1, 1),
    )
    assert DIRECT_EXCESS == 10
    calls = []
    for name in ("eigh", "eigvalsh", "svd", "qr"):
        f = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, name=name, f=f, **k: calls.append(name) or f(*a, **k))
    for name, what in (("_eigvalsh", "eigvalsh"), ("_singular_values", "svd")):
        f = getattr(duality, name)
        monkeypatch.setattr(duality, name, lambda a, what=what, f=f: calls.append((what, a.shape))
                            or f(a))
    for ch, prep, n_qr, side in cases:
        calls.clear()
        verify_inequality(ch, prep)
        k = ch.n_kraus
        assert calls.count("qr") == n_qr
        assert [c for c in calls if c != "qr"] == [("eigvalsh", (k, k)), ("svd", (side, side))]


def test_environment_states_at_the_kraus_cap_are_unchecked_read_only_gram_matrices(monkeypatch):
    # e_i = X_i X_i^dag is Hermitian and PSD by construction and its trace is
    # checked where it is built, so no K x K eigendecomposition runs, and the
    # states are that product itself, not a re-validated copy
    import whichway.duality as duality
    import whichway.linalg as linalg

    ch, prep = random_path_channel(2, 256, seed=7), Preparation.pure(H, V)
    x = duality._factors(ch, prep)
    gram = x @ x.conj().swapaxes(1, 2)
    calls = []
    for module, names in ((np.linalg, ("eigh", "eigvalsh", "svd")),
                          (duality, ("_eigvalsh", "_singular_values")),
                          (linalg, ("_eigvalsh", "_singular_values"))):
        for name in names:
            f = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, name=name, f=f, **k: calls.append(name) or f(*a, **k))
    states = environment_states(ch, prep)
    assert calls == []
    assert len(states) == 2
    for state, expected in zip(states, gram):
        assert type(state) is np.ndarray and state.shape == (256, 256)
        assert not state.flags.writeable
        np.testing.assert_array_equal(state, expected)


@pytest.mark.parametrize("spectrum, what", [("_eigvalsh", "distinguishability"),
                                            ("_singular_values", "generalized visibility")])
def test_a_spectrum_that_did_not_converge_is_a_numerical_error(monkeypatch, spectrum, what):
    # the LAPACK binding returns NaN where the solver does not converge; NaN
    # trips neither the V_G <= 1 check nor the Fuchs-van de Graaf floor, so
    # a non-finite D or V_G must be refused on its own, at every entry point
    import whichway.duality as duality

    monkeypatch.setattr(duality, spectrum, lambda a: np.full(a.shape[-1], np.nan))
    ch = random_path_channel(2, 3, seed=1)
    for prep in (Preparation.pure(H, V), Preparation.completely_mixed(2)):
        for compute in (verify_inequality, generalized_visibility):
            with pytest.raises(NumericalError, match=f"^{what} nan is not finite$"):
                compute(ch, prep)
    if spectrum == "_eigvalsh":
        e0, e1 = environment_states(ch, Preparation.pure(H, V))
        with pytest.raises(NumericalError, match="^distinguishability nan is not finite$"):
            distinguishability(e0, e1)


def test_fuchs_van_de_graaf_floor_violation_is_numerical(monkeypatch):
    # D forced to 0 under the transpose channel, where V_G = 0.5: the check
    # D >= 1 - V_G - 1e-9 must catch the wrong D in every entry point
    import whichway.duality as duality

    monkeypatch.setattr(duality, "_trace_distance", lambda m0, m1: 0.0)
    prep = Preparation.pure(H, H)
    for compute in (verify_inequality, generalized_visibility):
        with pytest.raises(NumericalError, match="Fuchs-van de Graaf"):
            compute(transpose_channel(2), prep)
    # D = 0 is right where V_G = 1, so the floor does not fire there
    assert verify_inequality(identity_channel(2), prep).slack == pytest.approx(0.0, abs=1e-9)


def _preparation_of_kind(kind, d, rng):
    if kind == "pure":
        return Preparation.pure(random_ket(d, rng), random_ket(d, rng))
    if kind == "mixed":
        return Preparation.completely_mixed(d)
    m = int(rng.integers(2, 4))
    pairs = [(random_ket(d, rng), random_ket(d, rng)) for _ in range(m)]
    return Preparation.ensemble(rng.dirichlet(np.ones(m)), pairs)


@settings(max_examples=80, deadline=None)
@given(  # K from 1 to 16, d*n from 1 to 64: both K < d*n and K > 2*d*n occur
    d=st.integers(1, 8),
    k=st.integers(1, 16),
    kind=st.sampled_from(("pure", "ensemble", "mixed")),
    seed=st.integers(0, 2**32 - 1),
)
def test_fuchs_van_de_graaf_bounds_hold(d, k, kind, seed):
    rng = np.random.default_rng(seed)
    rep = verify_inequality(random_path_channel(d, k, seed=seed),
                            _preparation_of_kind(kind, d, rng))
    dist, vis = rep.distinguishability, rep.visibility
    assert 1.0 - vis - 1e-9 <= dist <= np.sqrt(1.0 - vis**2) + 1e-9
