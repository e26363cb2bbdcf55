import copy
import dataclasses
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    measured_records,
    random_density,
    random_ket,
    random_preparation,
    random_unitary,
)
from reference_kernels import (
    PathSpinState,
    apply_channel,
    apply_via_choi,
    choi_state,
    max_entangled_state,
    mixed_state,
)
from whichway import (
    DimensionError,
    InputFormatError,
    NonFiniteError,
    PathChannel,
    PositivityError,
    Preparation,
    block_choi,
    block_map,
    dilate,
    environment_states,
    explicit_transpose_dilation,
    identity_channel,
    ket,
    pauli_mixture_channel,
    pauli_noise_program,
    random_path_channel,
    replace_channel,
    swap_certificate,
    transpose_channel,
    verify_noise_program,
)
from whichway.bounds import FilterPair
from whichway.channels import (
    dumps_channel,
    load_channel,
    loads_channel,
    pure_pair,
    save_channel,
)
from whichway.interferometer import FringeDataset

ALL_BUILDERS = [
    identity_channel(2),
    identity_channel(3),
    transpose_channel(2),
    transpose_channel(3),
    pauli_mixture_channel(),
    replace_channel(np.eye(2) / 2),
    random_path_channel(2, 3, seed=11),
    random_path_channel(3, 2, seed=12),
    explicit_transpose_dilation(),
]


@pytest.mark.parametrize("ch", ALL_BUILDERS, ids=lambda c: c.label)
def test_builders_trace_preserving(ch):
    d = ch.spin_dim
    for side in (0, 1):
        acc = sum(p[side].conj().T @ p[side] for p in ch.kraus)
        np.testing.assert_allclose(acc, np.eye(d), atol=1e-9)


def test_trace_preservation_enforced():
    with pytest.raises(PositivityError):
        PathChannel(((np.eye(2) * 0.5, np.eye(2)),))


def test_apply_identity_channel_is_noop():
    rng = np.random.default_rng(0)
    prep = random_preparation(2, rng)
    state = PathSpinState.from_preparation(prep)
    out = apply_channel(identity_channel(2), state)
    np.testing.assert_allclose(out.as_matrix(), state.as_matrix(), atol=1e-12)


def test_pauli_mixture_scrambles_each_arm():
    ch = pauli_mixture_channel()
    psi = random_ket(2, np.random.default_rng(1))
    proj = np.outer(psi, psi.conj())
    np.testing.assert_allclose(block_map(ch, 0, 0, proj), np.eye(2) / 2, atol=1e-12)
    np.testing.assert_allclose(block_map(ch, 1, 1, proj), np.eye(2) / 2, atol=1e-12)


def test_pauli_mixture_cross_block_is_half_transpose():
    ch = pauli_mixture_channel()
    rng = np.random.default_rng(2)
    sigma = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    np.testing.assert_allclose(block_map(ch, 0, 1, sigma), sigma.T / 2, atol=1e-12)


def test_block_map_identity_and_replace():
    rng = np.random.default_rng(3)
    sigma = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    np.testing.assert_allclose(
        block_map(identity_channel(2), 0, 1, sigma), sigma, atol=1e-12
    )
    sigma0 = random_density(2, rng)
    ch = replace_channel(sigma0)
    np.testing.assert_allclose(
        block_map(ch, 0, 1, sigma), sigma0 * np.trace(sigma), atol=1e-12
    )


@pytest.mark.parametrize("d", [2, 3])
def test_transpose_channel_cross_block(d):
    rng = np.random.default_rng(4)
    sigma = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    ch = transpose_channel(d)
    np.testing.assert_allclose(block_map(ch, 0, 1, sigma), sigma.T / d, atol=1e-12)
    np.testing.assert_allclose(
        block_map(ch, 0, 0, sigma), np.trace(sigma) * np.eye(d) / d, atol=1e-12
    )


def test_transpose_matches_pauli_mixture_as_superoperator():
    a = transpose_channel(2)
    b = pauli_mixture_channel()
    for i in (0, 1):
        for j in (0, 1):
            np.testing.assert_allclose(
                block_choi(a, i, j), block_choi(b, i, j), atol=1e-12
            )


def test_replace_channel_rejects_bad_sigma0():
    with pytest.raises(PositivityError):
        replace_channel(np.diag([1.5, -0.5]))  # not PSD
    with pytest.raises(PositivityError):
        replace_channel(np.eye(2))  # trace 2


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    d=st.integers(min_value=1, max_value=3),
    n_kraus=st.integers(min_value=1, max_value=4),
)
def test_apply_preserves_state_invariants(seed, d, n_kraus):
    rng = np.random.default_rng(seed)
    ch = random_path_channel(d, n_kraus, seed=seed)
    state = PathSpinState.from_preparation(random_preparation(d, rng))
    out = apply_channel(ch, state)  # constructor re-validates invariants
    m = out.as_matrix()
    assert abs(np.trace(m).real - 1.0) < 1e-9
    assert np.linalg.eigvalsh((m + m.conj().T) / 2).min() > -1e-9


def test_choi_identity_channel_is_entangled_projector():
    ch = identity_channel(2)
    lam = choi_state(ch)
    d = 4  # joint path-spin dimension
    phi = np.zeros(d * d, dtype=complex)
    for m in range(d):
        phi[m * d + m] = 1.0
    phi /= 2.0
    np.testing.assert_allclose(lam, np.outer(phi, phi.conj()), atol=1e-12)


@pytest.mark.parametrize("ch", ALL_BUILDERS, ids=lambda c: c.label)
def test_choi_state_is_normalized_and_psd(ch):
    lam = choi_state(ch)
    assert abs(np.trace(lam).real - 1.0) < 1e-9
    w = np.linalg.eigvalsh((lam + lam.conj().T) / 2)
    assert w.min() > -1e-9


def test_choi_cross_block_matches_block_choi():
    ch = pauli_mixture_channel()
    d = ch.spin_dim
    lam = choi_state(ch)
    # operator <00|_QQ' Choi |11>_QQ' on the two spin replicas, times 2
    t = lam.reshape(2, d, 2, d, 2, d, 2, d)
    cross = 2 * t[0, :, 0, :, 1, :, 1, :].reshape(d * d, d * d)
    np.testing.assert_allclose(cross, block_choi(ch, 0, 1), atol=1e-12)


@pytest.mark.parametrize("ch", ALL_BUILDERS, ids=lambda c: c.label)
def test_apply_via_choi_agrees_with_apply(ch):
    rng = np.random.default_rng(6)
    state = PathSpinState.from_preparation(random_preparation(ch.spin_dim, rng))
    direct = apply_channel(ch, state)
    via = apply_via_choi(ch, state)
    np.testing.assert_allclose(via.as_matrix(), direct.as_matrix(), atol=1e-9)


def test_dilate_identity_channel():
    v = dilate(identity_channel(3))
    assert v.shape == (2, 3, 3)  # one environment ket
    np.testing.assert_allclose(v[0], np.eye(3), atol=1e-12)


@pytest.mark.parametrize("ch", ALL_BUILDERS, ids=lambda c: c.label)
def test_dilate_round_trips_block_maps(ch):
    d, k = ch.spin_dim, ch.n_kraus
    v = dilate(ch)
    assert v.shape == (2, d * k, d)
    # Kraus pair n read back off environment ket n
    a, b = v.reshape(2, d, k, d)
    back = PathChannel([(a[:, n], b[:, n]) for n in range(k)])
    for i in (0, 1):
        for j in (0, 1):
            np.testing.assert_allclose(
                block_choi(back, i, j), block_choi(ch, i, j), atol=1e-9
            )


@pytest.mark.parametrize(
    "ch",
    ALL_BUILDERS + [random_path_channel(d, k, seed=40 + 10 * d + k)
                    for d in (1, 2, 4, 8) for k in (1, 3, 16)],
    ids=lambda c: c.label,
)
def test_dilate_is_a_read_only_isometry(ch):
    v = dilate(ch)
    with pytest.raises(ValueError):
        v[0, 0, 0] = 0.0
    for side in (0, 1):
        np.testing.assert_allclose(v[side].conj().T @ v[side], np.eye(ch.spin_dim),
                                   rtol=0, atol=1e-10)


def test_explicit_transpose_dilation_is_the_transpose_channel_with_tags_2_and_3_swapped():
    ch, ref = explicit_transpose_dilation(), transpose_channel(2)
    np.testing.assert_array_equal(ch.kraus, ref.kraus[[0, 2, 1, 3]])


def test_explicit_transpose_dilation_blocks():
    ch = explicit_transpose_dilation()
    ref = transpose_channel(2)
    for i in (0, 1):
        for j in (0, 1):
            np.testing.assert_allclose(
                block_choi(ch, i, j), block_choi(ref, i, j), atol=1e-12
            )
    # arm contents completely scrambled
    rng = np.random.default_rng(7)
    sigma = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    for i in (0, 1):
        np.testing.assert_allclose(
            block_map(ch, i, i, sigma), np.trace(sigma) * np.eye(2) / 2, atol=1e-12
        )


@pytest.mark.parametrize("seed", [-1, 2.5, True, "7"])
def test_random_channel_refuses_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(DimensionError, match="seed must be >= 0 and an integer, got "):
        random_path_channel(2, 2, seed)


@pytest.mark.parametrize("d, n_kraus", [
    (2, 2.5), (2, True), (2, 0), (2, "2"), (2.0, 1), (False, 1), (-1, 1), (0, 1),
])
def test_random_channel_refuses_a_size_that_is_not_a_positive_integer(d, n_kraus):
    with pytest.raises(DimensionError, match="(d|n_kraus) must be >= 1"):
        random_path_channel(d, n_kraus, 0)


def test_random_channel_deterministic_under_seed():
    a = random_path_channel(2, 3, seed=7)
    b = random_path_channel(2, 3, seed=7)
    np.testing.assert_array_equal(a.kraus, b.kraus)
    c = random_path_channel(2, 3, seed=8)
    assert any(
        np.max(np.abs(p[0] - q[0])) > 1e-6 for p, q in zip(a.kraus, c.kraus)
    )
    assert "rng" in a.metadata


def _trace_preservation_error(ch):
    """Operator-norm distance of sum A^dag A and sum B^dag B from the identity."""
    gram = np.einsum("ksji,ksjl->sil", ch.kraus.conj(), ch.kraus)
    return np.abs(np.linalg.eigvalsh(gram - np.eye(ch.spin_dim))).max()


def test_random_channel_from_ill_conditioned_draw_is_built():
    # this seed's B-side Ginibre draw is ill-conditioned; normalising it by
    # (sum G^dag G)^(-1/2) lost trace preservation beyond 1e-10
    assert _trace_preservation_error(random_path_channel(3, 1, seed=1169870864)) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=8),
    n_kraus=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_channel_is_trace_preserving(d, n_kraus, seed):
    assert _trace_preservation_error(random_path_channel(d, n_kraus, seed=seed)) <= 1e-10


def test_kraus_mixing_leaves_block_maps_invariant():
    rng = np.random.default_rng(8)
    ch = random_path_channel(2, 3, seed=21)
    w = random_unitary(3, rng)
    mixed_pairs = []
    for j in range(3):
        a = sum(w[j, k] * ch.kraus[k, 0] for k in range(3))
        b = sum(w[j, k] * ch.kraus[k, 1] for k in range(3))
        mixed_pairs.append((a, b))
    mixed = PathChannel(mixed_pairs)
    for i in (0, 1):
        for j in (0, 1):
            np.testing.assert_allclose(
                block_choi(mixed, i, j), block_choi(ch, i, j), atol=1e-9
            )


def test_path_spin_state_from_preparation():
    prep = Preparation.pure(ket(0, 2), ket(1, 2))
    state = PathSpinState.from_preparation(prep)
    assert abs(np.trace(state.blocks[0, 0]).real - 0.5) < 1e-12
    np.testing.assert_allclose(
        state.blocks[0, 1], 0.5 * np.outer(ket(0, 2), ket(1, 2).conj()), atol=1e-12
    )
    back = PathSpinState.from_matrix(state.as_matrix())
    np.testing.assert_allclose(back.as_matrix(), state.as_matrix(), atol=0)


def test_path_spin_state_rejects_unbalanced_paths():
    d = 2
    blocks = np.zeros((2, 2, d, d), dtype=complex)
    blocks[0, 0] = np.diag([0.7, 0.0])
    blocks[1, 1] = np.diag([0.3, 0.0])
    with pytest.raises(PositivityError):
        PathSpinState(d, blocks)


def test_validated_states_are_read_only_copies():
    e0, e1 = environment_states(explicit_transpose_dilation(), Preparation.completely_mixed(2))
    path = PathSpinState.from_preparation(Preparation.pure(ket(0, 2), ket(1, 2)))
    blocks = path.blocks.copy()
    chi, psi, counts = ket(0, 2), ket(0, 2), np.ones((4, 3), dtype=np.int64)
    filt = FilterPair(chi, ket(1, 2))
    prep = Preparation.pure(psi, ket(1, 2))
    ds = FringeDataset((0.0, 1.0, 2.0), counts, 10, (0,), (1.0,) * 4)
    for arr in (e0, e1, path.blocks, PathSpinState(2, blocks).blocks,
                filt.chi0, filt.chi1, *pure_pair(prep, 2), ds.counts):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 5
    # the caller's arrays stay free, and editing them leaves the checked copies alone
    assert all(a.flags.writeable for a in (blocks, chi, psi, counts))
    chi[0], psi[0], counts[0] = 5, 3, 99
    np.testing.assert_array_equal(filt.chi0, [1, 0])
    np.testing.assert_array_equal(pure_pair(prep, 2)[0], [1, 0])
    np.testing.assert_array_equal(prep.factors[0], [[1], [0]])
    assert ds.counts.max() == 1
    np.testing.assert_array_equal(e0, np.eye(4) / 4)


def test_empty_ensemble_is_a_dimension_error():
    with pytest.raises(DimensionError, match="non-empty"):
        Preparation.ensemble([], [])


@pytest.mark.parametrize("weights, pairs", [
    ([1.0], []),
    ([1.0], [(ket(0, 2), ket(0, 3))]),
    ([0.5, 0.5], [(ket(0, 2), ket(1, 2)), (ket(0, 3), ket(1, 3))]),
    ([1.0], 5),
    ([1.0], None),
    ([1.0], [("a", "b")]),
], ids=["no-pairs", "unequal-within-a-pair", "unequal-across-pairs", "pairs-not-a-sequence",
        "pairs-none", "string-kets"])
def test_ensemble_of_no_pairs_or_unequal_dimensions_is_a_dimension_error(weights, pairs):
    with pytest.raises(DimensionError):
        Preparation.ensemble(weights, pairs)


_EYE2, _EYE3 = np.eye(2, dtype=complex), np.eye(3, dtype=complex)


@pytest.mark.parametrize("kraus", [
    (),
    np.zeros((0, 2, 2, 2)),
    np.zeros((1, 2, 0, 0)),
    np.zeros((1, 2, 2, 3)),
    [(_EYE2, _EYE3)],
    np.array([_EYE2, _EYE2]),
    [(_EYE2, _EYE2), (_EYE3, _EYE3)],
    np.zeros((1, 3, 2, 2)),
], ids=["empty", "empty-stack", "zero-dim", "non-square", "unequal-blocks", "3d-array",
        "ragged-pairs", "three-sides"])
def test_malformed_kraus_stack_is_a_dimension_error(kraus):
    with pytest.raises(DimensionError):
        PathChannel(kraus)


def test_ensemble_pair_that_is_not_two_kets_is_a_dimension_error():
    h = ket(0, 2)
    for pairs, index in (([(h, h, h)], 0), ([(h, h), (h,)], 1), ([(h, h), 5], 1)):
        with pytest.raises(DimensionError, match=f"pure pair {index} is not two kets"):
            Preparation.ensemble([1.0 / len(pairs)] * len(pairs), pairs)
    with pytest.raises(DimensionError, match="pure pair 0 is not two kets"):
        pure_pair((h, h, h), 2)


def test_channel_stores_a_copy_of_its_metadata():
    metadata = {"a": 1}
    ch = PathChannel(identity_channel(2).kraus, metadata=metadata)
    metadata["b"] = 2
    assert ch.metadata == {"a": 1}
    assert "meta b" not in dumps_channel(ch)


def test_channel_metadata_is_read_only():
    ch = random_path_channel(2, 2, seed=1)
    with pytest.raises(TypeError):
        ch.metadata["seed"] = 2
    assert ch.metadata == {"rng": "numpy.random.default_rng (PCG64)", "seed": 1}


def test_a_copied_or_pickled_channel_is_rebuilt_read_only():
    # the pooled random channel has no unitary weights, the Pauli mixture four
    for ch in (random_path_channel(2, 2, seed=1), pauli_mixture_channel()):
        for twin in (pickle.loads(pickle.dumps(ch)), copy.deepcopy(ch), copy.copy(ch)):
            assert twin is not ch and (twin.label, twin.metadata) == (ch.label, ch.metadata)
            np.testing.assert_array_equal(twin.kraus, ch.kraus)
            assert not twin.kraus.flags.writeable
            with pytest.raises(TypeError):
                twin.metadata["seed"] = 2
            got, want = twin.unitary_weights, ch.unitary_weights
            assert (got is None) == (want is None) == (ch.label != "pauli_mixture")
            if want is not None:
                assert got is not want and not got.flags.writeable
                assert got.tobytes() == want.tobytes()


def test_the_pauli_mixture_channel_is_one_shared_read_only_channel():
    ch = pauli_mixture_channel()
    assert ch is pauli_mixture_channel()
    with pytest.raises(ValueError, match="read-only"):
        ch.kraus[0, 0, 0, 0] = 2
    with pytest.raises(ValueError, match="read-only"):
        ch.unitary_weights[0] = 1.0
    with pytest.raises(AttributeError):
        ch.unitary_weights = None
    with pytest.raises(TypeError):
        ch.metadata["label"] = "x"
    with pytest.raises(dataclasses.FrozenInstanceError):
        ch.label = "x"


def test_module_level_pauli_arrays_are_read_only():
    # one write to PAULI_X used to make every later pauli_mixture_channel()
    # raise PositivityError and the noise program ConventionError
    from whichway import channels, interferometer

    for m in (channels.PAULI_X, channels.PAULI_Y, channels.PAULI_Z,
              interferometer._PAULI["I"], interferometer._FRAME):
        with pytest.raises(ValueError, match="read-only"):
            m[0, 1] = 2
    assert len(verify_noise_program(pauli_noise_program())) == 4


@pytest.mark.parametrize("metadata", [None, [("a", 1)], "a"])
def test_channel_metadata_that_is_not_a_mapping_is_a_dimension_error(metadata):
    with pytest.raises(DimensionError, match="is not a mapping"):
        PathChannel(identity_channel(2).kraus, metadata=metadata)


def test_each_class_stores_one_form():
    # unitary_weights is derived from kraus in the constructor, not passed in
    fields = dataclasses.fields(PathChannel)
    assert [f.name for f in fields] == ["kraus", "label", "metadata", "unitary_weights"]
    assert [f.name for f in fields if f.init] == ["kraus", "label", "metadata"]
    assert [f.name for f in dataclasses.fields(Preparation)] == ["weights", "factors", "label"]
    ch = random_path_channel(3, 4, seed=7)
    assert ch.kraus.shape == (4, 2, 3, 3) and ch.kraus.dtype == np.complex128
    assert (ch.spin_dim, ch.n_kraus) == (3, 4)
    prep = Preparation.completely_mixed(5)
    assert prep.factors.shape == (2, 5, 5)
    assert (prep.spin_dim, prep.is_pure) == (5, False)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_factor_columns_are_the_weighted_kets_passed_in(d):
    rng = np.random.default_rng(d)
    for n in (1, 2, 3, 5):
        weights = rng.dirichlet(np.ones(n))
        pairs = [(random_ket(d, rng), random_ket(d, rng)) for _ in range(n)]
        prep = Preparation.ensemble(weights, pairs)
        np.testing.assert_allclose(prep.weights, weights, rtol=1e-15)
        assert prep.factors.shape == (2, d, n) and prep.is_pure == (n == 1)
        for m, pair in enumerate(pairs):
            for i in (0, 1):
                np.testing.assert_array_equal(prep.factors[i][:, m],
                                              np.sqrt(prep.weights[m]) * pair[i])


def test_preparation_validation():
    with pytest.raises(DimensionError):
        Preparation.pure(np.array([1.0, 1.0]), ket(0, 2))  # not normalized
    with pytest.raises(DimensionError):
        Preparation.ensemble([0.5, 0.6], [(ket(0, 2), ket(0, 2))] * 2)  # weights
    prep = Preparation.completely_mixed(3)
    for side in (0, 1):
        s = prep.factors[side]
        np.testing.assert_allclose(s @ s.conj().T, np.eye(3) / 3, atol=1e-12)
        np.testing.assert_allclose(mixed_state(prep, side), np.eye(3) / 3, atol=1e-12)


def test_preparation_factors_are_read_only_square_roots_of_the_arm_states():
    rng = np.random.default_rng(11)
    preps = (
        Preparation.pure(random_ket(3, rng), random_ket(3, rng)),
        Preparation.ensemble(rng.dirichlet(np.ones(3)),
                             [(random_ket(4, rng), random_ket(4, rng)) for _ in range(3)]),
        Preparation.completely_mixed(8),
        # weights off one by 5e-11 are accepted and stored divided by their sum
        Preparation.ensemble([0.3, 0.7 + 5e-11], [(ket(0, 2), ket(1, 2)), (ket(1, 2), ket(1, 2))]),
    )
    for prep in preps:
        s = prep.factors
        assert s.shape == (2, prep.spin_dim, len(prep.weights))
        assert not s.flags.writeable
        with pytest.raises(ValueError):
            s[0, 0, 0] = 1.0
        for side, s_i in enumerate(s):
            assert np.abs(s_i @ s_i.conj().T - mixed_state(prep, side)).max() <= 1e-15


def test_pure_pair_accepts_pure_preparations_and_ket_tuples():
    h, v = ket(0, 2), ket(1, 2)
    for prep in (Preparation.pure(h, v), (h, v)):
        psi0, psi1 = pure_pair(prep, 2)
        np.testing.assert_array_equal(psi0, h)
        np.testing.assert_array_equal(psi1, v)
    with pytest.raises(DimensionError):
        pure_pair(Preparation.completely_mixed(2), 2)
    with pytest.raises(DimensionError):
        pure_pair((h, v), 3)
    with pytest.raises(DimensionError):
        pure_pair((np.array([1.0, 1.0]), v), 2)  # not normalized


def test_channel_file_round_trip_bit_identical(tmp_path):
    ch = random_path_channel(2, 3, seed=33)
    text = dumps_channel(ch)
    again = dumps_channel(loads_channel(text))
    assert text == again
    path = tmp_path / "channel.txt"
    save_channel(ch, path)
    assert path.read_bytes() == text.encode("ascii")
    loaded = load_channel(path)
    np.testing.assert_array_equal(ch.kraus, loaded.kraus)
    assert loaded.metadata == {k: str(v) for k, v in ch.metadata.items()}
    crlf = tmp_path / "channel_crlf.txt"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert dumps_channel(load_channel(crlf)) == text


def test_channel_file_round_trip_spinless():
    ch = random_path_channel(1, 3, seed=2)
    text = dumps_channel(ch)
    assert dumps_channel(loads_channel(text)) == text


def _without_last_token_pair(text):
    lines = text.splitlines()
    lines[4] = lines[4].rsplit(" ", 2)[0]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("edit, message", [
    (lambda t: "not a channel file\n", "not a channel spec file (missing 'whichway-channel v1' header)"),
    (lambda t: t.replace("pairs 1", "pairs 1\nbogus 1"), "unrecognized channel spec line: 'bogus 1'"),
    (lambda t: t.replace("spin_dim 2\n", ""), "channel spec file is missing spin_dim or pairs"),
    (lambda t: t.replace("\nA ", "\nC "), "expected 'A' block line, got 'C "),
    (_without_last_token_pair, "A block has 6 numbers, expected 8"),
    (lambda t: t.replace("pairs 1", "pairs 2"), "channel spec file truncated: missing 'pair' block"),
    (lambda t: t + "extra\n", "trailing content after declared Kraus pairs"),
    (lambda t: re.sub(r"^A \S+", "A x", t, flags=re.M), "A block holds a token that is not a number"),
    (lambda t: t.split("A ")[0], "channel spec file truncated: missing 'pair' block"),
], ids=["magic", "unknown-line", "no-spin-dim", "block-tag", "block-length", "missing-pair",
        "trailing", "non-number", "pair-without-blocks"])
def test_channel_file_format_faults_are_input_format_errors(edit, message):
    # the last two escaped as a bare ValueError and a bare IndexError
    with pytest.raises(InputFormatError, match=re.escape(message)):
        loads_channel(edit(dumps_channel(identity_channel(2))))


@pytest.mark.parametrize("weights, message", [
    (["a"], "ensemble weights is not an array of numbers"),
    (["1"], "ensemble weights is not an array of numbers"),
    ([1j], "ensemble weights must be real numbers, one per pair"),
    ([[1.0]], "ensemble weights must be real numbers, one per pair"),
], ids=["malformed-string", "numeric-string", "complex", "nested"])
def test_ensemble_weights_that_are_not_real_numbers_are_a_dimension_error(weights, message):
    # the strings used to raise a bare ValueError and a bare TypeError
    h = ket(0, 2)
    with pytest.raises(DimensionError, match=re.escape(message)):
        Preparation.ensemble(weights, [(h, h)])


def test_channel_file_rejects_garbage():
    with pytest.raises(ValueError):
        loads_channel("not a channel file\n")
    ch = identity_channel(2)
    text = dumps_channel(ch)
    with pytest.raises(ValueError):
        loads_channel(text.replace("pairs 1", "pairs 2"))


@pytest.mark.parametrize("line, message", [
    ("pairs 0", "pairs must be >= 1 and an integer, got 0"),
    ("pairs -1", "pairs must be >= 1 and an integer, got -1"),
    ("pairs x", "pairs must be >= 1 and an integer, got 'x'"),
    ("spin_dim abc", "spin_dim must be >= 1 and an integer, got 'abc'"),
    ("spin_dim 2.0", "spin_dim must be >= 1 and an integer, got '2.0'"),
], ids=["pairs-0", "pairs-minus-1", "pairs-x", "spin_dim-abc", "spin_dim-2.0"])
def test_channel_file_refuses_a_header_count_that_is_not_a_positive_integer(line, message):
    # the header is checked before any block is parsed: the blocks here are
    # garbage, and the error still names the header field and its value
    key = line.split()[0]
    text = dumps_channel(identity_channel(2))
    text = re.sub(rf"^{key} .*$", line, text, flags=re.M)
    text = re.sub(r"^(A|B) .*$", r"\1 not numbers", text, flags=re.M)
    with pytest.raises(DimensionError, match=re.escape(message)):
        loads_channel(text)


@pytest.mark.parametrize("spin_dim", [0, -1])
def test_channel_file_refuses_spin_dim_below_one(spin_dim):
    text = dumps_channel(identity_channel(2)).replace("spin_dim 2", f"spin_dim {spin_dim}")
    with pytest.raises(DimensionError, match=f"spin_dim must be >= 1 and an integer, got {spin_dim}"):
        loads_channel(text)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_channel_file_rejects_non_finite_entries(bad):
    text = dumps_channel(identity_channel(2))
    lines = text.splitlines()
    fields = lines[-1].split()
    fields[3] = bad  # real part of the second B entry
    lines[-1] = " ".join(fields)
    with pytest.raises(NonFiniteError):
        loads_channel("\n".join(lines) + "\n")


def test_max_entangled_matches_choi_vector():
    # the identity-channel Choi state is built on this vector
    v = max_entangled_state(2)
    assert v[0] == pytest.approx(1 / np.sqrt(2))


def _dataset(counts=None):
    counts = np.zeros((4, 3), dtype=np.int64) if counts is None else counts
    return FringeDataset((0.0, 1.0, 2.0), counts, 10, (0,), (1.0,) * 4)


@pytest.mark.parametrize("build", [
    lambda: identity_channel(2),
    lambda: Preparation.completely_mixed(2),
    lambda: PathSpinState.from_preparation(Preparation.completely_mixed(2)),
    lambda: FilterPair(ket(0, 2), ket(1, 2)),
    _dataset,
    lambda: swap_certificate(measured_records()),
    lambda: verify_noise_program(pauli_noise_program())[0],
], ids=["PathChannel", "Preparation", "PathSpinState", "FilterPair", "FringeDataset",
        "BoundCertificate", "RowReport"])
def test_array_holding_objects_compare_and_hash_by_identity(build):
    a, b = build(), build()
    assert a == a
    assert not a == b and a != b
    assert len({a, b, a}) == 2


@pytest.mark.parametrize("build, inputs", [
    (lambda a, b: PathChannel(((a, b),)),
     (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex))),
    (PathChannel, (np.array([[np.eye(2), [[0, 1], [1, 0]]]], dtype=complex),)),
    (Preparation.pure, (ket(0, 2), ket(1, 2))),
    (lambda a, b: Preparation.ensemble([0.5, 0.5], [(a, b), (b, a)]), (ket(0, 2), ket(1, 2))),
    (FilterPair, (ket(0, 2), ket(1, 2))),
    (_dataset, (np.ones((4, 3), dtype=np.int64),)),
], ids=["PathChannel", "PathChannel-ndarray", "Preparation.pure", "Preparation.ensemble",
        "FilterPair", "FringeDataset"])
def test_validated_arrays_are_stored_as_read_only_copies(build, inputs):
    obj = build(*inputs)
    stored, fields = [], [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    while fields:
        value = fields.pop()
        if isinstance(value, np.ndarray):
            stored.append(value)
        elif isinstance(value, tuple):
            fields.extend(value)
    assert stored
    for arr in stored:
        assert not arr.flags.writeable
        assert not any(np.shares_memory(arr, x) for x in inputs)
    assert all(x.flags.writeable for x in inputs)


def test_kraus_blocks_whose_gram_sum_overflows_are_not_trace_preserving():
    # finite entries of 1e160 overflow sum A^dag A; the eigenvalues of the
    # non-finite error are NaN, which a `> 1e-10` test let through
    kraus = np.array([[np.eye(2) * 1e160, np.eye(2) * 1e160]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(PositivityError, match="^A-side Kraus blocks are not trace preserving"):
            PathChannel(kraus)
