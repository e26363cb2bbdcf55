import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_ket, random_unitary
from reference_kernels import PathSpinState, eigh_fidelity, max_entangled_state
from whichway import (
    DimensionError,
    FilterPair,
    FractionalVisibilityRecord,
    NonFiniteError,
    NumericalError,
    PathChannel,
    PositivityError,
    Preparation,
    block_choi,
    block_map,
    distinguishability,
    identity_channel,
    jones_matrix,
    ket,
    matrix_sqrt,
    partial_trace,
    random_path_channel,
    replace_channel,
    trace_norm,
    transpose_channel,
)
from whichway.channels import pure_pair
from whichway.linalg import MAX_DIM, density_matrix, real_in, unit_ket

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=4)


def test_trace_norm_zero_matrix():
    assert trace_norm(np.zeros((4, 4))) == 0.0


def test_trace_norm_diagonal():
    assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0, abs=1e-12)


def test_trace_norm_projector_difference():
    # the operator behind the half-distinguishability value of the explicit
    # four-state-environment dilation
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1], m[2, 2] = 0.5, -0.5
    assert trace_norm(m) == pytest.approx(1.0, abs=1e-12)


def test_trace_norm_rejects_non_square():
    with pytest.raises(DimensionError):
        trace_norm(np.zeros((2, 3)))


@settings(max_examples=50, deadline=None)
@given(seed=seeds, d=dims)
def test_trace_norm_unitary_invariance(seed, d):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    u, w = random_unitary(d, rng), random_unitary(d, rng)
    assert trace_norm(u @ m @ w) == pytest.approx(trace_norm(m), abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(seed=seeds, d=dims)
def test_trace_norm_dominates_trace(seed, d):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    assert trace_norm(m) >= abs(np.trace(m)) - 1e-12


def test_matrix_sqrt_identity():
    np.testing.assert_allclose(matrix_sqrt(np.eye(3)), np.eye(3), atol=1e-12)


def test_matrix_sqrt_diagonal():
    np.testing.assert_allclose(
        matrix_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12
    )


@settings(max_examples=50, deadline=None)
@given(seed=seeds, d=dims)
def test_matrix_sqrt_squares_back_and_commutes(seed, d):
    rng = np.random.default_rng(seed)
    m = random_density(d, rng) * float(rng.uniform(0.5, 3.0))
    r = matrix_sqrt(m)
    np.testing.assert_allclose(r @ r, m, atol=1e-9)
    np.testing.assert_allclose(r @ m, m @ r, atol=1e-9)


def test_matrix_sqrt_clamps_roundoff_negatives():
    m = np.diag([1.0, -5e-11])
    r = matrix_sqrt(m)
    assert r[1, 1] == 0.0


def test_matrix_sqrt_rejects_indefinite():
    with pytest.raises(PositivityError):
        matrix_sqrt(np.diag([1.0, -1e-6]))


def test_fidelity_identical_and_orthogonal():
    rho = np.outer(ket(0, 2), ket(0, 2))
    sig = np.outer(ket(1, 2), ket(1, 2))
    assert eigh_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)
    assert eigh_fidelity(rho, sig) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_pure_vs_maximally_mixed():
    rho = np.outer(ket(0, 2), ket(0, 2))
    assert eigh_fidelity(rho, np.eye(2) / 2) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(seed=seeds, d=dims)
def test_fidelity_symmetric(seed, d):
    rng = np.random.default_rng(seed)
    a, b = random_density(d, rng), random_density(d, rng)
    assert eigh_fidelity(a, b) == pytest.approx(eigh_fidelity(b, a), abs=1e-9)


def test_fidelity_dimension_mismatch():
    with pytest.raises(DimensionError):
        eigh_fidelity(np.eye(2) / 2, np.eye(3) / 3)


def test_kron_identities():
    np.testing.assert_allclose(np.kron(np.eye(2), np.eye(2)), np.eye(4), atol=0)


def test_partial_trace_of_kron():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    np.testing.assert_allclose(
        partial_trace(np.kron(a, b), (2, 2), keep=0), a * np.trace(b), atol=1e-12
    )
    np.testing.assert_allclose(
        partial_trace(np.kron(a, b), (2, 2), keep=1), b * np.trace(a), atol=1e-12
    )


def test_partial_trace_dimension_check():
    with pytest.raises(DimensionError):
        partial_trace(np.eye(4), (2, 3), keep=0)


@pytest.mark.parametrize("dims", ["ab", 4, (2, 2, 1), (2.0, 2), (True, 4)])
def test_partial_trace_dims_are_two_integers(dims):
    with pytest.raises(DimensionError):
        partial_trace(np.eye(4) / 4, dims, keep=0)


_ID2 = identity_channel(2)

# each index or kind parameter, and a value of the right type outside its range
INDEX_CALLS = {
    "jones_matrix-kind": (lambda v: jones_matrix(v, 10.0), "third"),
    "partial_trace-keep": (lambda v: partial_trace(np.eye(4), (2, 2), v), 2),
    "block_choi-i": (lambda v: block_choi(_ID2, v, 1), 2),
    "block_choi-j": (lambda v: block_choi(_ID2, 0, v), -1),
    "block_map-i": (lambda v: block_map(_ID2, v, 1, np.eye(2)), -1),
    "block_map-j": (lambda v: block_map(_ID2, 0, v, np.eye(2)), 2),
}


@pytest.mark.parametrize("value", ["array", "bool", "out-of-range"])
@pytest.mark.parametrize("call", INDEX_CALLS)
def test_indices_and_kinds_go_through_the_package_rules(call, value):
    # an array raised numpy's ambiguous-truth ValueError, and
    # block_choi(ch, True, 1) raised "axes don't match array"
    fn, outside = INDEX_CALLS[call]
    with pytest.raises(DimensionError):
        fn({"array": np.array([0, 1]), "bool": True, "out-of-range": outside}[value])


def test_numpy_integer_indices_are_accepted():
    np.testing.assert_array_equal(block_choi(_ID2, np.int64(0), np.int32(1)),
                                  block_choi(_ID2, 0, 1))
    np.testing.assert_array_equal(partial_trace(np.eye(4), (2, 2), np.int64(1)), 2 * np.eye(2))


def test_trace_norm_of_finite_entries_that_overflow_is_a_numerical_error():
    with pytest.raises(NumericalError):
        trace_norm(np.full((2, 2), 1e308))


@pytest.mark.parametrize("build", [matrix_sqrt, lambda m: density_matrix(m, "state")],
                         ids=["matrix_sqrt", "density_matrix"])
def test_psd_checks_share_one_tolerance_of_1e_10(build):
    # matrix_sqrt once took a Hermitian defect or a negative eigenvalue up
    # to 1e-8, where density_matrix refused one beyond 1e-10
    with pytest.raises(PositivityError, match="not Hermitian within 1e-10"):
        build(np.array([[0.5, 5e-9], [0.0, 0.5]]))
    with pytest.raises(PositivityError, match="not PSD"):
        build(np.diag([1.0 + 5e-9, -5e-9]))
    build(np.array([[0.5, 5e-11], [0.0, 0.5]]))
    build(np.diag([1.0 + 5e-11, -5e-11]))


def test_transpose_involution_and_dagger():
    rng = np.random.default_rng(6)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    np.testing.assert_allclose(m.T.T, m, atol=0)
    np.testing.assert_allclose(m.conj().T.conj().T, m, atol=0)


def test_max_entangled_state():
    for d in (1, 2, 3, 4):
        v = max_entangled_state(d)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        expected = sum(np.kron(ket(l, d), ket(l, d)) for l in range(d)) / np.sqrt(d)
        np.testing.assert_allclose(v, expected, atol=1e-15)


def test_density_matrix_validation():
    density_matrix(np.eye(2) / 2, "state")
    with pytest.raises(PositivityError, match="trace"):
        density_matrix(np.array([[0.6, 0.0], [0.0, 0.5]]), "state")
    with pytest.raises(PositivityError, match="not PSD"):
        density_matrix(np.array([[1.1, 0.0], [0.0, -0.1]]), "state")
    with pytest.raises(PositivityError, match="not Hermitian"):
        density_matrix(np.array([[0.5, 0.3], [0.0, 0.5]]), "state")
    with pytest.raises(DimensionError, match="not square"):
        density_matrix(np.eye(3, 2) / 2, "state")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                                 complex(0.0, -np.inf)])
@pytest.mark.parametrize("index", [0, 2])
def test_unit_ket_non_finite_entry_is_non_finite_error(bad, index):
    psi = np.full(3, 1 / np.sqrt(3), dtype=complex)
    psi[index] = bad
    with pytest.raises(NonFiniteError):
        unit_ket(psi, "psi")


def test_unit_ket_overflowing_norm_is_dimension_error():
    # finite entries whose squared norm overflows to inf
    with pytest.raises(DimensionError, match="psi norm inf"):
        unit_ket(np.full(2, 1e200, dtype=complex), "psi")
    with pytest.raises(DimensionError):
        unit_ket(np.array([1e200, 0.0]), "psi")
    # and so does an input that is not an array of numbers
    with pytest.raises(DimensionError, match="psi is not an array of numbers"):
        unit_ket("a", "psi")
    with pytest.raises(DimensionError, match="chi0 is not an array of numbers"):
        FilterPair("a", "b")


@pytest.mark.parametrize("d", [1, 2, 5])
def test_unit_ket_norm_tolerance(d):
    psi = random_ket(d, np.random.default_rng(d))
    with pytest.raises(DimensionError, match="differs from 1 beyond 1e-10"):
        unit_ket(psi * (1 + 2e-10), "psi")
    with pytest.raises(DimensionError):
        unit_ket(psi * (1 - 2e-10), "psi")
    out = unit_ket(psi * (1 + 5e-11), "psi")
    np.testing.assert_array_equal(out, psi * (1 + 5e-11))
    assert unit_ket(list(psi), "psi").shape == (d,)


# One valid input per validating constructor, and how to build from it. A
# complex input takes a bad value in its real or imaginary part; a real one
# in its value.
_H, _V = ket(0, 2), ket(1, 2)
_HALF = np.eye(2, dtype=complex) / 2
_PLUS = np.full((2, 2), 0.5, dtype=complex)
_KRAUS = 0.5 * np.array([[np.eye(2), np.eye(2)]] * 4, dtype=complex)
NON_FINITE_CASES = {
    "Preparation.pure": (np.array([_H, _V]), lambda a: Preparation.pure(a[0], a[1])),
    "Preparation.ensemble": (
        np.array([0.25, 0.75]), lambda w: Preparation.ensemble(w, [(_H, _H), (_V, _H)])
    ),
    "density_matrix": (_HALF, lambda m: density_matrix(m, "state")),
    "FilterPair": (np.array([_H, _V]), lambda a: FilterPair(a[0], a[1])),
    "PathSpinState": (np.array([[_PLUS, _PLUS], [_PLUS, _PLUS]]) / 2,
                      lambda b: PathSpinState(2, b)),
    "PathChannel": (_KRAUS, PathChannel),
    "FractionalVisibilityRecord": (
        np.array([0.5, 0.25, -0.25, 0.01, 0.01]),
        lambda a: FractionalVisibilityRecord("hh", "hh", a[0], complex(a[1], a[2]), a[3], a[4]),
    ),
    "replace_channel": (_HALF, replace_channel),
    "pure_pair": (np.array([_H, _V]), lambda a: pure_pair((a[0], a[1]), 2)),
    "trace_norm": (_HALF, trace_norm),
    "matrix_sqrt": (_HALF, matrix_sqrt),
    "partial_trace": (np.kron(_HALF, _HALF), lambda m: partial_trace(m, (2, 2), 0)),
    "block_map": (_HALF, lambda s: block_map(identity_channel(2), 0, 1, s)),
}
# Every reader of an outside array, each given the valid input above in one
# of four forms that are not numbers: the entries as text (which numpy
# parses), as bools, or as nested lists whose first entry is None or True.
NOT_NUMBERS = {name: case for name, case in NON_FINITE_CASES.items()
               if name not in ("PathSpinState", "FractionalVisibilityRecord")} | {
    "unit_ket": (_H, lambda a: unit_ket(a, "psi")),
    "distinguishability": (_HALF, lambda e: distinguishability(e, _HALF)),
}


def _first_entry(valid, entry):
    lists = valid.astype(object)
    lists.flat[0] = entry
    return lists.tolist()


NOT_NUMBER_FORMS = {
    "text": lambda valid: np.real(valid).astype(str),
    "bool": lambda valid: valid.astype(bool),
    "none-among-numbers": lambda valid: _first_entry(valid, None),
    "bool-among-numbers": lambda valid: _first_entry(valid, True),
}


@pytest.mark.parametrize("form", NOT_NUMBER_FORMS)
@pytest.mark.parametrize("name", sorted(NOT_NUMBERS))
def test_an_input_that_is_not_numbers_is_a_dimension_error(name, form):
    valid, build = NOT_NUMBERS[name]
    build(valid.copy())
    with pytest.raises(DimensionError, match="is not an array of numbers"):
        build(NOT_NUMBER_FORMS[form](valid))


@pytest.mark.parametrize("name", ["density_matrix", "distinguishability", "matrix_sqrt",
                                  "partial_trace", "replace_channel", "trace_norm"])
def test_a_matrix_of_side_zero_is_a_dimension_error(name):
    with pytest.raises(DimensionError, match=r"shape \(0, 0\) is not square with side >= 1"):
        NOT_NUMBERS[name][1](np.zeros((0, 0)))


@pytest.mark.parametrize("name", sorted(NON_FINITE_CASES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_non_finite_entry_is_rejected(name, data):
    valid, build = NON_FINITE_CASES[name]
    build(valid.copy())
    bad_input = valid.copy()
    index = data.draw(st.integers(0, valid.size - 1), label="index")
    bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="bad")
    imaginary = np.iscomplexobj(valid) and data.draw(st.booleans(), label="imaginary")
    bad_input.flat[index] = complex(bad_input.flat[index].real, bad) if imaginary else bad
    with pytest.raises(NonFiniteError):
        build(bad_input)


@pytest.mark.parametrize("build, message", [
    (lambda: identity_channel(2.0), "d must be >= 1 and an integer, got 2.0"),
    (lambda: ket(0, 2.0), "dim must be >= 1 and an integer, got 2.0"),
    (lambda: ket(True, 2), "index must be >= 0 and an integer, got True"),
    (lambda: ket(0.5, 2), "index must be >= 0 and an integer, got 0.5"),
    (lambda: ket(2, 2), "basis index 2 out of range for dim 2"),
    (lambda: Preparation.completely_mixed(2.5), "dim must be >= 1 and an integer, got 2.5"),
    (lambda: Preparation.completely_mixed(0), "dim must be >= 1 and an integer, got 0"),
    (lambda: transpose_channel(0), "d must be >= 1 and an integer, got 0"),
], ids=["identity_channel", "ket", "ket-bool-index", "ket-float-index", "ket-index-2",
        "completely_mixed-2.5", "completely_mixed-0", "transpose_channel-0"])
def test_dimensions_must_be_integers_of_at_least_one(build, message):
    # pyproject.toml turns warnings into errors, so a divide-by-zero warning
    # before the refusal fails this test too
    with pytest.raises(DimensionError, match=re.escape(message)):
        build()


@pytest.mark.parametrize("size", [MAX_DIM + 1, np.int64(MAX_DIM + 1), 2**70],
                         ids=["cap+1", "cap+1-int64", "2**70"])
@pytest.mark.parametrize("build, name", [
    (lambda n: ket(0, n), "dim"),
    (identity_channel, "d"),
    (transpose_channel, "d"),
    (lambda n: random_path_channel(n, 1, 0), "d"),
    (lambda n: random_path_channel(2, n, 0), "n_kraus"),
    (Preparation.completely_mixed, "dim"),
], ids=["ket", "identity_channel", "transpose_channel", "random_path_channel-d",
        "random_path_channel-n_kraus", "completely_mixed"])
def test_builders_refuse_a_size_beyond_the_library_cap(build, name, size):
    # at 2**70 these raised numpy's ValueError (transpose_channel a bare
    # TypeError); every size goes through int_at_least with one cap, MAX_DIM,
    # and is refused before any array is made
    with pytest.raises(DimensionError, match=re.escape(f"{name} must be <= {MAX_DIM}, got ")):
        build(size)


def test_the_size_cap_is_inclusive():
    # the cap itself is a size the builders take; a ket of it is 64 KiB
    assert ket(MAX_DIM - 1, MAX_DIM)[-1] == 1.0
    assert random_path_channel(1, MAX_DIM, 0).n_kraus == MAX_DIM


def test_ket_takes_a_numpy_integer_index():
    np.testing.assert_array_equal(ket(np.int64(1), 2), [0, 1])


@pytest.mark.parametrize("value", [0, 1, 0.25, np.float32(0.5), np.int64(1), np.float64(1e-300)])
def test_real_in_returns_a_real_setting_as_a_float(value):
    out = real_in(value, "x", 0.0, 1.0)
    assert type(out) is float and out == float(value)


@pytest.mark.parametrize("value", [
    True, np.bool_(False), "0.5", b"0.5", None, 0.5j, np.array(0.5), [0.5], (0.5,),
], ids=["bool", "numpy-bool", "str", "bytes", "none", "complex", "0-d-array", "list", "tuple"])
def test_real_in_refuses_what_is_not_a_real_number(value):
    with pytest.raises(DimensionError) as exc:
        real_in(value, "setting", 0.0, 1.0)
    assert str(exc.value) == f"setting {value!r} is not a real number"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, np.float32(np.nan)])
def test_real_in_refuses_a_non_finite_value_before_its_interval(value):
    # inf would also lie outside [0, 1]; NaN compares false with both ends
    with pytest.raises(NonFiniteError, match=f"^setting {value} is not finite$"):
        real_in(value, "setting", 0.0, 1.0)


@pytest.mark.parametrize("value, low, high, open_low, unit, message", [
    (0.0, 0.0, 1.0, True, "", "contrast 0.0 outside (0, 1]"),
    (1.5, 0.0, 1.0, True, "", "contrast 1.5 outside (0, 1]"),
    (-1, 0.0, math.inf, False, "", "contrast -1 outside [0, inf)"),
    (200.0, -180.0, 180.0, False, "degrees", "contrast 200.0 outside [-180, 180] degrees"),
    (0.5, 0.0, 0.25, True, "", "contrast 0.5 outside (0, 0.25]"),
], ids=["open-low-end", "above", "half-line", "unit", "fractional-end"])
def test_real_in_names_the_setting_and_its_interval(value, low, high, open_low, unit, message):
    with pytest.raises(DimensionError) as exc:
        real_in(value, "contrast", low, high, open_low=open_low, unit=unit)
    assert str(exc.value) == message


def test_real_in_keeps_closed_ends():
    assert real_in(-180, "angle", -180.0, 180.0) == -180.0
    assert real_in(1, "contrast", 0.0, 1.0, open_low=True) == 1.0
    assert real_in(1e308, "tol", 0.0) == 1e308


def _binding_inputs():
    """Complex matrices for the spectrum binding: sides 1 to 16, (k, n, n)
    stacks, a zero, rank-one, diagonal and real-valued matrix, a transposed
    (column-major) view and a rectangular one."""
    rng = np.random.default_rng(43)

    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    for n in range(1, 17):
        yield pytest.param(gaussian(n, n), id=f"side-{n}")
    for k, n in ((1, 3), (3, 2), (5, 7), (2, 16)):
        yield pytest.param(gaussian(k, n, n), id=f"stack-{k}x{n}")
    v = gaussian(5)
    yield pytest.param(np.zeros((4, 4), dtype=complex), id="zero")
    yield pytest.param(np.outer(v, v.conj()), id="rank-one")
    yield pytest.param(np.diag(gaussian(6)), id="diagonal")
    yield pytest.param(rng.normal(size=(5, 5)).astype(complex), id="real-valued")
    yield pytest.param(gaussian(6, 6).T, id="transposed-view")
    yield pytest.param(gaussian(3, 7), id="rectangular")


@pytest.mark.parametrize("m", _binding_inputs())
def test_the_spectrum_binding_returns_the_public_wrappers_bytes(m):
    # linalg._eigvalsh and _singular_values call the gufuncs behind
    # np.linalg.eigvalsh and np.linalg.svd(compute_uv=False) without the
    # wrappers; a numpy that renames or changes those gufuncs fails here
    from whichway import linalg

    pairs = [(linalg._singular_values(m), np.linalg.svd(m, compute_uv=False))]
    if m.shape[-1] == m.shape[-2]:
        h = m + m.conj().swapaxes(-1, -2)
        pairs.append((linalg._eigvalsh(h), np.linalg.eigvalsh(h)))
    for got, want in pairs:
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

