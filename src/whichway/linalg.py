"""Dense complex linear algebra on small operators.

All operators are plain complex ``numpy.ndarray``s in row-major layout.
Spin dimensions up to d = 8 are routine (operators on two spin replicas are
then 64 x 64), and speed matters: the production kernels never lift a d x d
factor to C^d x C^d with ``np.kron(np.eye(d), .)``, but contract reshaped
arrays instead (the channel kernels).

Tolerance policy: structural checks on constructed objects use
``ATOL_STRUCT`` (1e-10), and so does the one Hermitian and PSD check,
:func:`psd_eigh`'s; derived numerical identities use ``ATOL_DERIVED``
(1e-9) and certificates ``bounds.CONTRACTION_TOL`` (1e-8); none is a
parameter. Statistical tolerances live with the Monte Carlo code. The
rules for integers, real settings, labels, mappings, arrays, unit kets and
density matrices are written once, here: :func:`int_at_least` (an integer
in a range, a bool is not one; path indices, ``keep``, shot counts and
the sizes of the builders go through it, the sizes capped at
``MAX_DIM``), :func:`real_in` (a real number in an interval, returned as
a float; a bool, text, None or an array is not one), one label rule (a label
is a str, a wave-plate kind too), one mapping rule (named preparations,
filters, coefficients and channel metadata come in a ``Mapping``), one
instance rule (a parameter that takes a package object, such as a channel,
a preparation, a certificate or a record, refuses any other type), one
array rule that every reader of an outside array goes through (text, a
bool or None, alone or among numbers, is not a number),
:func:`finite_array` (that rule with finite entries), :func:`unit_ket`
(norm one within 1e-10) and :func:`density_matrix` (:func:`psd_eigh` and
unit trace within 1e-10, from one eigendecomposition that its callers in
the package reuse). A NaN or infinite entry of an array of the right
kind and shape raises :class:`NonFiniteError`. Every real-valued setting
(wave-plate angles, detector efficiencies, contrast, phases, ``--tol``) is
checked by :func:`real_in` or :func:`finite_array`. Every random stream of
the package, the counting draws and the random channels alike, comes from
one constructor of numpy generators, :func:`_generators`.
The root fidelity of two states is not formed here: :mod:`whichway.duality`
takes it from their factors by Uhlmann's theorem, and the route through two
eigendecompositions is a test oracle.

Every spectrum the package takes of an array it formed itself comes from
one binding, :func:`_eigvalsh` (Hermitian eigenvalues) and
:func:`_singular_values`: the LAPACK gufuncs of
``numpy.linalg._umath_linalg`` that ``np.linalg.eigvalsh`` and
``np.linalg.svd(..., compute_uv=False)`` call, so the bytes are theirs,
without the wrappers' fixed per-call work (array conversion, squareness
and type checks, a fresh ``errstate``, a cast), which on matrices of side
2 to 16 costs as much as LAPACK itself. The binding takes finite complex
arrays alone. Where LAPACK does not converge it returns NaN (numpy may
add an invalid-value ``RuntimeWarning``) in place of the wrappers'
``LinAlgError``, so each caller refuses a non-finite result with
:class:`NumericalError`. The public :func:`trace_norm` keeps
``np.linalg.svd``: it reads outside arrays, and its one-pass check of
their entries relies on the wrapper's error.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionError, NonFiniteError, NumericalError, PositivityError

ATOL_STRUCT = 1e-10
ATOL_DERIVED = 1e-9
# The largest size a builder accepts: a dimension (of a ket, a channel or a
# preparation) or a Kraus count. A size above it raises DimensionError before
# any array is made. At the cap a d x d complex matrix takes 256 MiB, so a
# builder near it may still run out of memory, but it never hands numpy a
# shape numpy cannot represent.
MAX_DIM = 4096

__all__ = [
    "ATOL_STRUCT",
    "ATOL_DERIVED",
    "MAX_DIM",
    "density_matrix",
    "finite_array",
    "hermitian_part",
    "int_at_least",
    "ket",
    "matrix_sqrt",
    "partial_trace",
    "psd_eigh",
    "real_in",
    "trace_norm",
    "unit_ket",
]


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dag) / 2 of a square ndarray."""
    return (m + m.conj().T) / 2


def int_at_least(value, what: str, minimum: int, maximum: int | None = None) -> int:
    """``value`` as an int; raises :class:`DimensionError` naming ``what`` and
    the value unless it is an integer (a bool is not) of at least
    ``minimum`` and, if ``maximum`` is given, at most ``maximum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise DimensionError(f"{what} must be >= {minimum} and an integer, got {value!r}")
    if maximum is not None and value > maximum:
        raise DimensionError(f"{what} must be <= {maximum}, got {value!r}")
    return int(value)


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` itself, made read-only: for arrays that are built once and
    shared, such as module-level constants."""
    a.flags.writeable = False
    return a


# SeedSequence.generate_state(4, np.uint64), which PCG64 seeds itself from,
# hashes the 4-word pool into 8 uint32 words: word i is pool[i % 4] xored with
# the hash constant h_i = INIT_B * MULT_B^i, multiplied by h_{i+1} and
# xor-shifted by 16 bits (mod 2^32), with INIT_B = 0x8b51f9dd and
# MULT_B = 0x58f38ded. _STATE_HASH holds (h_0..h_7, h_1..h_8), each as
# (2, 4), the pool's two passes.
_STATE_HASH = _frozen(np.array([[0x8B51F9DD * pow(0x58F38DED, i + j, 2**32) % 2**32
                                 for i in range(8)] for j in (0, 1)],
                               dtype=np.uint32).reshape(2, 2, 4))
_StateWords = None  # the ISeedSequence that hands PCG64 its state, made on first use


def _generators(seed: tuple[int, ...], shape: tuple[int, ...] = ()) -> list:
    """One numpy generator per index of an array of ``shape``, in C order,
    each in the state ``np.random.default_rng(seed + index)`` gives it; one
    generator, seeded ``seed``, for the default shape ().

    ``np.random.default_rng`` reads a tuple of nonnegative ints as the
    SeedSequence entropy of their uint32 words, each int little-endian (0 is
    one word), one after the other. Here the seed is split into those words
    once, and each index appends its ints (each below 2^32, one word each),
    so the states are those of the tuples without converting the seed again
    per index. Each cell keeps its own ``SeedSequence``, which mixes the
    entropy into its pool; the hash of ``generate_state(4, np.uint64)`` that
    turns the pool into PCG64's seed words (``_STATE_HASH``) runs over all
    the cells' pools in one array pass, and each cell's row reaches
    ``np.random.PCG64`` through an ``ISeedSequence`` that returns it, so
    PCG64's own code sets the 128-bit state. The generators are the
    package's own: their ``seed_seq`` serves that seeding alone. The one
    generator of shape () is ``np.random.PCG64(np.random.SeedSequence(seed))``
    itself, which splits the seed into the same words: for one pool, the
    batched hash's fixed array calls cost more than ``generate_state``.
    """
    if not shape:
        return [np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))]
    global _StateWords
    if _StateWords is None:
        class _StateWords(np.random.bit_generator.ISeedSequence):
            """PCG64's seed words, prepared: ``generate_state`` returns them."""

            def __init__(self, words):
                self.words = words

            def generate_state(self, n_words, dtype=np.uint32):
                return self.words

    words = []
    for s in seed:
        words.append(s & 0xFFFFFFFF)
        while s := s >> 32:
            words.append(s & 0xFFFFFFFF)
    pools = np.array([np.random.SeedSequence(np.array(words + list(index), dtype=np.uint32)).pool
                      for index in itertools.product(*map(range, shape))], dtype=np.uint32)
    state = (pools.reshape(-1, 1, 4) ^ _STATE_HASH[0]) * _STATE_HASH[1]
    state ^= state >> 16
    # the eight words of a cell are read as four little-endian uint64
    state = state.astype("<u4", copy=False).reshape(-1, 8).view("<u8").astype(np.uint64,
                                                                             copy=False)
    return [np.random.Generator(np.random.PCG64(_StateWords(row))) for row in state]


def real_in(value, what: str, low: float, high: float = math.inf, *,
            open_low: bool = False, unit: str = "") -> float:
    """``value`` as a float. A value that is not a real number (a Python
    int or float, or a numpy integer or floating scalar) raises
    :class:`DimensionError` naming ``what`` and the value; so does one
    outside [low, high], or (low, high] if ``open_low``, with ``unit`` after
    the interval. NaN and +-inf raise :class:`NonFiniteError`."""
    # type(), not isinstance: a bool is an int, but not a real setting
    if type(value) not in (int, float) and not isinstance(value, (np.integer, np.floating)):
        raise DimensionError(f"{what} {value!r} is not a real number")
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        raise NonFiniteError(f"{what} {value} is not finite")
    if not (low < value if open_low else low <= value) or value > high:
        lo, hi = (repr(float(end)).removesuffix(".0") for end in (low, high))
        interval = ("(" if open_low else "[") + f"{lo}, {hi}" + (")" if high == math.inf else "]")
        raise DimensionError(f"{what} {value} outside {interval}{unit and ' ' + unit}")
    return float(value)


def _text(value, what: str) -> str:
    """``value`` if it is a str, else :class:`DimensionError` naming ``what``."""
    if not isinstance(value, str):
        raise DimensionError(f"{what} {value!r} is not a str")
    return value


def _mapping(value, what: str) -> Mapping:
    """``value`` if it is a ``Mapping``, else :class:`DimensionError` naming ``what``."""
    if not isinstance(value, Mapping):
        raise DimensionError(f"{what} {value!r} is not a mapping")
    return value


def _instance(value, cls: type, what: str) -> None:
    """Refuse a ``value`` that is not a ``cls`` with :class:`DimensionError`
    naming ``what`` and the type it got: the one rule for a parameter that
    takes a package object."""
    if not isinstance(value, cls):
        raise DimensionError(f"{what} of type {type(value).__name__} is not a {cls.__name__}")


def ket(index: int, dim: int) -> np.ndarray:
    """Computational basis vector |index> of the given dimension, at most
    ``MAX_DIM``."""
    int_at_least(dim, "dim", 1, MAX_DIM)
    if int_at_least(index, "index", 0) >= dim:
        raise DimensionError(f"basis index {index} out of range for dim {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def _holds_numbers(a) -> bool:
    """Whether ``a`` is a number (not a bool, text or None) or holds only
    numbers; a numeric ndarray is judged by its dtype, without a scan."""
    if isinstance(a, (list, tuple)):
        return all(map(_holds_numbers, a))
    if type(a) in (int, float, complex):
        return True
    a = np.asarray(a)
    if a.dtype.kind == "O" and a.ndim:
        return all(map(_holds_numbers, a.flat))
    return a.dtype.kind in "iufc"


def _numbers(a, what: str) -> np.ndarray:
    """``a`` as a complex array, not checked for finiteness: the one rule
    that reads an outside array. An input numpy cannot read as numbers, or
    reads only by parsing text, or that holds a bool or None (which numpy
    reads as 0/1 and NaN) raises :class:`DimensionError` naming ``what``."""
    try:
        raw = np.asarray(a)
        values = raw.astype(complex, copy=False)
    except (TypeError, ValueError, OverflowError):
        raw = None
    if raw is None or not (raw is a and raw.dtype.kind in "iufc" or _holds_numbers(a)):
        raise DimensionError(f"{what} is not an array of numbers")
    return values


def finite_array(a, what: str) -> np.ndarray:
    """``a`` read by the array rule; a NaN or infinite entry raises
    :class:`NonFiniteError`."""
    values = _numbers(a, what)
    if not np.isfinite(values).all():
        raise NonFiniteError(f"NaN or infinite entry in {what}")
    return values


def _square(m, what: str) -> np.ndarray:
    """``m`` read by the array rule as a square matrix of side >= 1, else
    :class:`DimensionError`."""
    m = _numbers(m, what)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise DimensionError(f"{what} shape {m.shape} is not square with side >= 1")
    return m


def unit_ket(psi, what: str) -> np.ndarray:
    """``psi`` as a read-only copy of a finite complex vector of norm one
    within 1e-10, else :class:`DimensionError`. One pass: the norm is
    non-finite whenever an entry is, so only then are the entries checked,
    a NaN or infinite one raising :class:`NonFiniteError`."""
    psi = _numbers(psi, what).flatten()
    psi.flags.writeable = False
    n = math.sqrt(np.vdot(psi, psi).real)
    if not math.isfinite(n):
        finite_array(psi, what)
    if abs(n - 1.0) > ATOL_STRUCT:
        raise DimensionError(f"{what} norm {n:.12g} differs from 1 beyond 1e-10")
    return psi


def psd_eigh(m, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, v), w ascending, of a finite square matrix
    that is Hermitian within 1e-10 with no eigenvalue below -1e-10, else
    :class:`PositivityError` naming ``what``. Eigenvalues in [-1e-10, 0),
    round-off, and those within 1e-12 (relative) of zero are zeroed: the
    square root of eigensolver round-off would inject sqrt(eps) ~ 1e-8
    noise into the null space of rank-deficient inputs, while zeroing
    perturbs the re-multiplication identity by at most 1e-12.
    """
    m = finite_array(_square(m, what), what)
    if np.abs(m - m.conj().T).max() > ATOL_STRUCT:
        raise PositivityError(f"{what} is not Hermitian within 1e-10")
    w, v = np.linalg.eigh(hermitian_part(m))
    if w.min() < -ATOL_STRUCT:
        raise PositivityError(f"{what} not PSD: smallest eigenvalue {w.min():.3e}")
    w[w < max(w.max(), 0.0) * 1e-12] = 0.0
    return w, v


def _density_eigh(m, what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m, w, v): ``m`` as a complex matrix that :func:`psd_eigh` accepts,
    with that eigendecomposition (w, v); one whose trace differs from one
    beyond 1e-10 raises :class:`PositivityError`."""
    m = _square(m, what)
    w, v = psd_eigh(m, what)
    tr = np.trace(m)
    if abs(tr.real - 1.0) > ATOL_STRUCT or abs(tr.imag) > ATOL_STRUCT:
        raise PositivityError(f"{what} trace differs from one beyond 1e-10")
    return m, w, v


def density_matrix(m, what: str) -> np.ndarray:
    """``m`` as a complex matrix that :func:`psd_eigh` accepts; one whose
    trace differs from one beyond 1e-10 raises :class:`PositivityError`."""
    return _density_eigh(m, what)[0]


def _eigvalsh(h: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues of a finite complex Hermitian matrix, or of
    each matrix of a stack, from its lower triangle: ``np.linalg.eigvalsh(h)``
    without the wrapper. NaN where LAPACK does not converge."""
    return _umath_linalg.eigvalsh_lo(h, signature="D->d")


def _singular_values(m: np.ndarray) -> np.ndarray:
    """The descending singular values of a finite complex matrix, or of each
    matrix of a stack: ``np.linalg.svd(m, compute_uv=False)`` without the
    wrapper. NaN where LAPACK does not converge."""
    return _umath_linalg.svd(m, signature="D->d")


def trace_norm(m) -> float:
    """Sum of singular values of a square matrix. One pass: a NaN or
    infinite entry makes the SVD fail or sum to a non-finite value, so only
    then are the entries checked, raising :class:`NonFiniteError`."""
    m = _square(m, "trace norm input")
    try:
        total = float(np.linalg.svd(m, compute_uv=False).sum())
    except np.linalg.LinAlgError:
        total = math.nan
    if not math.isfinite(total):
        finite_array(m, "trace norm input")
        raise NumericalError(f"trace norm of finite entries is {total}")
    return total


def matrix_sqrt(m) -> np.ndarray:
    """Hermitian PSD square root from the clamped eigendecomposition of
    :func:`psd_eigh`, whose checks and tolerances it shares."""
    w, v = psd_eigh(m, "matrix")
    return hermitian_part((v * np.sqrt(w)) @ v.conj().T)


def partial_trace(m, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    Parameters
    ----------
    m : ndarray
        Finite operator on a tensor product space of shape (d0*d1, d0*d1).
    dims : (d0, d1)
        Dimensions of the two factors, in kron order, integers >= 1.
    keep : int
        Which factor to keep (0 or 1).
    """
    m = finite_array(_square(m, "operator"), "operator")
    dims = tuple(dims) if np.iterable(dims) else (dims,)
    if len(dims) != 2:
        raise DimensionError(f"dims {dims} is not two factor dimensions")
    d0, d1 = (int_at_least(d, "factor dimension", 1) for d in dims)
    if m.shape != (d0 * d1, d0 * d1):
        raise DimensionError(f"operator shape {m.shape} != declared factors {dims}")
    keep = int_at_least(keep, "keep", 0, 1)
    t = m.reshape(d0, d1, d0, d1)
    return np.einsum("abad->bd" if keep else "abcb->ac", t)
