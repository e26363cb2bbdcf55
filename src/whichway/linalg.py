"""Dense complex linear algebra on small operators.

All operators are plain complex ``numpy.ndarray``s in row-major layout.
Spin dimensions up to d = 8 are routine (operators on two spin replicas are
then 64 x 64), and speed matters: the production kernels never lift a d x d
factor to C^d x C^d with ``np.kron(np.eye(d), .)``, but contract reshaped
arrays instead (:func:`factor_sandwich` and the channel kernels).

Tolerance policy: structural checks on constructed objects use
``ATOL_STRUCT`` (1e-10), derived numerical identities use ``ATOL_DERIVED``
(1e-9), the checks of :func:`psd_eigh` use ``PSD_ATOL`` (1e-8), and
certificates ``bounds.CONTRACTION_TOL`` (1e-8); none is a parameter.
Statistical tolerances live with the Monte Carlo code. The rules
for integers, real settings, finite entries, unit kets and density matrices
are written once, here: :func:`int_at_least` (a bool is not an integer),
:func:`real_in` (a real number in an interval, returned as a float; a bool,
text, None or an array is not one), :func:`finite_array` (an array of
numbers; one with a bool or text entry is not one), :func:`unit_ket`
(norm one within 1e-10) and :func:`density_matrix` (Hermitian, PSD and unit
trace within 1e-10); all but :func:`int_at_least` raise
:class:`NonFiniteError` for a NaN or infinite value or entry, whatever else
is wrong with it. Every real-valued setting of the package (wave-plate
angles, detector efficiencies, contrast, phases, ``--tol``) is checked by
:func:`real_in` or :func:`finite_array`. The root fidelity of two states is
not formed here: :mod:`whichway.duality` takes it from their factors by
Uhlmann's theorem, and the route through two eigendecompositions is a test
oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, NonFiniteError, PositivityError

ATOL_STRUCT = 1e-10
ATOL_DERIVED = 1e-9
PSD_ATOL = 1e-8

__all__ = [
    "ATOL_STRUCT",
    "ATOL_DERIVED",
    "PSD_ATOL",
    "density_matrix",
    "factor_sandwich",
    "finite_array",
    "hermitian_part",
    "int_at_least",
    "is_hermitian",
    "ket",
    "matrix_sqrt",
    "partial_trace",
    "psd_eigh",
    "real_in",
    "trace_norm",
    "unit_ket",
]


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got array of shape {a.shape}")
    return a


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dag) / 2."""
    m = np.asarray(m)
    return (m + m.conj().T) / 2


def is_hermitian(m: np.ndarray, atol: float = ATOL_STRUCT) -> bool:
    m = _as_matrix(m)
    return m.shape[0] == m.shape[1] and np.max(np.abs(m - m.conj().T)) <= atol


def int_at_least(value, what: str, minimum: int) -> int:
    """``value`` as an int; raises :class:`DimensionError` naming ``what`` and
    the value unless it is an integer (a bool is not) of at least
    ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise DimensionError(f"{what} must be >= {minimum} and an integer, got {value!r}")
    return int(value)


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


def ket(index: int, dim: int) -> np.ndarray:
    """Computational basis vector |index> of the given dimension."""
    int_at_least(dim, "dim", 1)
    if int_at_least(index, "index", 0) >= dim:
        raise DimensionError(f"basis index {index} out of range for dim {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def finite_array(a, what: str) -> np.ndarray:
    """``a`` as a complex array; raises :class:`NonFiniteError` on a NaN or
    infinite entry, and :class:`DimensionError` naming ``what`` for an input
    that numpy cannot read as numbers, can read only by parsing text (a
    str or bytes entry) or reads as bools, a bool among numbers included."""
    try:
        raw = np.asarray(a)
        values = raw.astype(complex, copy=False)
    except (TypeError, ValueError):
        raw = None
    # numpy reads [False, 0.5] as [0.0, 0.5] and parses text in an object
    # array, so the entries of an input that is not a numeric ndarray are
    # read one by one; a numeric ndarray has one kind
    scan = raw is not None and (raw.dtype.kind == "O" or not isinstance(a, np.ndarray))
    entries = np.array(a, dtype=object).flat if scan else [raw]
    if raw is None or any(np.asarray(x).dtype.kind in "bSU" for x in entries):
        raise DimensionError(f"{what} is not an array of numbers")
    if not np.isfinite(values).all():
        raise NonFiniteError(f"NaN or infinite entry in {what}")
    return values


def unit_ket(psi, what: str) -> np.ndarray:
    """``psi`` as a read-only copy of a finite complex vector; an input that
    numpy cannot read as complex numbers, or a norm differing from one
    beyond 1e-10, raises :class:`DimensionError`.

    One pass: the norm sqrt(<psi|psi>) is non-finite whenever an entry is,
    so the entry scan of :func:`finite_array` runs only then. A NaN or
    infinite entry raises :class:`NonFiniteError`; finite entries whose
    squared norm overflows raise :class:`DimensionError`.
    """
    try:
        psi = np.array(psi, dtype=complex).reshape(-1)
    except (TypeError, ValueError):
        raise DimensionError(f"{what} is not a vector of complex numbers") from None
    psi.flags.writeable = False
    n = math.sqrt(np.vdot(psi, psi).real)
    if not math.isfinite(n):
        finite_array(psi, what)
    if abs(n - 1.0) > ATOL_STRUCT:
        raise DimensionError(f"{what} norm {n:.12g} differs from 1 beyond 1e-10")
    return psi


def density_matrix(m, what: str) -> np.ndarray:
    """``m`` as a finite, square complex matrix; one that is not Hermitian,
    PSD (smallest eigenvalue >= -1e-10) and of unit trace within 1e-10
    raises :class:`PositivityError`."""
    m = finite_array(m, what)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{what} shape {m.shape} is not square")
    if not is_hermitian(m):
        raise PositivityError(f"{what} is not Hermitian within 1e-10")
    w = np.linalg.eigvalsh(hermitian_part(m))
    if w.min() < -ATOL_STRUCT:
        raise PositivityError(f"{what} not PSD: smallest eigenvalue {w.min():.3e}")
    tr = np.trace(m)
    if abs(tr.real - 1.0) > ATOL_STRUCT or abs(tr.imag) > ATOL_STRUCT:
        raise PositivityError(f"{what} trace differs from one beyond 1e-10")
    return m


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values of a square matrix."""
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"trace norm needs a square matrix, got {m.shape}")
    return float(np.linalg.svd(m, compute_uv=False).sum())


def psd_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, v), w ascending, of a Hermitian PSD matrix.

    The input must be square and Hermitian within ``PSD_ATOL`` (1e-8), else
    :class:`PositivityError`. Eigenvalues in [-PSD_ATOL, 0) are treated as
    round-off and clamped to zero; anything below -PSD_ATOL raises
    :class:`PositivityError`. Eigenvalues within 1e-12 (relative) of zero
    are zeroed outright: taking the square root of eigensolver round-off
    would otherwise inject sqrt(eps) ~ 1e-8 noise into the null space of
    rank-deficient inputs, while zeroing perturbs the re-multiplication
    identity by at most 1e-12.
    """
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"PSD eigendecomposition needs a square matrix, got {m.shape}")
    if not is_hermitian(m, atol=PSD_ATOL):
        raise PositivityError("PSD eigendecomposition input is not Hermitian within tolerance")
    w, v = np.linalg.eigh(hermitian_part(m))
    if w.min() < -PSD_ATOL:
        raise PositivityError(f"matrix not PSD: smallest eigenvalue {w.min():.3e}")
    w[w < max(w.max(), 0.0) * 1e-12] = 0.0
    return w, v


def matrix_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root from the clamped eigendecomposition of
    :func:`psd_eigh`, whose checks and tolerances it shares."""
    w, v = psd_eigh(m)
    return hermitian_part((v * np.sqrt(w)) @ v.conj().T)


def partial_trace(m: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    Parameters
    ----------
    m : ndarray
        Operator on a tensor product space of shape (d0*d1, d0*d1).
    dims : (d0, d1)
        Dimensions of the two factors, in kron order.
    keep : int
        Which factor to keep (0 or 1).
    """
    m = _as_matrix(m)
    d0, d1 = dims
    if m.shape != (d0 * d1, d0 * d1):
        raise DimensionError(f"operator shape {m.shape} != declared factors {dims}")
    t = m.reshape(d0, d1, d0, d1)
    if keep == 0:
        return np.einsum("abcb->ac", t)
    if keep == 1:
        return np.einsum("abad->bd", t)
    raise DimensionError("keep must be 0 or 1")


def factor_sandwich(left: np.ndarray, m: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(left x 1) m (right x 1) for a d^2 x d^2 matrix m on C^d x C^d.

    Contracts the first tensor factor of m with ``left`` from the left and
    with ``right`` from the right through reshapes, never forming the
    d^2 x d^2 lifts of the d x d factors.
    """
    d = left.shape[0]
    t = (left @ m.reshape(d, d**3)).reshape(d * d, d, d)
    return (t.swapaxes(1, 2) @ right).swapaxes(1, 2).reshape(d * d, d * d)

