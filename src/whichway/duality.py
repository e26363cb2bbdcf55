"""Distinguishability, generalized visibility and the trade-off between them.

A path channel with Kraus pairs (A_k, B_k), k = 1..K, leaves the
environment in one of two K x K states, depending on the arm taken:

    e0[k, l] = Tr(A_k rho0 A_l^dag),    e1[k, l] = Tr(B_k rho1 B_l^dag),

the Gram matrices of the Kraus factors weighted by the per-arm spin states.
They are the reduced states Tr_spin(v_i rho_i v_i^dag) of the canonical
dilation (:func:`whichway.channels.dilate`), whose environment basis is the
Kraus index. Neither is formed from rho_i: with S_i = [sqrt(w_m) psi_i^m]_m
the d x n factor of the n preparation kets (rho_i = S_i S_i^dag), the
K x d*n matrices X_0, X_1 with rows A_k S_0 and B_k S_1 flattened give

    e_i = X_i X_i^dag,

and both quantities follow from X_0 and X_1.
Which-way information is their distinguishability D = ||e0 - e1||_1 / 2.
The coherence that survives the channel is the generalized visibility,
defined with the cross block map L_01 acting on the second replica of the
spin space,

    V_G = d * || (I x L_01)( (1 x sqrt(rho0)) |Phi+><Phi+| (1 x sqrt(rho1)) ) ||_1 ,

and it is the root fidelity of the same two states,

    V_G = F(e0, e1) = || sqrt(e0) sqrt(e1) ||_1 = || X_0^dag X_1 ||_1 ,

the last form by Uhlmann's theorem (Nielsen & Chuang, Thm 9.4): X_i is a
purification of e_i, and the polar factors of X_0 and X_1 leave the
singular values unchanged. Its trace norm has two routes. One SVD of the
d*n x d*n matrix X_0^dag X_1 itself; or a thin QR, X_i^dag = P_i T_i with
P_i an isometry, which brings the norm down to that of the K x K matrix
T_0 T_1^dag. The QR costs more than the rows it removes until d*n exceeds
K by more than ``DIRECT_EXCESS`` (10), so the direct SVD is taken when
d*n <= K + 10 (measured by ``timeit`` of both routes). The route depends
only on the shape of the factors, and neither state is eigendecomposed:
an evaluation takes one Hermitian eigensolve (D) and one SVD (V_G), both
from the LAPACK binding of :mod:`whichway.linalg`, which a non-converging
solver leaves non-finite, so such a D or V_G raises :class:`NumericalError`.

The operator inside the first norm is x y^dag / d, where column k of x (of
y) is the vectorized (A_k sqrt(rho0))^T (the (B_k sqrt(rho1))^T). Its Gram
matrices are x^dag x = e0^T and y^dag y = e1^T, and polar decomposition
gives ||x y^dag||_1 = || |x| |y| ||_1.

The paper's trade-off D^2 + V_G^2 <= 1 is therefore the upper
Fuchs-van de Graaf inequality D <= sqrt(1 - F^2) (C. A. Fuchs and
J. van de Graaf, IEEE Trans. Inf. Theory 45, 1216 (1999); B.-G. Englert,
Phys. Rev. Lett. 77, 2154 (1996) gives the case without an internal degree
of freedom). D and V_G come from one pair of factors, and every evaluation
checks that each environment state has unit trace within 1e-10, that V_G
does not exceed 1 + 1e-9, and the lower half of the same theorem,
D >= 1 - V_G within 1e-9, which fails if either number is wrong.
:func:`visibility_operator` keeps the d^2 x d^2 operator of the definition,
formed as x y^dag / d from the Kraus factors; the sandwich of the block Choi
matrix between sqrt(rho0)^T x 1 and sqrt(rho1)^T x 1, the explicit search
over unitaries that maximizes |Tr(U N)| on N, and the route through the
eigendecompositions of e0 and e1 are test oracles in
``tests/reference_kernels.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import PathChannel, Preparation, _choi_gram
from .errors import DimensionError, NumericalError, PositivityError
from .linalg import (ATOL_DERIVED, ATOL_STRUCT, _eigvalsh, _instance, _singular_values,
                     density_matrix, matrix_sqrt)

__all__ = [
    "DualityReport",
    "distinguishability",
    "environment_states",
    "generalized_visibility",
    "verify_inequality",
    "visibility_operator",
]

INEQUALITY_SLACK_FLOOR = -1e-8
# the largest d*n - K at which one SVD of the d*n x d*n matrix X_0^dag X_1
# is cheaper than a QR of each factor and an SVD of a K x K matrix
# (measured by timeit of both routes at K from 1 to 16)
DIRECT_EXCESS = 10


def _factors(ch: PathChannel, prep: Preparation) -> np.ndarray:
    """The (2, K, d*n) stack x of environment factors, e_i = x[i] x[i]^dag.

    Row k of x[0] (of x[1]) is A_k S_0 (B_k S_1) flattened, where
    S_i = prep.factors[i], the d x n factor [sqrt(w_m) psi_i^m]_m of the n
    preparation kets that :class:`Preparation` builds once, has
    S_i S_i^dag = rho_i.
    """
    return (ch.kraus.swapaxes(0, 1) @ prep.factors[:, None]).reshape(2, ch.n_kraus, -1)


def _check_pair(ch, prep) -> None:
    """Refuse, with :class:`DimensionError`, a ``ch`` that is not a
    :class:`PathChannel`, a ``prep`` that is not a :class:`Preparation`, or
    two spin dimensions that differ."""
    _instance(ch, PathChannel, "channel ch")
    _instance(prep, Preparation, "preparation prep")
    if ch.spin_dim != prep.spin_dim:
        raise DimensionError("channel and preparation spin dimensions differ")


def _environment(ch: PathChannel, prep: Preparation) -> tuple[np.ndarray, np.ndarray]:
    """(x, e): the factors x of :func:`_factors` and the (2, K, K) stack of
    environment states e_i = x[i] x[i]^dag, each of unit trace within 1e-10
    (else :class:`PositivityError`); both traces are read in one pass."""
    _check_pair(ch, prep)
    x = _factors(ch, prep)
    e = x @ x.conj().swapaxes(1, 2)
    t0, t1 = np.einsum("ikk->i", e).real.tolist()
    if abs(t0 - 1.0) > ATOL_STRUCT or abs(t1 - 1.0) > ATOL_STRUCT:
        raise PositivityError("environment state trace differs from one beyond 1e-10")
    return x, e


def environment_states(ch: PathChannel, prep: Preparation) -> tuple[np.ndarray, np.ndarray]:
    """Normalized environment states (e0, e1) correlated with arm 0 and arm 1.

    The Gram matrices Tr(A_k rho_i A_l^dag) of the arm-i Kraus factors, i.e.
    Tr_spin(v_i rho_i v_i^dag) for the isometries v_i of :func:`dilate`,
    built as X_i X_i^dag from the factors behind :func:`generalized_visibility`
    and returned as read-only K x K views of one stack. Each has unit trace
    within 1e-10 (else :class:`PositivityError`), and is Hermitian and PSD
    by construction. For :func:`explicit_transpose_dilation` the environment
    basis is the four transition tags e_1..e_4.
    """
    e = _environment(ch, prep)[1]
    e.flags.writeable = False
    return e[0], e[1]


def _trace_distance(m0: np.ndarray, m1: np.ndarray) -> float:
    """||m0 - m1||_1 / 2 of finite complex Hermitian m0, m1 from the
    eigenvalues of the difference (:func:`~whichway.linalg._eigvalsh`); a
    non-finite value, an eigensolver that did not converge, raises
    :class:`NumericalError`."""
    d_value = 0.5 * float(np.abs(_eigvalsh(m0 - m1)).sum())
    if not math.isfinite(d_value):
        raise NumericalError(f"distinguishability {d_value!r} is not finite")
    return d_value


def distinguishability(e0, e1) -> float:
    """Half the trace norm of the difference of two environment states of
    one dimension, each checked by :func:`~whichway.linalg.density_matrix`."""
    m0 = density_matrix(e0, "environment state e0")
    m1 = density_matrix(e1, "environment state e1")
    if m0.shape != m1.shape:
        raise DimensionError(f"environment dimensions differ: {m0.shape} vs {m1.shape}")
    return _trace_distance(m0, m1)


def _d_and_vg(ch: PathChannel, prep: Preparation) -> tuple[float, float]:
    """(D, V_G) from the K x d*n environment factors X_i of :func:`_factors`.

    D is half the trace norm of X_0 X_0^dag - X_1 X_1^dag, from one K x K
    Hermitian eigensolve (:func:`_trace_distance`). V_G = F(e0, e1) =
    ||X_0^dag X_1||_1 by Uhlmann's theorem, the sum of singular values of
    one matrix chosen from the shape (K, d*n) of the factors alone: while
    d*n <= K + ``DIRECT_EXCESS`` (10), the d*n x d*n matrix X_0^dag X_1
    itself; beyond, the K x K matrix T_0 T_1^dag, where one batched QR gives
    X_i^dag = P_i T_i with P_i an isometry. Both spectra come from the
    binding of :mod:`whichway.linalg`.

    Checks: each arm's trace must be one within 1e-10, else
    :class:`PositivityError`; a non-finite D or V_G (an eigensolver or SVD
    that did not converge), V_G above 1 + 1e-9, or D below the
    Fuchs-van de Graaf floor 1 - V_G - 1e-9 raises :class:`NumericalError`.
    """
    x, e = _environment(ch, prep)
    d_value = _trace_distance(e[0], e[1])
    if x.shape[2] - x.shape[1] <= DIRECT_EXCESS:
        v_value = float(_singular_values(x[0].conj().T @ x[1]).sum())
    else:
        t = np.linalg.qr(x.conj().swapaxes(1, 2), mode="r")
        v_value = float(_singular_values(t[0] @ t[1].conj().T).sum())
    if not math.isfinite(v_value):
        raise NumericalError(f"generalized visibility {v_value!r} is not finite")
    if v_value > 1.0 + ATOL_DERIVED:
        raise NumericalError(f"generalized visibility {v_value!r} exceeds 1")
    v_value = min(v_value, 1.0)
    if d_value < 1.0 - v_value - ATOL_DERIVED:
        raise NumericalError(
            f"Fuchs-van de Graaf bound violated: D={d_value!r} < 1 - V_G={1.0 - v_value!r}"
        )
    return d_value, v_value


def visibility_operator(ch: PathChannel, prep: Preparation) -> np.ndarray:
    """The d^2 x d^2 operator N of the definition, whose trace norm (times
    d) is the generalized visibility: N = x y^dag / d, with column k of x
    (of y) the vectorized (A_k sqrt(rho0))^T ((B_k sqrt(rho1))^T), by the
    convention of :func:`~whichway.channels.block_choi`, and each
    rho_i = S_i S_i^dag formed from the factor S_i = prep.factors[i]."""
    _check_pair(ch, prep)
    s0, s1 = (matrix_sqrt(s @ s.conj().T) for s in prep.factors)
    return _choi_gram(ch.kraus[:, 0] @ s0, ch.kraus[:, 1] @ s1)


def generalized_visibility(ch: PathChannel, prep: Preparation) -> float:
    """Generalized visibility of the channel for the given preparation.

    V_G is the root fidelity F(e0, e1) of the two K x K environment states,
    ||X_0^dag X_1||_1 for their K x d*n factors (see the module docstring),
    computed with D by one kernel that checks D >= 1 - V_G within 1e-9.
    """
    return _d_and_vg(ch, prep)[1]


@dataclass(frozen=True)
class DualityReport:
    """D, V_G and the slack of the trade-off for one channel/preparation."""

    distinguishability: float
    visibility: float
    channel_id: str
    preparation_id: str

    @property
    def slack(self) -> float:
        return 1.0 - self.distinguishability**2 - self.visibility**2

    def __post_init__(self):
        if self.slack < INEQUALITY_SLACK_FLOOR:
            raise NumericalError(
                f"trade-off violated: D={self.distinguishability}, "
                f"V_G={self.visibility}, slack={self.slack}"
            )


def verify_inequality(ch: PathChannel, prep: Preparation) -> DualityReport:
    """Compute D and V_G from the factors of the two K x K environment
    states and report the slack 1 - D^2 - V_G^2, which is nonnegative up to
    1e-8."""
    d_value, v_value = _d_and_vg(ch, prep)
    return DualityReport(
        distinguishability=d_value,
        visibility=v_value,
        channel_id=ch.label or f"channel(d={ch.spin_dim},k={ch.n_kraus})",
        preparation_id=prep.label or ("pure" if prep.is_pure else "ensemble"),
    )
