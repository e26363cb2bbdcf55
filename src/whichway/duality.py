"""Distinguishability, generalized visibility and the trade-off between them.

A path channel with Kraus pairs (A_k, B_k), k = 1..K, leaves the
environment in one of two K x K states, depending on the arm taken:

    e0[k, l] = Tr(A_k rho0 A_l^dag),    e1[k, l] = Tr(B_k rho1 B_l^dag),

the Gram matrices of the Kraus factors weighted by the per-arm spin states.
They are the reduced states Tr_spin(v_i rho_i v_i^dag) of the canonical
dilation (:func:`whichway.channels.dilate`), whose environment basis is the
Kraus index, and are computed straight from ``ch.kraus``.
Which-way information is their distinguishability D = ||e0 - e1||_1 / 2.
The coherence that survives the channel is the generalized visibility,
defined with the cross block map L_01 acting on the second replica of the
spin space,

    V_G = d * || (I x L_01)( (1 x sqrt(rho0)) |Phi+><Phi+| (1 x sqrt(rho1)) ) ||_1 ,

and it is the root fidelity of the same two states,

    V_G = F(e0, e1) = || sqrt(e0) sqrt(e1) ||_1 .

The operator inside the first norm is x y^dag / d, where column k of x (of
y) is the vectorized (A_k sqrt(rho0))^T (the (B_k sqrt(rho1))^T). Its Gram
matrices are x^dag x = e0^T and y^dag y = e1^T, and polar decomposition
gives ||x y^dag||_1 = || |x| |y| ||_1.

The paper's trade-off D^2 + V_G^2 <= 1 is therefore the upper
Fuchs-van de Graaf inequality D <= sqrt(1 - F^2) (C. A. Fuchs and
J. van de Graaf, IEEE Trans. Inf. Theory 45, 1216 (1999); B.-G. Englert,
Phys. Rev. Lett. 77, 2154 (1996) gives the case without an internal degree
of freedom). D and V_G come from one pair of K x K matrices, and every
evaluation checks the lower half of the same theorem, D >= 1 - V_G within
1e-9, which fails if either number is wrong. :func:`visibility_operator`
keeps the d^2 x d^2 operator of the definition; the explicit search over
unitaries that maximizes |Tr(U N)| on it is a test oracle in
``tests/reference_kernels.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import PathChannel, Preparation, block_choi
from .errors import DimensionError, NumericalError, PositivityError
from .linalg import (
    ATOL_DERIVED,
    ATOL_STRUCT,
    SpinState,
    factor_sandwich,
    fidelity,
    hermitian_part,
    is_hermitian,
    matrix_sqrt,
)

__all__ = [
    "DualityReport",
    "distinguishability",
    "environment_states",
    "generalized_visibility",
    "verify_inequality",
    "visibility_operator",
]

INEQUALITY_SLACK_FLOOR = -1e-8


def _gram(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Tr(A_k rho A_l^dag) for a (K, d, d) stack of Kraus factors A_k."""
    k = kraus.shape[0]
    x = (kraus @ rho).reshape(k, -1)  # row k is A_k rho flattened
    return hermitian_part(x @ kraus.reshape(k, -1).conj().T)


def _environment_grams(ch: PathChannel, prep: Preparation) -> tuple[np.ndarray, np.ndarray]:
    """The K x K environment states e0, e1 as arrays, each of unit trace
    within 1e-10 (else :class:`PositivityError`)."""
    if ch.spin_dim != prep.spin_dim:
        raise DimensionError("channel and preparation spin dimensions differ")
    e0 = _gram(ch.kraus[:, 0], prep.rho0)
    e1 = _gram(ch.kraus[:, 1], prep.rho1)
    for e in (e0, e1):
        if abs(np.trace(e).real - 1.0) > ATOL_STRUCT:
            raise PositivityError("environment state trace differs from one beyond 1e-10")
    return e0, e1


def environment_states(ch: PathChannel, prep: Preparation) -> tuple[SpinState, SpinState]:
    """Normalized environment states correlated with arm 0 and arm 1.

    The Gram matrices Tr(A_k rho_i A_l^dag) of the arm-i Kraus factors, i.e.
    Tr_spin(v_i rho_i v_i^dag) for the isometries v_i of :func:`dilate`,
    built by the kernel behind :func:`generalized_visibility` and validated
    as :class:`SpinState`. For :func:`explicit_transpose_dilation` the
    environment basis is the four transition tags e_1..e_4.
    """
    e0, e1 = _environment_grams(ch, prep)
    return SpinState(ch.n_kraus, e0), SpinState(ch.n_kraus, e1)


def _trace_distance(m0: np.ndarray, m1: np.ndarray) -> float:
    """||m0 - m1||_1 / 2 of Hermitian m0, m1 from the eigenvalues of the
    difference."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(m0 - m1)).sum())


def distinguishability(e0, e1) -> float:
    """Half the trace norm of the difference of two environment states,
    given as :class:`SpinState` or as matrices Hermitian within 1e-10."""
    m0 = np.asarray(getattr(e0, "matrix", e0), dtype=complex)
    m1 = np.asarray(getattr(e1, "matrix", e1), dtype=complex)
    if m0.shape != m1.shape:
        raise DimensionError(f"environment dimensions differ: {m0.shape} vs {m1.shape}")
    if not is_hermitian(m0 - m1):
        raise PositivityError("environment states are not Hermitian within 1e-10")
    return _trace_distance(m0, m1)


def _d_and_vg(ch: PathChannel, prep: Preparation) -> tuple[float, float]:
    """(D, V_G) from the two K x K environment states of the channel.

    Each state must have unit trace within 1e-10, else
    :class:`PositivityError`; :func:`fidelity` runs the Hermitian and PSD
    checks of :func:`psd_eigh` on both. V_G above 1 + 1e-9, or D below the
    Fuchs-van de Graaf floor 1 - V_G - 1e-9, raises :class:`NumericalError`.
    """
    e0, e1 = _environment_grams(ch, prep)
    d_value = _trace_distance(e0, e1)
    v_value = fidelity(e0, e1)
    if v_value > 1.0 + ATOL_DERIVED:
        raise NumericalError(f"generalized visibility {v_value!r} exceeds 1")
    v_value = min(v_value, 1.0)
    if d_value < 1.0 - v_value - ATOL_DERIVED:
        raise NumericalError(
            f"Fuchs-van de Graaf bound violated: D={d_value!r} < 1 - V_G={1.0 - v_value!r}"
        )
    return d_value, v_value


def _sandwich_route(ch: PathChannel, s0: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """(s0^T x 1) M (s1^T x 1) with M = block_choi(ch, 0, 1)."""
    return factor_sandwich(s0.T, block_choi(ch, 0, 1), s1.T)


def visibility_operator(ch: PathChannel, prep: Preparation) -> np.ndarray:
    """The d^2 x d^2 operator N of the definition, whose trace norm (times
    d) is the generalized visibility: N = (sqrt(rho0)^T x 1) M
    (sqrt(rho1)^T x 1) with M = block_choi(ch, 0, 1)."""
    if ch.spin_dim != prep.spin_dim:
        raise DimensionError("channel and preparation spin dimensions differ")
    return _sandwich_route(ch, matrix_sqrt(prep.rho0), matrix_sqrt(prep.rho1))


def generalized_visibility(ch: PathChannel, prep: Preparation) -> float:
    """Generalized visibility of the channel for the given preparation.

    V_G is the root fidelity F(e0, e1) of the two K x K environment states
    (see the module docstring), computed with D by one kernel that checks
    D >= 1 - V_G within 1e-9.
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
    """Compute D and V_G from the two K x K environment states and report
    the slack 1 - D^2 - V_G^2, which is nonnegative up to 1e-8."""
    d_value, v_value = _d_and_vg(ch, prep)
    return DualityReport(
        distinguishability=d_value,
        visibility=v_value,
        channel_id=ch.label or f"channel(d={ch.spin_dim},k={ch.n_kraus})",
        preparation_id=prep.label or ("pure" if prep.is_pure else "ensemble"),
    )
