"""Distinguishability, generalized visibility and the trade-off between them.

Which-way information is quantified by the distinguishability D of the two
environment states correlated with the arms. The coherence that survives the
channel is quantified by the generalized visibility: with the cross block
map L_01 acting on the second replica of the spin space,

    V_G = d * || (I x L_01)( (1 x sqrt(rho0)) |Phi+><Phi+| (1 x sqrt(rho1)) ) ||_1 ,

and the two always satisfy D^2 + V_G^2 <= 1. With s_i = sqrt(rho_i), the
operator inside the norm is computed by two differently associated routes,
cross-checked on every call:

- the sandwich route contracts the square-root factors into
  M = (I x L_01)(|Phi+><Phi+|), the Gram matrix of the Kraus factors, giving
  (s0^T x 1) M (s1^T x 1);
- the state route multiplies the square roots into the Kraus factors first,
  A_k s0 and B_k s1, and takes the Gram matrix of those.

The environment states are the Gram matrices Tr(A_k rho A_l^dag) of the
dilation, read off without forming the dK x dK operator v rho v^dag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Dilation, PathChannel, Preparation, block_choi, dilate
from .errors import DimensionError, NumericalError
from .linalg import (
    ATOL_DERIVED,
    SpinState,
    dagger,
    factor_sandwich,
    hermitian_part,
    matrix_sqrt,
    trace_norm,
)

__all__ = [
    "DualityReport",
    "SearchResult",
    "brute_force_visibility",
    "distinguishability",
    "environment_states",
    "generalized_visibility",
    "verify_inequality",
    "visibility_operator",
]

INEQUALITY_SLACK_FLOOR = -1e-8


def environment_states(dil: Dilation, prep: Preparation) -> tuple[SpinState, SpinState]:
    """Normalized environment states correlated with arm 0 and arm 1.

    For the isometries v_i and per-arm inputs rho_i these are
    Tr_spin(v_i rho_i v_i^dag), the Gram matrix Tr(A_k rho_i A_l^dag) of the
    Kraus factors A_k = v_i[:, k, :] of v_i viewed as a (d, K, d) array.
    """
    if dil.spin_dim != prep.spin_dim:
        raise DimensionError("dilation and preparation spin dimensions differ")
    d, k = dil.spin_dim, dil.env_dim
    out = []
    for i, rho in enumerate((prep.rho0, prep.rho1)):
        v = dil.isometry(i)
        # row k of x is A_k rho flattened, row k of y is A_k flattened
        x = (v @ rho).reshape(d, k, d).transpose(1, 0, 2).reshape(k, d * d)
        y = v.reshape(d, k, d).transpose(1, 0, 2).reshape(k, d * d)
        out.append(SpinState(k, hermitian_part(x @ y.conj().T)))
    return out[0], out[1]


def distinguishability(e0, e1) -> float:
    """Half the trace norm of the difference of two environment states."""
    m0 = np.asarray(getattr(e0, "matrix", e0), dtype=complex)
    m1 = np.asarray(getattr(e1, "matrix", e1), dtype=complex)
    if m0.shape != m1.shape:
        raise DimensionError(f"environment dimensions differ: {m0.shape} vs {m1.shape}")
    return 0.5 * trace_norm(m0 - m1)


def _check_dims(ch: PathChannel, prep: Preparation) -> None:
    if ch.spin_dim != prep.spin_dim:
        raise DimensionError("channel and preparation spin dimensions differ")


def _sandwich_route(ch: PathChannel, s0: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """(s0^T x 1) M (s1^T x 1) with M = block_choi(ch, 0, 1)."""
    return factor_sandwich(s0.T, block_choi(ch, 0, 1), s1.T)


def _state_route(ch: PathChannel, s0: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """Gram matrix of the vectorized (A_k s0)^T and (B_k s1)^T over d."""
    d, k = ch.spin_dim, ch.n_kraus
    x = (ch.kraus[:, 0] @ s0).transpose(2, 1, 0).reshape(d * d, k)
    y = (ch.kraus[:, 1] @ s1).transpose(2, 1, 0).reshape(d * d, k)
    return x @ y.conj().T / d


def visibility_operator(ch: PathChannel, prep: Preparation) -> np.ndarray:
    """The operator N whose trace norm (times d) is the generalized
    visibility: N = (sqrt(rho0)^T x 1) M (sqrt(rho1)^T x 1)."""
    _check_dims(ch, prep)
    return _sandwich_route(ch, matrix_sqrt(prep.rho0), matrix_sqrt(prep.rho1))


def _visibility_state_route(ch: PathChannel, prep: Preparation) -> float:
    _check_dims(ch, prep)
    s0, s1 = matrix_sqrt(prep.rho0), matrix_sqrt(prep.rho1)
    return ch.spin_dim * trace_norm(_state_route(ch, s0, s1))


def generalized_visibility(ch: PathChannel, prep: Preparation) -> float:
    """Generalized visibility of the channel for the given preparation.

    Both computation routes (sandwich form and state form) are evaluated
    from the same square roots and must agree within 1e-9.
    """
    _check_dims(ch, prep)
    d = ch.spin_dim
    s0, s1 = matrix_sqrt(prep.rho0), matrix_sqrt(prep.rho1)
    value = d * trace_norm(_sandwich_route(ch, s0, s1))
    alt = d * trace_norm(_state_route(ch, s0, s1))
    if abs(value - alt) > ATOL_DERIVED:
        raise NumericalError(
            f"visibility routes disagree: {value!r} vs {alt!r}"
        )
    if value > 1.0 + ATOL_DERIVED:
        raise NumericalError(f"generalized visibility {value!r} exceeds 1")
    return min(value, 1.0)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the explicit maximization over unitaries."""

    value: float
    converged: bool
    restarts: int

    def __float__(self) -> float:
        return self.value


def _newton_polar(x0: np.ndarray, iters: int, tol: float = 1e-13):
    """Unitary polar factor via the Newton iteration X <- (X + X^{-dag})/2."""
    x = x0
    for _ in range(iters):
        try:
            inv = np.linalg.inv(x)
        except np.linalg.LinAlgError:
            return None, False
        x_next = 0.5 * (x + inv.conj().T)
        delta = np.max(np.abs(x_next - x))
        x = x_next
        if delta < tol:
            return x, True
    return x, False


def brute_force_visibility(
    ch: PathChannel,
    prep: Preparation,
    restarts: int = 16,
    iters: int = 100,
    seed: int = 0,
) -> SearchResult:
    """Maximize |Tr(U N)| over explicit unitaries U on the duplicated spin
    space; an independent check of the trace-norm closed form.

    Each candidate value is a certified lower bound on the closed form; the
    exact maximizer is the unitary polar factor of N^dag, found here by the
    inverse-based Newton iteration started from seeded perturbations of N^dag
    (rank-deficient N is regularized at the 1e-9 level, well inside the 1e-6
    agreement tolerance).
    """
    d = ch.spin_dim
    if d > 4:
        raise DimensionError("explicit unitary search supported for spin_dim <= 4")
    n = visibility_operator(ch, prep)
    dim = n.shape[0]
    scale = np.max(np.abs(n))
    if scale < 1e-14:
        return SearchResult(0.0, True, restarts)

    best = 0.0
    converged_values = []
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        x0 = n.conj().T + 1e-9 * scale * noise
        u, ok = _newton_polar(x0, iters)
        if u is None:
            continue
        if np.max(np.abs(dagger(u) @ u - np.eye(dim))) > 1e-9:
            ok = False
        value = d * abs(np.trace(u @ n))
        best = max(best, value)
        if ok:
            converged_values.append(value)
    spread_ok = bool(converged_values) and (
        max(converged_values) - min(converged_values) <= 1e-9 * max(1.0, best)
    )
    return SearchResult(best, spread_ok, restarts)


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
    """Compute D (through the canonical dilation) and V_G and report the
    slack 1 - D^2 - V_G^2, which is nonnegative up to 1e-8."""
    e0, e1 = environment_states(dilate(ch), prep)
    d_value = distinguishability(e0, e1)
    v_value = generalized_visibility(ch, prep)
    return DualityReport(
        distinguishability=d_value,
        visibility=v_value,
        channel_id=ch.label or f"channel(d={ch.spin_dim},k={ch.n_kraus})",
        preparation_id=prep.label or ("pure" if prep.is_pure else "ensemble"),
    )
