"""Kronecker-product and loop reference forms of the production kernels.

Each function spells out a kernel's defining formula with explicit
``np.kron`` lifts and a loop over Kraus pairs (or ensemble members, or
phases and rows). The production kernels compute the same quantities by
reshapes, single matrix products and whole-array operations; the kernel
tests compare the two. The Choi-state route of the channel action
(:func:`choi_state`, :func:`apply_via_choi`) and :func:`max_entangled_state`
have no production caller and serve only as oracles, and so do:

- :class:`PathSpinState`, the joint path x spin density operator, and
  :func:`apply_channel`, the channel's action on it in one broadcast
  product (the input and the direct route of :func:`apply_via_choi`);
- :func:`brute_force_visibility` (with :class:`SearchResult`,
  :func:`_newton_polar`, ``SEARCH_RESTARTS`` and ``SEARCH_ITERS``), the
  explicit maximization of |Tr(U N)| over unitaries U on the operator N of
  ``duality.visibility_operator``, which checks the closed form of V_G
  without evaluating it;
- :func:`swap_estimate` and :func:`orthonormal_filter_bound`, the two
  certified visibility bounds summed straight from the record magnitudes,
  which check ``bounds.swap_certificate`` and
  ``bounds.single_preparation_certificate`` without building a contraction;
- :func:`stacks_single_certificate` and :func:`pure_leak_ratio`, the
  stacks route that certified a pure preparation before it was evaluated
  from U-hat's factors alone (``bounds._pure_factors``), kept verbatim:
  the stacks of L and of its projection on psi* psi^T, one batched
  product, the leak check and one ``eigvalsh``; it checks the factor
  route's U-hat and slack byte for byte, and its leak ratio is the
  evidence that a pure set cannot leak;
- :func:`detection_probabilities`, the detector-probability formula
  (p +/- Re(V e^{i phi})) / 2 for one scalar cell, which checks the
  counting simulation;
- :func:`fit_fringes`, the fringe fit by ``np.linalg.lstsq`` on each
  cell's populated phases and an explicit inverse of the normal matrix,
  which checks the production fit without sharing its SVD route;
- :func:`eigh_fidelity`, the root fidelity of two PSD matrices from one
  ``psd_eigh`` of each, and :func:`gram_route`, D and V_G from the two
  K x K environment states built from rho_i (:func:`gram`) through an
  ``eigvalsh`` of their difference and :func:`eigh_fidelity`, which check
  the factor route of ``duality`` at K up to 256;
- :func:`mp_d_and_vg`, D and V_G at 40 significant digits with mpmath from
  the Kraus stack, the weights and the kets, which checks both routes of
  ``duality._d_and_vg`` without sharing a floating-point step with them.

The per-arm states rho_i come from :func:`mixed_state`, a loop over the
ensemble that shares nothing with ``Preparation.factors``.
"""

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import mpmath
import numpy as np

from whichway.bounds import (
    SWAP_KEYS,
    CONTRACTION_TOL,
    BoundCertificate,
    FilterPair,
    FractionalVisibilityRecord,
    _complete_basis_check,
    _record_map,
    rectilinear_filters,
    rectilinear_preparations,
)
from whichway.channels import PathChannel, Preparation, block_map, pure_pair
from whichway.duality import visibility_operator
from whichway.errors import (
    ContractionError,
    DimensionError,
    NumericalError,
    PositivityError,
    SupportError,
)
from whichway import interferometer
from whichway.interferometer import FringeDataset, _allocate, _seed_tuple
from whichway.linalg import (
    ATOL_DERIVED,
    density_matrix,
    hermitian_part,
    matrix_sqrt,
    partial_trace,
    psd_eigh,
    trace_norm,
)

SEARCH_RESTARTS = 16
SEARCH_ITERS = 100


def max_entangled_state(d):
    """Normalized vector sum_l |l>|l> / sqrt(d) on two replicas."""
    if d < 1:
        raise DimensionError("dimension must be >= 1")
    return np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)


def block_choi(ch, i, j):
    """sum_k (1 x K^(i)_k) |Phi+><Phi+| (1 x K^(j)_k)^dag."""
    d = ch.spin_dim
    phi = max_entangled_state(d)
    proj = np.outer(phi, phi.conj())
    eye = np.eye(d)
    out = np.zeros((d * d, d * d), dtype=complex)
    for pair in ch.kraus:
        ki, kj = pair[i], pair[j]
        out += np.kron(eye, ki) @ proj @ np.kron(eye, kj).conj().T
    return out


@dataclass(frozen=True, eq=False)
class PathSpinState:
    """Joint path x spin density operator in 2x2 block form.

    ``blocks[i, j]`` is the d x d spin operator <i|rho|j>; both paths carry
    probability 1/2. ``blocks`` is a read-only copy, so the checked state
    cannot be edited.
    """

    spin_dim: int
    blocks: np.ndarray = field(repr=False)  # shape (2, 2, d, d)

    def __post_init__(self):
        d = self.spin_dim
        b = np.array(self.blocks, dtype=complex)
        if b.shape != (2, 2, d, d):
            raise DimensionError(f"blocks shape {b.shape} != (2, 2, {d}, {d})")
        b.flags.writeable = False
        object.__setattr__(self, "blocks", b)
        density_matrix(self.as_matrix(), "assembled state")
        for i in (0, 1):
            if abs(np.trace(b[i, i]).real - 0.5) > ATOL_DERIVED:
                raise PositivityError("paths are not equiprobable within 1e-9")

    def as_matrix(self) -> np.ndarray:
        d = self.spin_dim
        return self.blocks.swapaxes(1, 2).reshape(2 * d, 2 * d)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "PathSpinState":
        m = np.asarray(m, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise DimensionError(f"expected a 2d x 2d matrix, got {m.shape}")
        d = m.shape[0] // 2
        return cls(d, m.reshape(2, d, 2, d).swapaxes(1, 2))

    @classmethod
    def from_preparation(cls, prep: Preparation) -> "PathSpinState":
        """State of (|0>|psi0^m> + |1>|psi1^m>)/sqrt(2), mixed over the ensemble."""
        kets = preparation_kets(prep)
        b = 0.5 * np.einsum("m,mia,mjb->ijab", prep.weights, kets, kets.conj())
        return cls(prep.spin_dim, b)


def apply_channel(ch: PathChannel, state: PathSpinState) -> PathSpinState:
    """Act with the channel on a joint path-spin state: block (i, j) becomes
    sum_k K^(i)_k rho_ij K^(j)_k^dag, one broadcast product over ``kraus``."""
    if ch.spin_dim != state.spin_dim:
        raise DimensionError("channel and state spin dimensions differ")
    kraus = ch.kraus
    terms = kraus[:, :, None] @ state.blocks @ kraus.conj().swapaxes(-1, -2)[:, None]
    return PathSpinState(ch.spin_dim, terms.sum(axis=0))


def choi_state(ch):
    """Full Choi state of the channel on (path x spin) twice, ordered
    (Q, S, Q', S'); the channel acts on the primed replica."""
    d = ch.spin_dim
    dim = 2 * d
    # |Phi+> on (Q,S,Q',S') = |Phi+>_QQ' x |Phi+>_SS' reordered to (QS)(Q'S')
    phi = np.zeros(dim * dim, dtype=complex)
    for i in (0, 1):
        for l in range(d):
            phi[(i * d + l) * dim + (i * d + l)] = 1.0
    phi /= np.sqrt(dim)
    proj = np.outer(phi, phi.conj())
    eye = np.eye(dim)
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for a, b in ch.kraus:
        k_full = np.zeros((dim, dim), dtype=complex)
        k_full[:d, :d] = a
        k_full[d:, d:] = b
        lifted = np.kron(eye, k_full)
        out += lifted @ proj @ lifted.conj().T
    return out


def apply_via_choi(ch, state):
    """Channel action computed through the Choi state,
    rho' = 2d Tr_{QS}[Choi (rho^T x 1)]; agrees with apply_channel."""
    d = ch.spin_dim
    dim = 2 * d
    lifted = np.kron(state.as_matrix().T, np.eye(dim))
    out = 2 * d * partial_trace(choi_state(ch) @ lifted, (dim, dim), keep=1)
    return PathSpinState.from_matrix(hermitian_part(out))


def dilate(ch):
    """Isometries v_i = sum_k K^(i)_k x |k> (kron order spin, environment)."""
    d, k = ch.spin_dim, ch.n_kraus
    v0 = np.zeros((d * k, d), dtype=complex)
    v1 = np.zeros((d * k, d), dtype=complex)
    for n, (a, b) in enumerate(ch.kraus):
        e = np.eye(k)[:, [n]]
        v0 += np.kron(a, e)
        v1 += np.kron(b, e)
    return v0, v1


def environment_state(v, rho, d, k):
    """Tr_spin(v rho v^dag) through the full dk x dk operator."""
    return partial_trace(v @ rho @ v.conj().T, (d, k), keep=1)


def preparation_kets(prep):
    """kets[m, i] = psi_i^m, read back from the factor columns
    sqrt(w_m) psi_i^m."""
    return prep.factors.transpose(2, 0, 1) / np.sqrt(prep.weights)[:, None, None]


def mixed_state(prep, side):
    """sum_m w_m |psi_side^m><psi_side^m| by a loop over the ensemble."""
    out = np.zeros((prep.spin_dim, prep.spin_dim), dtype=complex)
    for w, pair in zip(prep.weights, preparation_kets(prep)):
        out += w * np.outer(pair[side], pair[side].conj())
    return out


def factor_sandwich(left, m, right):
    """(left x 1) m (right x 1) with the lifts formed explicitly."""
    eye = np.eye(left.shape[0])
    return np.kron(left, eye) @ m @ np.kron(right, eye)


def visibility_sandwich(ch, s0, s1):
    """(s0^T x 1) M (s1^T x 1) with M the kron-form cross block Choi matrix."""
    return factor_sandwich(s0.T, block_choi(ch, 0, 1), s1.T)


def visibility_state(ch, s0, s1):
    """sum_k (1 x A_k) (1 x s0) |Phi+><Phi+| (1 x s1) (1 x B_k)^dag."""
    d = ch.spin_dim
    eye = np.eye(d)
    phi = max_entangled_state(d)
    proj = np.outer(phi, phi.conj())
    sandwiched = np.kron(eye, s0) @ proj @ np.kron(eye, s1)
    out = np.zeros_like(sandwiched)
    for a, b in ch.kraus:
        out += np.kron(eye, a) @ sandwiched @ np.kron(eye, b).conj().T
    return out


def state_route(ch, s0, s1):
    """Gram matrix of the vectorized (A_k s0)^T and (B_k s1)^T over d: the
    visibility operator with the square roots multiplied into the Kraus
    factors first."""
    d, k = ch.spin_dim, ch.n_kraus
    x = (ch.kraus[:, 0] @ s0).transpose(2, 1, 0).reshape(d * d, k)
    y = (ch.kraus[:, 1] @ s1).transpose(2, 1, 0).reshape(d * d, k)
    return x @ y.conj().T / d


def visibility_state_route(ch, prep):
    """d ||N||_1 with N from :func:`state_route` of the matrix_sqrt roots."""
    s0, s1 = matrix_sqrt(mixed_state(prep, 0)), matrix_sqrt(mixed_state(prep, 1))
    return ch.spin_dim * trace_norm(state_route(ch, s0, s1))


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the explicit maximization over unitaries."""

    value: float
    converged: bool

    def __float__(self) -> float:
        return self.value


def _newton_polar(x0: np.ndarray):
    """Unitary polar factor via the Newton iteration X <- (X + X^{-dag})/2,
    at most ``SEARCH_ITERS`` steps, converged when no entry moves by 1e-13."""
    x = x0
    for _ in range(SEARCH_ITERS):
        try:
            inv = np.linalg.inv(x)
        except np.linalg.LinAlgError:
            return None, False
        x_next = 0.5 * (x + inv.conj().T)
        delta = np.max(np.abs(x_next - x))
        x = x_next
        if delta < 1e-13:
            return x, True
    return x, False


def brute_force_visibility(ch: PathChannel, prep: Preparation, seed: int = 0) -> SearchResult:
    """Maximize |Tr(U N)| over explicit unitaries U on the duplicated spin
    space; an independent check of the trace-norm closed form.

    Each candidate value is a certified lower bound on the closed form; the
    exact maximizer is the unitary polar factor of N^dag, found here by the
    inverse-based Newton iteration (at most ``SEARCH_ITERS`` steps) started
    from ``SEARCH_RESTARTS`` seeded perturbations of N^dag (rank-deficient N
    is regularized at the 1e-9 level, well inside the 1e-6 agreement
    tolerance).
    """
    d = ch.spin_dim
    if d > 4:
        raise DimensionError("explicit unitary search supported for spin_dim <= 4")
    n = visibility_operator(ch, prep)
    dim = n.shape[0]
    scale = np.max(np.abs(n))
    if scale < 1e-14:
        return SearchResult(0.0, True)

    best = 0.0
    converged_values = []
    for r in range(SEARCH_RESTARTS):
        rng = np.random.default_rng([seed, r])
        noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        x0 = n.conj().T + 1e-9 * scale * noise
        u, ok = _newton_polar(x0)
        if u is None:
            continue
        if np.max(np.abs(u.conj().T @ u - np.eye(dim))) > 1e-9:
            ok = False
        value = d * abs(np.trace(u @ n))
        best = max(best, value)
        if ok:
            converged_values.append(value)
    spread_ok = bool(converged_values) and (
        max(converged_values) - min(converged_values) <= 1e-9 * max(1.0, best)
    )
    return SearchResult(best, spread_ok)


def fidelity(rho, sigma):
    """||sqrt(rho) sqrt(sigma)||_1 with both square roots formed."""
    return trace_norm(matrix_sqrt(rho) @ matrix_sqrt(sigma))


def eigh_fidelity(rho, sigma) -> float:
    """Root fidelity ||sqrt(rho) sqrt(sigma)||_1 of two PSD matrices of
    equal dimension.

    With rho = U diag(a) U^dag and sigma = W diag(b) W^dag from
    :func:`psd_eigh`, which runs its checks on both, the norm is that of
    diag(sqrt(a)) U^dag W diag(sqrt(b)): the unitaries outside leave the
    singular values unchanged, so neither square root is formed.
    """
    a, u = psd_eigh(rho, "rho")
    b, w = psd_eigh(sigma, "sigma")
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return trace_norm(np.sqrt(a)[:, None] * (u.conj().T @ w) * np.sqrt(b))


def distinguishability(ch, prep):
    """||e0 - e1||_1 / 2 by an SVD, with e_i the partial traces of the full
    dK x dK operators v_i rho_i v_i^dag of the kron-form dilation."""
    d, k = ch.spin_dim, ch.n_kraus
    v0, v1 = dilate(ch)
    e0 = environment_state(v0, mixed_state(prep, 0), d, k)
    e1 = environment_state(v1, mixed_state(prep, 1), d, k)
    return 0.5 * trace_norm(e0 - e1)


def gram(kraus, rho):
    """Tr(A_k rho A_l^dag) for a (K, d, d) stack of Kraus factors A_k."""
    k = kraus.shape[0]
    x = (kraus @ rho).reshape(k, -1)  # row k is A_k rho flattened
    return hermitian_part(x @ kraus.reshape(k, -1).conj().T)


def gram_route(ch, prep):
    """(D, V_G) from the two K x K environment states: D from the eigenvalues
    of e0 - e1, V_G = F(e0, e1) from the two ``psd_eigh`` factors of
    :func:`eigh_fidelity`, clamped at 1."""
    e0, e1 = (gram(ch.kraus[:, side], mixed_state(prep, side)) for side in (0, 1))
    d_value = 0.5 * float(np.abs(np.linalg.eigvalsh(e0 - e1)).sum())
    return d_value, min(eigh_fidelity(e0, e1), 1.0)


def mp_d_and_vg(kraus, weights, pairs, dps: int = 40) -> tuple[float, float]:
    """(D, V_G) at ``dps`` significant digits with mpmath, from the raw
    inputs: the (K, 2, d, d) Kraus stack, the ensemble weights (divided by
    their sum in mpmath) and the (psi0, psi1) ket pairs.

    Row k of X_i holds the entries of A_k S_i (of B_k S_i) with
    S_i = [sqrt(w_m) psi_i^m]_m; D is half the sum of the absolute
    eigenvalues of X_0 X_0^dag - X_1 X_1^dag (``mpmath.eighe``) and V_G the
    sum of the singular values of the d*n x d*n matrix X_0^dag X_1
    (``mpmath.svd_c``), whatever K is.
    """
    k_count, d = kraus.shape[0], kraus.shape[2]
    with mpmath.workdps(dps):
        total = mpmath.fsum(mpmath.mpf(float(w)) for w in weights)
        roots = [mpmath.sqrt(mpmath.mpf(float(w)) / total) for w in weights]
        x = []
        for side in (0, 1):
            s = mpmath.matrix([[root * mpmath.mpc(complex(pair[side][a]))
                                for root, pair in zip(roots, pairs)] for a in range(d)])
            rows = []
            for k in range(k_count):
                prod = mpmath.matrix(kraus[k, side].tolist()) * s
                rows.append([prod[a, m] for a in range(d) for m in range(len(pairs))])
            x.append(mpmath.matrix(rows))
        diff = x[0] * x[0].H - x[1] * x[1].H
        d_value = mpmath.fsum(abs(v) for v in mpmath.eighe(diff, eigvals_only=True)) / 2
        v_value = mpmath.fsum(mpmath.svd_c(x[0].H * x[1], compute_uv=False))
        return float(d_value), float(v_value)


def fractional_visibility(ch, prep, filt):
    """(p, V) of one cell by the block maps of the outer products of the
    kets, cross-checked against d Tr(probe M) with the rank-one probe and
    the kron-form block Choi matrix M."""
    d = ch.spin_dim
    psi0, psi1 = pure_pair(prep, d)
    chi0, chi1 = filt.chi0, filt.chi1
    v_direct = chi0.conj() @ block_map(ch, 0, 1, np.outer(psi0, psi1.conj())) @ chi1
    p_direct = 0.5 * (
        (chi0.conj() @ block_map(ch, 0, 0, np.outer(psi0, psi0.conj())) @ chi0).real
        + (chi1.conj() @ block_map(ch, 1, 1, np.outer(psi1, psi1.conj())) @ chi1).real
    )

    def tensor_route(i, j, left0, left1, right0, right1):
        probe = np.outer(np.outer(left1.conj(), right1), np.outer(left0, right0.conj()))
        return d * np.sum(probe * block_choi(ch, i, j).T)

    v_tensor = tensor_route(0, 1, psi0, psi1, chi0, chi1)
    p_tensor = 0.5 * (
        tensor_route(0, 0, psi0, psi0, chi0, chi0).real
        + tensor_route(1, 1, psi1, psi1, chi1, chi1).real
    )
    if abs(v_direct - v_tensor) > 1e-10 or abs(p_direct - p_tensor) > 1e-10:
        raise NumericalError("direct and tensor routes disagree beyond 1e-10")
    return float(np.clip(p_direct, 0.0, 1.0)), complex(v_direct)


def support_projector(s):
    """(projector onto range, pseudo-inverse) of a Hermitian PSD matrix by
    its own eigendecomposition."""
    w, v = np.linalg.eigh(hermitian_part(s))
    cutoff = max(w.max(), 0.0) * 1e-10 + 1e-300
    mask = w > cutoff
    proj = (v[:, mask]) @ v[:, mask].conj().T
    inv = (v[:, mask] / w[mask]) @ v[:, mask].conj().T
    return proj, inv


def verify_alpha_constraint(alphas, preps, filters, rho0, rho1, tol=1e-8):
    """The certificate check with L summed term by term as
    alpha (|psi0><psi1|)^T x |chi1><chi0|, the square roots taken by
    matrix_sqrt and their supports by a second eigendecomposition, and the
    sandwiches formed with explicit kron lifts."""
    d = np.asarray(rho0).shape[0]
    left = np.zeros((d * d, d * d), dtype=complex)
    for (mu, nu), alpha in alphas.items():
        psi0, psi1 = preps[mu]
        filt = filters[nu]
        left += alpha * np.kron(np.outer(psi0, np.conj(psi1)).T,
                                np.outer(filt.chi1, np.conj(filt.chi0)))
    p0, inv0 = support_projector(matrix_sqrt(rho0).T)
    p1, inv1 = support_projector(matrix_sqrt(rho1).T)
    projected = factor_sandwich(p1, left, p0)
    if np.linalg.norm(left - projected) > tol * max(np.linalg.norm(left), 1e-12):
        raise SupportError("combination leaks outside the support")
    u_hat = factor_sandwich(inv1, left, inv0)
    slack = float(np.linalg.eigvalsh(hermitian_part(u_hat.conj().T @ u_hat)).max() - 1.0)
    if slack > tol:
        raise ContractionError(f"contraction violated: slack {slack:.3e}")
    return BoundCertificate(alphas=dict(alphas), u_hat=u_hat, contraction_slack=slack)


# The stacks route of the pure certificate, as the package ran it before the
# factor route: support projectors psi* psi^T, the (2, n, d^2) stacks of L and
# its projection, one batched product, the leak check and one eigvalsh.
# Kept verbatim as the oracle of bounds._pure_factors.

def _ket_support(psi: np.ndarray) -> np.ndarray:
    """sqrt(|psi><psi|)^T = psi* psi^T for a unit ket psi, or for each ket of
    a stack in one broadcast product: the projector onto its own range, and
    so its own pseudo-inverse."""
    return psi.conj()[..., :, None] * psi[..., None, :]


def _stacks(
    kets: np.ndarray,
    chis: np.ndarray,
    support0: tuple[np.ndarray, np.ndarray],
    support1: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stacks (rows, chi1, w) of a certificate's n terms, which
    :func:`_certify` reads with the coefficients; none depends on them.

    ``kets`` and ``chis`` broadcast to (2, n, d): row m of arm i holds the
    preparation ket psi_i and the filter ket chi_i of term m, checked unit
    kets of one dimension d. Each support is an arm's (support projector,
    pseudo-inverse) of sqrt(rho)^T; arms whose two matrices are one object
    (pure preparations) make U-hat the projected L. Of
    L = sum_m alpha_m (psi1* x chi1)(psi0 x chi0*)^T, the rows psi1* are
    projected by P1 (and inv1) and the columns psi0 by P0^T (and inv0^T):
    ``rows`` stacks psi1* and its projections, ``chi1`` is the lower-arm
    filter kets, and ``w`` the (s, n, d^2) column factors psi0 x chi0* of L,
    of its projection and (for mixed arms) of U-hat.
    """
    (p0, inv0), (p1, inv1) = support0, support1
    pure = p0 is inv0 and p1 is inv1
    row, col = kets[1].conj(), kets[0]
    rows = np.array((row, row @ p1.T) if pure else (row, row @ p1.T, row @ inv1.T))
    cols = np.array((col, col @ p0) if pure else (col, col @ p0, col @ inv0))
    s, (n, d) = len(rows), chis.shape[1:]
    w = np.einsum("smc,me->smce", cols, chis[0].conj()).reshape(s, n, d * d)
    return rows, chis[1], w


def _certify(alphas: np.ndarray, stacks) -> tuple[np.ndarray, float]:
    """(U-hat, contraction slack) of the n complex coefficients ``alphas``
    on the :func:`_stacks` of their terms: the row factors
    u = psi1* x (alpha chi1) of L, of its projection and of U-hat meet the
    column factors ``w`` in one batched product."""
    rows, chi1, w = stacks
    s, n, dd = w.shape
    u = np.einsum("sma,mb->smab", rows, chi1 * alphas[:, None]).reshape(s, n, dd)
    mats = u.transpose(0, 2, 1) @ w
    left, projected, u_hat = mats[0], mats[1], mats[-1]

    leak = left - projected
    norm_l = math.sqrt(np.vdot(left, left).real)
    if math.sqrt(np.vdot(leak, leak).real) > CONTRACTION_TOL * max(norm_l, 1e-12):
        raise SupportError(
            "combination leaks outside the support of the preparation states; "
            "no contraction factorization exists"
        )
    # eigvalsh reads one triangle of the Hermitian U-hat^dag U-hat
    slack = float(np.linalg.eigvalsh(u_hat.conj().T @ u_hat)[-1] - 1.0)
    if slack > CONTRACTION_TOL:
        raise ContractionError(
            f"contraction violated: slack {slack:.3e} > tol {CONTRACTION_TOL:.1e}")
    return u_hat, slack


def _single_stacks(preps, filters: dict[str, FilterPair], mu: str, nus) -> tuple:
    """The :func:`_stacks` of preparation ``mu`` with the filters ``nus``,
    which :func:`_complete_basis_check` checks first; each arm's support
    projector and pseudo-inverse are one object, psi* psi^T."""
    chis = _complete_basis_check(filters, nus)
    if mu not in preps:
        raise DimensionError(f"no preparation {mu!r}")
    psi = np.array(pure_pair(preps[mu], chis.shape[2]))
    r0, r1 = _ket_support(psi)
    # one object as both matrices of an arm takes the kernel's pure route
    return _stacks(psi[:, None], chis, (r0, r0), (r1, r1))


def stacks_single_certificate(alphas, preps, filters) -> tuple[np.ndarray, float]:
    """(U-hat, slack) of the pure set with coefficients ``alphas``, keyed
    (mu, nu) for one mu as a certificate's ``alphas`` are, by the stacks
    route."""
    (mu,) = {mu for mu, _ in alphas}
    return _certify(np.array(list(alphas.values())),
                    _single_stacks(preps, filters, mu, [nu for _, nu in alphas]))


def pure_leak_ratio(psi0, psi1, chis, alphas) -> float:
    """||L - P1 L P0|| / ||L|| of a pure set as the stacks route forms it,
    for kets of any norm: the ratio the leak check compares with
    ``CONTRACTION_TOL``."""
    r0, r1 = _ket_support(np.array([psi0, psi1]))
    rows, chi1, w = _stacks(np.array([psi0, psi1])[:, None], chis, (r0, r0), (r1, r1))
    s, n, dd = w.shape
    u = np.einsum("sma,mb->smab", rows, chi1 * alphas[:, None]).reshape(s, n, dd)
    left, projected = u.transpose(0, 2, 1) @ w
    return float(np.linalg.norm(left - projected) / np.linalg.norm(left))


def orthonormal_filter_bound(records, filters):
    """Visibility bound sum_nu |V^nu| for a single preparation filtered in
    complete orthonormal bases in both arms, clamped to [0, 1]."""
    recs = list(_record_map(records).values())
    mus = {r.mu for r in recs}
    if len(mus) != 1:
        raise DimensionError(f"expected records for a single preparation, got {sorted(mus)}")
    _complete_basis_check(filters, [r.nu for r in recs])
    return float(min(sum(abs(r.visibility) for r in recs), 1.0))


def swap_estimate(records):
    """Four-term bound (|V^{hh,hh}| + |V^{hv,vh}| + |V^{vh,hv}| + |V^{vv,vv}|)/2
    for the completely mixed preparation, clamped to [0, 1]."""
    recs = _record_map(records)
    missing = [k for k in SWAP_KEYS if k not in recs]
    if missing:
        raise DimensionError(f"missing records for {missing}")
    return float(min(0.5 * sum(abs(recs[k].visibility) for k in SWAP_KEYS), 1.0))


def detection_probabilities(p, visibility, phi):
    """Probabilities (p_plus, p_minus) at the two interferometer outputs for
    phase phi: (p +/- Re(V e^{i phi})) / 2, for one scalar cell."""
    if not 0.0 <= p <= 1.0:
        raise DimensionError(f"p={p} outside [0, 1]")
    if abs(visibility) > p + 1e-12:
        raise DimensionError(f"|V|={abs(visibility)} exceeds p={p}")
    osc = (visibility * cmath.exp(1j * phi)).real
    return max(0.5 * (p + osc), 0.0), max(0.5 * (p - osc), 0.0)


def unitary_rows(ch):
    """[(w_k, A_k / sqrt(w_k), B_k / sqrt(w_k))] by a loop over Kraus pairs,
    or None unless A_k^dag A_k = B_k^dag B_k = w_k 1 for every pair."""
    d = ch.spin_dim
    eye = np.eye(d)
    rows = []
    for a, b in ch.kraus:
        ga, gb = a.conj().T @ a, b.conj().T @ b
        wa = np.trace(ga).real / d
        wb = np.trace(gb).real / d
        if wa < 1e-12 or abs(wa - wb) > ATOL_DERIVED:
            return None
        if np.max(np.abs(ga - wa * eye)) > ATOL_DERIVED or np.max(np.abs(gb - wb * eye)) > ATOL_DERIVED:
            return None
        s = np.sqrt(wa)
        rows.append((wa, a / s, b / s))
    return rows


def probability_table(ch, psi0, psi1, filt, phases, contrast, shots_per_phase):
    """Shots of each row and, per phase, the list of the rows' normalised
    detector probabilities, built one (phase, row) at a time from the
    arm-unitary pairs of :func:`unitary_rows`, or from one pooled row of
    ``block_map`` terms."""
    chi0, chi1 = filt.chi0, filt.chi1
    rows = unitary_rows(ch)
    if rows is None:
        f0 = (chi0.conj() @ block_map(ch, 0, 0, np.outer(psi0, psi0.conj())) @ chi0).real
        f1 = (chi1.conj() @ block_map(ch, 1, 1, np.outer(psi1, psi1.conj())) @ chi1).real
        v = chi0.conj() @ block_map(ch, 0, 1, np.outer(psi0, psi1.conj())) @ chi1
        cells = [(1.0, f0, f1, v)]
    else:
        cells = []
        for w, u0, u1 in rows:
            a0 = chi0.conj() @ u0 @ psi0
            a1 = chi1.conj() @ u1 @ psi1
            cells.append((w, abs(a0) ** 2, abs(a1) ** 2, a0 * np.conj(a1)))

    allocation = _allocate(shots_per_phase, [c[0] for c in cells])
    table = []
    for phi in phases:
        per_row = []
        for _, f0, f1, v in cells:
            osc = (contrast * v * np.exp(1j * phi)).real
            pvals = np.array([
                0.5 * (0.5 * (f0 + f1) + osc),
                0.5 * (0.5 * (f0 + f1) - osc),
                0.5 * (1.0 - f0),
                0.5 * (1.0 - f1),
            ])
            pvals = np.clip(pvals, 0.0, None)
            per_row.append(pvals / pvals.sum())
        table.append(per_row)
    return allocation, table


def simulate_fringes(ch, prep, filt, phases=None, shots_per_phase=10_000,
                     efficiencies=(1.0, 1.0, 1.0, 1.0), contrast=1.0, seed=0):
    """Counts of one cell drawn from :func:`probability_table` by one
    generator, ``np.random.default_rng(seed)``: one scalar multinomial per
    (phase, row), phases outer, then one scalar binomial per
    (detector, phase), detectors outer."""
    psi0, psi1 = pure_pair(prep, ch.spin_dim)
    if phases is None:
        phases = np.linspace(0.0, 2.0 * np.pi, 13)
    phases = tuple(float(p) for p in phases)
    seed_seq = _seed_tuple(seed)
    shots, table = probability_table(ch, psi0, psi1, filt, phases, contrast, shots_per_phase)
    rng = np.random.default_rng(seed_seq)
    raw = np.zeros((4, len(phases)), dtype=np.int64)
    for j, per_row in enumerate(table):
        for n_shots, pvals in zip(shots, per_row):
            raw[:, j] += rng.multinomial(n_shots, pvals)
    counts = np.zeros_like(raw)
    for i in range(4):
        for j in range(len(phases)):
            counts[i, j] = rng.binomial(raw[i, j], efficiencies[i])
    return FringeDataset(phases, counts, shots_per_phase, seed_seq, efficiencies)


def binomial_resample(ds, reference_efficiency, seed):
    """Counts thinned to the reference efficiency from
    ``np.random.default_rng(seed)``, one scalar binomial per
    (detector, phase), detectors outer."""
    rng = np.random.default_rng(_seed_tuple(seed))
    counts = [[rng.binomial(n, reference_efficiency / e) for n in row]
              for row, e in zip(ds.counts.tolist(), ds.efficiencies)]
    return replace(ds, counts=np.array(counts), efficiencies=(reference_efficiency,) * 4)


def simulate_cells(ch, seed, phases=None, shots_per_phase=10_000,
                   efficiencies=(1.0, 1.0, 1.0, 1.0), contrast=1.0):
    """(mu, nu, dataset) of the 16 rectilinear cells, one cell at a time:
    :func:`simulate_fringes` above seeded ``seed + (i_mu, i_nu)``, with every
    detector at the lowest efficiency."""
    preparations, filters = rectilinear_preparations(), rectilinear_filters()
    seed_seq = _seed_tuple(seed)
    cells = []
    for i_mu, mu in enumerate(sorted(preparations)):
        for i_nu, nu in enumerate(sorted(filters)):
            ds = simulate_fringes(
                ch, preparations[mu], filters[nu], phases, shots_per_phase=shots_per_phase,
                efficiencies=(min(efficiencies),) * 4, contrast=contrast,
                seed=seed_seq + (i_mu, i_nu),
            )
            cells.append((mu, nu, ds))
    return cells


class Fit(NamedTuple):
    p: float
    visibility: complex
    sigma_p: float
    sigma_v: float
    residual_rms: float


def fit_fringes(ds):
    """The fringe fit of one dataset by ``np.linalg.lstsq`` on its populated
    (nonzero-total) phases alone, one design row per (detector, phase):
    n_plus / T = (p + Re V cos phi - Im V sin phi) / 2 and n_minus / T with
    the fringe term negated. The covariance is (D^T D)^-1 times the residual
    variance over 2 * (populated phases) - 3 degrees of freedom; sigma_v is
    the delta-method spread of |V| along V / |V|, or the mean of the two
    V variances when |V| <= 1e-12."""
    counts = ds.counts.astype(float)
    total = counts.sum(axis=0)
    rows, y = [], []
    for sign, n in ((1.0, counts[0]), (-1.0, counts[1])):
        for phi, c, t in zip(ds.phases, n, total):
            if t > 0:
                rows.append([0.5, 0.5 * sign * np.cos(phi), -0.5 * sign * np.sin(phi)])
                y.append(c / t)
    design, y = np.array(rows), np.array(y)
    beta = np.linalg.lstsq(design, y, rcond=None)[0]
    resid = y - design @ beta
    var = resid @ resid / (len(y) - 3)
    cov = np.linalg.inv(design.T @ design)
    mag = np.hypot(beta[1], beta[2])
    if mag > 1e-12:
        grad = beta[1:] / mag
        spread = grad @ cov[1:, 1:] @ grad
    else:
        spread = 0.5 * (cov[1, 1] + cov[2, 2])
    return Fit(p=float(np.clip(beta[0], 0.0, 1.0)), visibility=complex(beta[1], beta[2]),
               sigma_p=float(np.sqrt(max(var * cov[0, 0], 0.0))),
               sigma_v=float(np.sqrt(max(var * spread, 0.0))),
               residual_rms=float(np.sqrt(np.mean(resid**2))))


def fit_record(ds):
    """:func:`fit_fringes` above as an unlabelled record, as the production
    ``fit_fringes`` returns it."""
    return FractionalVisibilityRecord("", "", *fit_fringes(ds))


def run_experiment(ch, seed, fit=interferometer.fit_fringes, **kwargs):
    """The cells of :func:`simulate_cells`, each fitted on its own by
    ``fit`` (the production ``fit_fringes`` unless given) and labelled with
    its (mu, nu)."""
    return [replace(fit(ds), mu=mu, nu=nu) for mu, nu, ds in simulate_cells(ch, seed, **kwargs)]
