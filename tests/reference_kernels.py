"""Kronecker-product reference forms of the production kernels.

Each function spells out a kernel's defining formula with explicit
``np.kron`` lifts and a loop over Kraus pairs (or ensemble members). The production kernels compute
the same quantities by reshapes and single matrix products; the kernel tests
compare the two.
"""

import numpy as np

from whichway.linalg import dagger, max_entangled_state, partial_trace


def block_choi(ch, i, j):
    """sum_k (1 x K^(i)_k) |Phi+><Phi+| (1 x K^(j)_k)^dag."""
    d = ch.spin_dim
    phi = max_entangled_state(d)
    proj = np.outer(phi, phi.conj())
    eye = np.eye(d)
    out = np.zeros((d * d, d * d), dtype=complex)
    for ki, kj in ch.blocks(i, j):
        out += np.kron(eye, ki) @ proj @ dagger(np.kron(eye, kj))
    return out


def dilate(ch):
    """Isometries v_i = sum_k K^(i)_k x |k> (kron order spin, environment)."""
    d, k = ch.spin_dim, ch.n_kraus
    v0 = np.zeros((d * k, d), dtype=complex)
    v1 = np.zeros((d * k, d), dtype=complex)
    for n, (a, b) in enumerate(ch.kraus_pairs):
        e = np.eye(k)[:, [n]]
        v0 += np.kron(a, e)
        v1 += np.kron(b, e)
    return v0, v1


def environment_state(v, rho, d, k):
    """Tr_spin(v rho v^dag) through the full dk x dk operator."""
    return partial_trace(v @ rho @ dagger(v), (d, k), keep=1)


def mixed_state(prep, side):
    """sum_m w_m |psi_side^m><psi_side^m| by a loop over the ensemble."""
    out = np.zeros((prep.spin_dim, prep.spin_dim), dtype=complex)
    for w, pair in zip(prep.weights, prep.pairs):
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
    for a, b in ch.kraus_pairs:
        out += np.kron(eye, a) @ sandwiched @ dagger(np.kron(eye, b))
    return out
