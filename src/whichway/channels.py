"""Path-preserving quantum channels and their representations.

A particle split over two interferometer arms with a d-dimensional internal
(spin) subsystem experiences channels that never transfer amplitude between
the arms. Every Kraus operator of such a channel is block diagonal in the
path basis, K_k = |0><0| x A_k + |1><1| x B_k, so the channel is stored as
one stacked complex array ``kraus`` of shape (K, 2, d, d) with
``kraus[k, 0] = A_k`` and ``kraus[k, 1] = B_k``. The four block maps are

    L_ij(sigma) = sum_k K^(i)_k sigma K^(j)_k^dag,   K^(0) = A, K^(1) = B,

the diagonal blocks being the per-arm channels and the 01 block carrying the
inter-arm coherence. The kernels :func:`block_choi` and :func:`dilate` are
reshapes and single matrix products on that array. The Kraus index is also
the environment basis of the canonical dilation, so no second array form of
a channel is kept: the dilation isometries are one reshape of ``kraus``, and
an explicit dilation such as :func:`explicit_transpose_dilation` is a
:class:`PathChannel` whose k-th Kraus pair is the transition tagged by
environment ket |e_k>. The joint path x spin state and the channel's action
on it are test oracles in ``tests/reference_kernels.py``.

Each class keeps one stored form, :class:`PathChannel` its ``kraus`` and
:class:`Preparation` its ``weights`` and ``factors``; a channel also keeps
what its constructor derives from ``kraus`` while checking it, the
read-only ``unitary_weights``. Both compare and hash by identity: two
separately built objects are unequal even when their arrays agree.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import InitVar, dataclass, field
from types import MappingProxyType

import numpy as np

from ._files import read_text, write_text
from .errors import DimensionError, InputFormatError, PositivityError
from .linalg import (
    ATOL_DERIVED,
    ATOL_STRUCT,
    MAX_DIM,
    _density_eigh,
    _eigvalsh,
    _frozen,
    _generators,
    _instance,
    _mapping,
    _text,
    finite_array,
    int_at_least,
    ket,
    unit_ket,
)

__all__ = [
    "PathChannel",
    "Preparation",
    "block_choi",
    "block_map",
    "dilate",
    "dumps_channel",
    "explicit_transpose_dilation",
    "identity_channel",
    "load_channel",
    "loads_channel",
    "pauli_mixture_channel",
    "pure_pair",
    "random_path_channel",
    "replace_channel",
    "save_channel",
    "transpose_channel",
]

PAULI_X = _frozen(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Y = _frozen(np.array([[0, -1j], [1j, 0]], dtype=complex))
PAULI_Z = _frozen(np.array([[1, 0], [0, -1]], dtype=complex))


def _ket_pair(pair, m: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Pure pair ``m`` as two kets checked by :func:`unit_ket`; anything but
    two kets raises :class:`DimensionError`."""
    try:
        psi0, psi1 = pair
    except (TypeError, ValueError):
        raise DimensionError(f"pure pair {m} is not two kets (psi0, psi1)") from None
    return unit_ket(psi0, "psi0"), unit_ket(psi1, "psi1")


@dataclass(frozen=True, eq=False)
class Preparation:
    """Input spin preparation for the two arms, built from n weighted pure
    pairs (psi0^m, psi1^m) of unit kets of one dimension d (n = 1: pure).

    The kets are not kept: the one stored form of the per-arm states is
    ``factors``, the read-only (2, d, n) stack of the factors
    S_i = [sqrt(w_m) psi_i^m]_m. rho_i, the weighted mixture of
    |psi_i^m><psi_i^m|, is S_i S_i^dag. The weights must be real numbers
    (checked as floats after :func:`finite_array`), positive, sum to one
    within 1e-10 and are stored divided by their sum, so each rho_i has
    unit trace to round-off. A ``label`` that is not a str raises
    :class:`DimensionError`.
    """

    weights: tuple[float, ...]
    pairs: InitVar[tuple]
    factors: np.ndarray = field(init=False, repr=False)
    label: str = ""

    def __post_init__(self, pairs):
        _text(self.label, "preparation label")
        try:
            weights, pairs = tuple(self.weights), tuple(pairs)
        except TypeError:
            raise DimensionError("weights and pure pairs must be sequences") from None
        if len(weights) != len(pairs) or not pairs:
            raise DimensionError("weights and pure pairs must align and be non-empty")
        values = finite_array(weights, "ensemble weights")
        if values.ndim != 1 or values.imag.any():
            raise DimensionError("ensemble weights must be real numbers, one per pair")
        weights = values.real.tolist()
        if any(w <= 0 for w in weights):
            raise DimensionError("ensemble weights must be positive")
        total = sum(weights)
        if abs(total - 1.0) > ATOL_STRUCT:
            raise DimensionError("ensemble weights must sum to 1 within 1e-10")
        kets = [_ket_pair(pair, m) for m, pair in enumerate(pairs)]
        if len({psi.size for pair in kets for psi in pair}) != 1:
            raise DimensionError("preparation kets must all have one dimension")
        weights = tuple(w / total for w in weights)
        factors = np.array(kets).transpose(1, 2, 0) * np.sqrt(weights)  # factors[i] = S_i
        factors.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "factors", factors)

    @classmethod
    def pure(cls, psi0, psi1, label: str = "") -> "Preparation":
        return cls((1.0,), ((psi0, psi1),), label=label)

    @classmethod
    def ensemble(cls, weights, pairs, label: str = "") -> "Preparation":
        return cls(weights, pairs, label=label)

    @classmethod
    def completely_mixed(cls, dim: int, label: str = "mixed") -> "Preparation":
        """Uniform ensemble of basis pairs (|l>, |l>): rho_0 = rho_1 = 1/d,
        for a ``dim`` in [1, ``MAX_DIM``]."""
        dim = int_at_least(dim, "dim", 1, MAX_DIM)
        pairs = tuple((ket(l, dim), ket(l, dim)) for l in range(dim))
        return cls((1.0 / dim,) * dim, pairs, label=label)

    @property
    def spin_dim(self) -> int:
        return self.factors.shape[1]

    @property
    def is_pure(self) -> bool:
        return self.factors.shape[2] == 1


def pure_pair(prep, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The kets (psi0, psi1) of a pure :class:`Preparation`, read-only views
    of column 0 of its factors (sqrt(1) psi_i = psi_i exactly), or of a
    (psi0, psi1) tuple of unit kets (checked by :func:`unit_ket`), checked
    to have dimension d."""
    if isinstance(prep, Preparation):
        if not prep.is_pure:
            raise DimensionError(
                f"expected a pure preparation, got an ensemble of {len(prep.weights)} pairs"
            )
        psi0, psi1 = prep.factors[:, :, 0]
    else:
        psi0, psi1 = _ket_pair(prep)
    if psi0.size != d or psi1.size != d:
        raise DimensionError(f"preparation kets do not have dimension {d}")
    return psi0, psi1


def _unitary_weights(grams: np.ndarray) -> np.ndarray | None:
    """The read-only weights w_k of a (K, 2, d, d) per-Kraus Gram stack if
    every pair is a sub-normalized unitary pair, else None."""
    d = grams.shape[-1]
    w = np.trace(grams, axis1=-2, axis2=-1).real / d
    wa = w[:, 0]
    if (wa < 1e-12).any() or (np.abs(wa - w[:, 1]) > ATOL_DERIVED).any():
        return None
    if np.abs(grams - w[..., None, None] * np.eye(d)).max() > ATOL_DERIVED:
        return None
    return _frozen(w)[:, 0]


@dataclass(frozen=True, eq=False)
class PathChannel:
    """Path-preserving channel stored as one stacked Kraus array.

    ``kraus``, an array or a sequence of pairs (A_k, B_k) read by
    :func:`~whichway.linalg.finite_array`, is stored as a read-only copy of
    shape (K, 2, d, d), K, d >= 1, else :class:`DimensionError`;
    ``spin_dim`` and ``n_kraus`` read its shape.
    Entries must be finite, and trace preservation (sum A^dag A = sum B^dag B
    = 1) is enforced in operator norm within 1e-10, so every state the
    channel outputs has unit trace within 1e-10; entries large enough to
    overflow the sum fail it. ``metadata`` is stored as a
    read-only view (``MappingProxyType``) of a copy of the mapping given;
    anything else, and a ``label`` that is not a str, raises
    :class:`DimensionError`. A copied or unpickled channel is built again
    through these checks.

    ``unitary_weights`` is derived from the same per-Kraus Gram stack
    K_k^dag K_k whose sum the trace check reads: the read-only weights w_k
    if every Kraus pair is a sub-normalized unitary pair (A_k^dag A_k =
    B_k^dag B_k = w_k 1 within 1e-9, w_k >= 1e-12), else None. The counting
    simulation of :mod:`whichway.interferometer` draws such a channel as the
    arm-unitary rows (A_k, B_k) / sqrt(w_k).
    """

    kraus: np.ndarray = field(repr=False)
    label: str = ""
    metadata: Mapping = field(default_factory=dict)
    unitary_weights: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        _text(self.label, "channel label")
        kraus = np.array(finite_array(self.kraus, "Kraus blocks"))
        if kraus.ndim != 4 or kraus.shape[1:3] != (2, kraus.shape[3]) or not kraus.size:
            raise DimensionError(f"Kraus stack shape {kraus.shape} is not (K, 2, d, d), K, d >= 1")
        kraus.flags.writeable = False
        object.__setattr__(self, "kraus", kraus)
        object.__setattr__(self, "metadata",
                           MappingProxyType(dict(_mapping(self.metadata, "metadata"))))
        grams = kraus.conj().swapaxes(-1, -2) @ kraus  # grams[k, s] = K^(s)_k^dag K^(s)_k
        err = np.abs(_eigvalsh(grams.sum(axis=0) - np.eye(self.spin_dim))).max(axis=1)
        for name, side in (("A", 0), ("B", 1)):
            if not err[side] <= ATOL_STRUCT:  # NaN too: the sum overflowed
                raise PositivityError(
                    f"{name}-side Kraus blocks are not trace preserving within 1e-10"
                )
        object.__setattr__(self, "unitary_weights", _unitary_weights(grams))

    def __reduce__(self):
        # a MappingProxyType cannot be pickled, and the constructor makes
        # the copy's arrays read-only again
        return PathChannel, (self.kraus, self.label, dict(self.metadata))

    @property
    def spin_dim(self) -> int:
        return self.kraus.shape[2]

    @property
    def n_kraus(self) -> int:
        return self.kraus.shape[0]


def _path_indices(i, j) -> tuple[int, int]:
    """The path indices i and j, each an integer 0 or 1."""
    return int_at_least(i, "path index i", 0, 1), int_at_least(j, "path index j", 0, 1)


def block_map(ch: PathChannel, i: int, j: int, sigma: np.ndarray) -> np.ndarray:
    """Apply the block map L_ij to a spin operator, a finite d x d array."""
    _instance(ch, PathChannel, "channel ch")
    i, j = _path_indices(i, j)
    sigma = finite_array(sigma, "sigma")
    if sigma.shape != (ch.spin_dim, ch.spin_dim):
        raise DimensionError(f"operator shape {sigma.shape} != spin dim {ch.spin_dim}")
    out = np.zeros_like(sigma)
    for ki, kj in zip(ch.kraus[:, i], ch.kraus[:, j]):
        out += ki @ sigma @ kj.conj().T
    return out


def _choi_gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k (1 x a_k)|Phi+><Phi+|(1 x b_k^dag) of two (K, d, d) stacks, as
    x y^dag / d: column k of x (of y) is the row-major vec(a_k^T) (vec(b_k^T)),
    since (1 x a_k)|Phi+> = vec(a_k^T) / sqrt(d)."""
    k, d, _ = a.shape
    x, y = (m.transpose(2, 1, 0).reshape(d * d, k) for m in (a, b))
    return x @ y.conj().T / d


def block_choi(ch: PathChannel, i: int, j: int) -> np.ndarray:
    """(I x L_ij) acting on the maximally entangled projector of two spin
    replicas, a d^2 x d^2 matrix that fully encodes the block map: the
    :func:`_choi_gram` of K^(i) and K^(j), K^(0) = A, K^(1) = B."""
    _instance(ch, PathChannel, "channel ch")
    i, j = _path_indices(i, j)
    return _choi_gram(ch.kraus[:, i], ch.kraus[:, j])


def dilate(ch: PathChannel) -> np.ndarray:
    """Isometries of the canonical dilation, one environment ket per Kraus
    pair, as a read-only (2, d*K, d) array.

    Row m*K + n of ``dilate(ch)[i]`` is row m of the n-th Kraus factor on
    side i (kron order spin, environment). Each v_i is an isometry,
    v_i^dag v_i = sum_k K^(i)_k^dag K^(i)_k = 1, by the trace-preservation
    check of :class:`PathChannel`.
    """
    _instance(ch, PathChannel, "channel ch")
    d, k = ch.spin_dim, ch.n_kraus
    v = ch.kraus.transpose(1, 2, 0, 3).reshape(2, d * k, d)
    v.flags.writeable = False
    return v


# ---------------------------------------------------------------------------
# Builders


def identity_channel(d: int) -> PathChannel:
    """Both arms untouched: one Kraus pair (1, 1) of dimension d, at most
    ``MAX_DIM``."""
    d = int_at_least(d, "d", 1, MAX_DIM)
    eye = np.eye(d, dtype=complex)
    return PathChannel(((eye, eye),), label=f"identity(d={d})")


def replace_channel(sigma0: np.ndarray) -> PathChannel:
    """Channel whose cross block is sigma -> sigma0 Tr(sigma).

    The internal state in each arm is handed to the environment and replaced
    with sigma0, which must be a density matrix (Hermitian, PSD, unit trace)
    for a completely positive realization to exist.
    """
    sigma0, w, vecs = _density_eigh(sigma0, "sigma0")
    d = sigma0.shape[0]
    pairs = []
    for r in range(d):
        if w[r] <= ATOL_STRUCT:
            continue
        root = np.sqrt(w[r])
        for l in range(d):
            op = root * np.outer(vecs[:, r], ket(l, d).conj())
            pairs.append((op, op))
    return PathChannel(pairs, label=f"replace(d={d})")


def transpose_channel(d: int) -> PathChannel:
    """Cross block sigma -> sigma^T / d; each arm completely depolarized. A
    ``d`` that is not an integer in [1, ``MAX_DIM``] raises
    :class:`DimensionError`."""
    d = int_at_least(d, "d", 1, MAX_DIM)
    pairs = []
    s = 1.0 / np.sqrt(d)
    for k in range(d):
        for l in range(d):
            a = s * np.outer(ket(k, d), ket(l, d).conj())
            b = s * np.outer(ket(l, d), ket(k, d).conj())
            pairs.append((a, b))
    return PathChannel(pairs, label=f"transpose(d={d})")


@functools.cache
def pauli_mixture_channel() -> PathChannel:
    """Equal-weight mixture of the arm-unitary pairs (1,1), (X,X), (Y,-Y),
    (Z,Z); its cross block is sigma -> sigma^T / 2.

    It is built and checked on the first call, and every call returns that
    one shared channel: its ``kraus`` is read-only and its ``metadata`` a
    read-only mapping, so no caller can change what the others see.
    """
    eye = np.eye(2, dtype=complex)
    pairs = tuple(
        (0.5 * k0, 0.5 * k1)
        for k0, k1 in ((eye, eye), (PAULI_X, PAULI_X), (PAULI_Y, -PAULI_Y), (PAULI_Z, PAULI_Z))
    )
    return PathChannel(pairs, label="pauli_mixture")


def explicit_transpose_dilation() -> PathChannel:
    """Explicit four-state-environment dilation of the d=2 transpose channel.

    The environment kets e_1..e_4 tag the (input, output) rectilinear basis
    transition in arm 0 and the transposed transition in arm 1:

        v0: |h> -> (|h>|e1> + |v>|e2>)/sqrt(2),  |v> -> (|h>|e3> + |v>|e4>)/sqrt(2)
        v1: |h> -> (|h>|e1> + |v>|e3>)/sqrt(2),  |v> -> (|h>|e2> + |v>|e4>)/sqrt(2)

    Kraus pair n is (A_n, B_n) = (<e_n|v0, <e_n|v1): the transpose channel's
    Kraus pairs with the second and third swapped.
    """
    h, v = ket(0, 2), ket(1, 2)
    s = 1.0 / np.sqrt(2)
    # (arm 0 output, input, arm 1 output, input) of the transition tagged e_n
    transitions = ((h, h, h, h), (v, h, h, v), (h, v, v, h), (v, v, v, v))
    pairs = tuple(
        (s * np.outer(out0, in0.conj()), s * np.outer(out1, in1.conj()))
        for out0, in0, out1, in1 in transitions
    )
    return PathChannel(pairs)


def random_path_channel(d: int, n_kraus: int, seed: int) -> PathChannel:
    """Random trace-preserving path channel, deterministic under the seed.

    Each side draws n_kraus complex Ginibre matrices G_k, stacks them into
    one (n_kraus * d, d) matrix G = U S V^dag (thin SVD) and keeps the
    isometry polar factor U V^dag = G (G^dag G)^(-1/2), which is trace
    preserving to round-off however ill-conditioned the draw. A ``d`` or
    ``n_kraus`` that is not an integer in [1, ``MAX_DIM``], or a seed that
    is not a nonnegative integer, raises :class:`DimensionError`; a bool is
    neither.
    """
    d = int_at_least(d, "d", 1, MAX_DIM)
    n_kraus = int_at_least(n_kraus, "n_kraus", 1, MAX_DIM)
    seed = int_at_least(seed, "seed", 0)
    (rng,) = _generators((seed,))

    def draw_side():
        g = rng.normal(size=(n_kraus, d, d)) + 1j * rng.normal(size=(n_kraus, d, d))
        u, _, vh = np.linalg.svd(g.reshape(n_kraus * d, d), full_matrices=False)
        return (u @ vh).reshape(n_kraus, d, d)

    return PathChannel(
        np.stack((draw_side(), draw_side()), axis=1),
        label=f"random(d={d},k={n_kraus},seed={seed})",
        metadata={"rng": "numpy.random.default_rng (PCG64)", "seed": int(seed)},
    )


# ---------------------------------------------------------------------------
# Channel spec files
#
# Plain-text key-value format:
#
#     whichway-channel v1
#     spin_dim <d>
#     pairs <n>
#     meta <key> <value...>        (zero or more)
#     pair
#     A <re> <im> <re> <im> ...    (d*d entries, row-major)
#     B <re> <im> <re> <im> ...
#     ... repeated per pair
#
# Decimals are written with Python's shortest round-trip repr, so a
# write -> read -> write cycle is bit-identical.

_MAGIC = "whichway-channel v1"


def _fmt_row(m: np.ndarray) -> str:
    return " ".join(f"{repr(float(z.real))} {repr(float(z.imag))}" for z in m.reshape(-1))


def dumps_channel(ch: PathChannel) -> str:
    lines = [_MAGIC, f"spin_dim {ch.spin_dim}", f"pairs {ch.n_kraus}"]
    for key in sorted(ch.metadata):
        lines.append(f"meta {key} {ch.metadata[key]}")
    for a, b in ch.kraus:
        lines.append("pair")
        lines.append("A " + _fmt_row(a))
        lines.append("B " + _fmt_row(b))
    return "\n".join(lines) + "\n"


def _header_int(text: str, key: str) -> int:
    """The value of a ``spin_dim`` or ``pairs`` header line, an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = text
    return int_at_least(value, key, 1)


def loads_channel(text: str) -> PathChannel:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _MAGIC:
        raise InputFormatError(f"not a channel spec file (missing '{_MAGIC}' header)")
    d = n = None
    metadata: dict = {}
    idx = 1
    while idx < len(lines) and lines[idx] != "pair":
        key, _, rest = lines[idx].partition(" ")
        if key == "spin_dim":
            d = _header_int(rest, key)
        elif key == "pairs":
            n = _header_int(rest, key)
        elif key == "meta":
            mkey, _, mval = rest.partition(" ")
            metadata[mkey] = mval
        else:
            raise InputFormatError(f"unrecognized channel spec line: {lines[idx]!r}")
        idx += 1
    if d is None or n is None:
        raise InputFormatError("channel spec file is missing spin_dim or pairs")

    def parse_block(line: str, tag: str) -> np.ndarray:
        head, _, rest = line.partition(" ")
        if head != tag:
            raise InputFormatError(f"expected '{tag}' block line, got {line!r}")
        try:
            vals = [float(tok) for tok in rest.split()]
        except ValueError:
            raise InputFormatError(f"{tag} block holds a token that is not a number") from None
        if len(vals) != 2 * d * d:
            raise InputFormatError(f"{tag} block has {len(vals)} numbers, expected {2 * d * d}")
        arr = np.array(vals[0::2]) + 1j * np.array(vals[1::2])
        return arr.reshape(d, d)

    pairs = []
    for _ in range(n):
        if idx + 2 >= len(lines) or lines[idx] != "pair":
            raise InputFormatError("channel spec file truncated: missing 'pair' block")
        pairs.append((parse_block(lines[idx + 1], "A"), parse_block(lines[idx + 2], "B")))
        idx += 3
    if idx != len(lines):
        raise InputFormatError("trailing content after declared Kraus pairs")
    return PathChannel(pairs, label="from-file", metadata=metadata)


def save_channel(ch: PathChannel, path) -> None:
    write_text(path, dumps_channel(ch))


def load_channel(path) -> PathChannel:
    return loads_channel(read_text(path))
