"""Measurable lower bounds on generalized visibility.

Interfering individually filtered spin components yields fractional
visibilities V^{mu,nu} = <chi0| L_01(|psi0^mu><psi1^mu|) |chi1>, bounded in
magnitude by the filtering probability p^{mu,nu}. Any coefficient set
alpha_{mu,nu} for which

    sum alpha (|psi0><psi1|)^T x |chi1><chi0|
        = (sqrt(rho1)^T x 1) U (sqrt(rho0)^T x 1),   U^dag U <= 1,

certifies V_G >= |sum alpha V^{mu,nu}| and hence D <= sqrt(1 - V_G^2).
This module verifies such certificates and assembles the two worked
coefficient families (complete orthonormal filters for one preparation, and
the four-term swap family for the completely mixed preparation).

Both kernels work on the channel's stacked Kraus array. A theory record
(:func:`fractional_visibility`) comes from the per-Kraus amplitudes
<chi0|A_k|psi0> and <chi1|B_k|psi1> alone, never forming a d^2 x d^2
matrix; the block-map and block-Choi routes to the same numbers are test
oracles. A certificate check builds L as one product of stacked rank-one
factors and needs, per arm, the support projector and pseudo-inverse of
sqrt(rho)^T; its slack must not exceed ``CONTRACTION_TOL`` (1e-8). For a
density matrix (:func:`verify_alpha_constraint`, :func:`swap_certificate`)
both come from one eigendecomposition of rho. For a pure preparation
(:func:`single_preparation_certificate`) they come from the unit ket:
sqrt(|psi><psi|)^T = psi* psi^T is its own support projector and its own
pseudo-inverse, so no eigendecomposition runs.
A list of records that repeats a (mu, nu) key raises :class:`DimensionError`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._files import read_csv, write_csv
from .channels import PathChannel, Preparation, pure_pair
from .errors import ContractionError, DimensionError, NonFiniteError, SupportError
from .linalg import (
    ATOL_DERIVED,
    ATOL_STRUCT,
    density_matrix,
    factor_sandwich,
    finite_array,
    hermitian_part,
    ket,
    psd_eigh,
    unit_ket,
)

__all__ = [
    "BoundCertificate",
    "FilterPair",
    "FractionalVisibilityRecord",
    "bound_from_visibilities",
    "certificate_report",
    "fractional_visibility",
    "read_records_csv",
    "rectilinear_filters",
    "rectilinear_preparations",
    "single_preparation_certificate",
    "swap_certificate",
    "verify_alpha_constraint",
    "write_records_csv",
]

SWAP_KEYS = (("hh", "hh"), ("hv", "vh"), ("vh", "hv"), ("vv", "vv"))
CONTRACTION_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class FilterPair:
    """Spin filters applied in the upper (chi0) and lower (chi1) arm, stored
    as read-only copies of unit kets; compared and hashed by identity."""

    chi0: np.ndarray = field(repr=False)
    chi1: np.ndarray = field(repr=False)
    label: str = ""

    def __post_init__(self):
        for name in ("chi0", "chi1"):
            object.__setattr__(self, name, unit_ket(getattr(self, name), name))
        if self.chi0.size != self.chi1.size:
            raise DimensionError("filter kets have different dimensions")


def _beyond_envelope(visibility, p, sigma_p, sigma_v):
    """The 3-sigma rule |V| > p + 3 (sigma_p + sigma_v) + 1e-10, elementwise."""
    return abs(visibility) > p + 3 * (sigma_p + sigma_v) + ATOL_STRUCT


@dataclass(frozen=True)
class FractionalVisibilityRecord:
    """One (preparation, filter) cell: filtering probability p and complex
    fringe amplitude V, with measurement uncertainties and the fit's
    residual rms (all 0 for exact theory and for records read from CSV)."""

    mu: str
    nu: str
    p: float
    visibility: complex
    sigma_p: float = 0.0
    sigma_v: float = 0.0
    residual_rms: float = 0.0

    def __post_init__(self):
        v = complex(self.visibility)
        p, sigma_p, sigma_v, rms = self.p, self.sigma_p, self.sigma_v, self.residual_rms
        if not all(map(math.isfinite, (p, v.real, v.imag, sigma_p, sigma_v, rms))):
            raise NonFiniteError(f"NaN or infinite entry in record ({self.mu}, {self.nu})")
        if not 0.0 <= p <= 1.0 + 1e-12:
            raise DimensionError(f"filtering probability {p} outside [0, 1]")
        if sigma_p < 0 or sigma_v < 0 or rms < 0:
            raise DimensionError("uncertainties must be nonnegative")
        if _beyond_envelope(v, p, sigma_p, sigma_v):
            raise DimensionError(
                f"|V|={abs(self.visibility):.6g} exceeds p={self.p:.6g} beyond "
                f"3 sigma for record ({self.mu}, {self.nu})"
            )

    @property
    def key(self) -> tuple[str, str]:
        return (self.mu, self.nu)


def _record_map(records) -> dict[tuple[str, str], FractionalVisibilityRecord]:
    """Records keyed by their own (mu, nu), a dict read as its values; a
    repeated key raises :class:`DimensionError`."""
    out = {}
    for rec in records.values() if isinstance(records, dict) else records:
        if rec.key in out:
            raise DimensionError(f"duplicate record for {rec.key}")
        out[rec.key] = rec
    return out


def fractional_visibility(
    ch: PathChannel,
    prep,
    filt: FilterPair,
    mu: str = "",
) -> FractionalVisibilityRecord:
    """Exact theory record for a pure preparation and one filter pair.

    The per-Kraus amplitudes x_k = <chi0|A_k|psi0> and y_k = <chi1|B_k|psi1>
    come from two batched matrix-vector products, in O(K d^2); then
    V = sum_k x_k y_k* and p = (sum_k |x_k|^2 + sum_k |y_k|^2) / 2, clipped
    to [0, 1]. The record runs its own checks (finite fields, |V| <= p).
    """
    d = ch.spin_dim
    psi0, psi1 = pure_pair(prep, d)
    if filt.chi0.size != d:
        raise DimensionError("filter dimension does not match channel")
    chi0, chi1 = filt.chi0, filt.chi1

    x = ch.kraus[:, 0] @ psi0 @ chi0.conj()
    y = ch.kraus[:, 1] @ psi1 @ chi1.conj()
    p = min(max(0.5 * float(np.vdot(x, x).real + np.vdot(y, y).real), 0.0), 1.0)
    if not mu and isinstance(prep, Preparation):
        mu = prep.label
    return FractionalVisibilityRecord(
        mu=mu, nu=filt.label, p=p,
        visibility=complex(np.vdot(y, x)),
    )


@dataclass(frozen=True, eq=False)
class BoundCertificate:
    """A verified coefficient set with its reconstructed contraction.

    ``contraction_slack`` is the largest eigenvalue of U^dag U minus one.
    The bound fields stay None until records are folded in by
    :func:`bound_from_visibilities`. Compared and hashed by identity.
    """

    alphas: dict[tuple[str, str], complex]
    u_hat: np.ndarray = field(repr=False)
    contraction_slack: float
    vg_lower: float | None = None
    d_upper: float | None = None
    sigma_vg: float | None = None
    sigma_d: float | None = None

    def __post_init__(self):
        if self.vg_lower is not None:
            expected = float(np.sqrt(max(1.0 - self.vg_lower**2, 0.0)))
            if abs(self.d_upper - expected) > 1e-12:
                raise DimensionError("d_upper != sqrt(1 - vg_lower^2) within 1e-12")


def _root_support(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(projector onto the range, pseudo-inverse) of sqrt(rho)^T, from one
    eigendecomposition of rho: sqrt(rho)^T = v* sqrt(w) v^T."""
    w, v = psd_eigh(rho)
    root = np.sqrt(w)
    mask = root > root.max() * 1e-10 + 1e-300
    vec = v[:, mask].conj()
    proj = vec @ vec.conj().T
    inv = (vec / root[mask]) @ vec.conj().T
    return proj, inv


def _ket_support(psi: np.ndarray) -> np.ndarray:
    """sqrt(|psi><psi|)^T = psi* psi^T for a unit ket psi: the projector
    onto its own range, and so its own pseudo-inverse."""
    return np.outer(psi.conj(), psi)


def _certify(
    alphas: dict[tuple[str, str], complex],
    preps: dict[str, tuple[np.ndarray, np.ndarray]],
    filters: dict[str, FilterPair],
    d: int,
    support0: tuple[np.ndarray, np.ndarray],
    support1: tuple[np.ndarray, np.ndarray],
) -> BoundCertificate:
    """:func:`verify_alpha_constraint` given each arm's (support projector,
    pseudo-inverse) of sqrt(rho)^T. An arm whose two matrices are one object
    (a pure preparation) makes the pseudo-inverse sandwich equal the support
    sandwich, so U-hat is then the projected L. ``preps`` holds checked
    unit kets, and every referenced preparation and filter has dimension d."""
    n = len(alphas)
    kets = np.array([preps[mu] for mu, _ in alphas], dtype=complex).reshape(n, 2, d)
    chis = np.array([(filters[nu].chi0, filters[nu].chi1) for _, nu in alphas],
                    dtype=complex).reshape(n, 2, d)
    u = (kets[:, 1, :, None].conj() * chis[:, 1, None, :]).reshape(n, d * d)
    w = (kets[:, 0, :, None] * chis[:, 0, None, :].conj()).reshape(n, d * d)
    left = (u.T * np.array(list(alphas.values()), dtype=complex)) @ w

    p0, inv0 = support0
    p1, inv1 = support1

    norm_l = np.linalg.norm(left)
    projected = factor_sandwich(p1, left, p0)
    if np.linalg.norm(left - projected) > CONTRACTION_TOL * max(norm_l, 1e-12):
        raise SupportError(
            "combination leaks outside the support of the preparation states; "
            "no contraction factorization exists"
        )

    if p0 is inv0 and p1 is inv1:
        u_hat = projected
    else:
        u_hat = factor_sandwich(inv1, left, inv0)
    gram = u_hat.conj().T @ u_hat
    slack = float(np.linalg.eigvalsh(hermitian_part(gram)).max() - 1.0)
    if slack > CONTRACTION_TOL:
        raise ContractionError(
            f"contraction violated: slack {slack:.3e} > tol {CONTRACTION_TOL:.1e}")
    return BoundCertificate(alphas=dict(alphas), u_hat=u_hat, contraction_slack=slack)


def verify_alpha_constraint(
    alphas: dict[tuple[str, str], complex],
    preps: dict[str, tuple[np.ndarray, np.ndarray]],
    filters: dict[str, FilterPair],
    rho0: np.ndarray,
    rho1: np.ndarray,
) -> BoundCertificate:
    """Check that the coefficient set factorizes through a contraction.

    Builds L = sum alpha (|psi0><psi1|)^T x |chi1><chi0| as one product
    (U^T alpha) W of the stacked rank-one factors u = psi1* x chi1 and
    w = psi0 x chi0*, verifies that its row/column supports lie inside the
    supports of the sqrt(rho)^T factors, reconstructs U through
    pseudo-inverses and reports the contraction slack. Each arm's support
    projector and pseudo-inverse come from one eigendecomposition of the
    density matrix rho, with the checks of :func:`psd_eigh`.

    The inputs are checked first: the coefficients by :func:`finite_array`;
    each rho by :func:`density_matrix`, the two of one dimension d; each
    referenced preparation by :func:`pure_pair` (unit kets of dimension d);
    each referenced filter for dimension d. A failed check, or a coefficient
    that names an unknown preparation or filter, raises
    :class:`NonFiniteError`, :class:`PositivityError` or
    :class:`DimensionError`.

    Raises :class:`SupportError` if the factorization does not exist and
    :class:`ContractionError` if the slack exceeds ``CONTRACTION_TOL``.
    """
    finite_array(list(alphas.values()), "coefficients")
    rho0, rho1 = density_matrix(rho0, "rho0"), density_matrix(rho1, "rho1")
    if rho0.shape != rho1.shape:
        raise DimensionError(f"rho0 and rho1 dimensions differ: {rho0.shape} vs {rho1.shape}")
    d = rho0.shape[0]
    kets = {}
    for mu, nu in alphas:
        if mu not in preps:
            raise DimensionError(f"coefficient references unknown preparation {mu!r}")
        if nu not in filters:
            raise DimensionError(f"coefficient references unknown filter {nu!r}")
        if filters[nu].chi0.size != d:
            raise DimensionError(f"filter {nu!r} does not have the states' dimension {d}")
        if mu not in kets:
            kets[mu] = pure_pair(preps[mu], d)
    return _certify(alphas, kets, filters, d, _root_support(rho0), _root_support(rho1))


def bound_from_visibilities(cert: BoundCertificate, records) -> BoundCertificate:
    """Fold measured fractional visibilities into a verified certificate.

    vg_lower = |sum alpha V| clamped to [0, 1]; its uncertainty is the linear
    worst-case sum of the record uncertainties, and the distinguishability
    bound follows as sqrt(1 - vg_lower^2) with the delta-method sigma.
    """
    recs = _record_map(records)
    total = 0.0 + 0.0j
    sigma = 0.0
    for key, alpha in cert.alphas.items():
        if key not in recs:
            raise DimensionError(f"missing fractional-visibility record for {key}")
        total += alpha * recs[key].visibility
        sigma += abs(alpha) * recs[key].sigma_v
    vg = float(min(abs(total), 1.0))
    d_up = float(np.sqrt(max(1.0 - vg**2, 0.0)))
    # delta method; capped because it degenerates as the bound reaches 0
    sigma_d = float(min(vg / max(d_up, 1e-12) * sigma, 1.0))
    return replace(cert, vg_lower=vg, d_upper=d_up, sigma_vg=float(sigma), sigma_d=sigma_d)


def _complete_basis_check(filters: dict[str, FilterPair], nus: list[str]) -> int:
    """Check that the upper-arm kets and the lower-arm kets of the filters
    ``nus`` each form a complete orthonormal basis, with both Gram matrices
    from one stacked product; returns the dimension d."""
    unknown = [nu for nu in nus if nu not in filters]
    if unknown:
        raise DimensionError(f"records reference unknown filters {unknown}")
    filts = [filters[nu] for nu in nus]
    d = filts[0].chi0.size
    if any(f.chi0.size != d for f in filts):
        raise DimensionError("filters have different dimensions")
    if len(filts) != d:
        raise DimensionError(
            f"upper-arm filters do not form a complete basis ({len(filts)} vectors in dim {d})"
        )
    stack = np.array([[f.chi0 for f in filts], [f.chi1 for f in filts]])
    gram = stack.conj() @ stack.transpose(0, 2, 1)
    off = np.abs(gram - np.eye(d)).max(axis=(1, 2))
    for which, err in zip(("upper-arm", "lower-arm"), off):
        if err > ATOL_DERIVED:
            raise DimensionError(f"{which} filter states are not orthonormal within 1e-9")
    return d


@functools.cache
def _rectilinear_sets() -> tuple[tuple, tuple]:
    """(label, preparation pair) and (label, filter pair) items over one
    read-only h and v ket, built and validated once."""
    h, v = ket(0, 2), ket(1, 2)
    h.flags.writeable = v.flags.writeable = False
    states = {"h": h, "v": v}
    labels = [(a + b, states[a], states[b]) for a in "hv" for b in "hv"]
    return (tuple((lab, (x, y)) for lab, x, y in labels),
            tuple((lab, FilterPair(x, y, label=lab)) for lab, x, y in labels))


def rectilinear_preparations() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The four pure h/v preparation pairs, labelled hh, hv, vh, vv: a fresh
    dict on each call over kets that are shared and read-only."""
    return dict(_rectilinear_sets()[0])


def rectilinear_filters() -> dict[str, FilterPair]:
    """The four h/v filter pairs; label xy filters x in the upper arm and y
    in the lower arm. A fresh dict on each call over filter pairs that are
    built once and hold shared, read-only kets."""
    return dict(_rectilinear_sets()[1])


@functools.cache
def _mixed_support() -> tuple[np.ndarray, np.ndarray]:
    """:func:`_root_support` of the completely mixed qubit state 1/2, computed
    once and read-only."""
    support = _root_support(np.eye(2, dtype=complex) / 2)
    for m in support:
        m.flags.writeable = False
    return support


def _optimal_phase(value: complex) -> complex:
    mag = abs(value)
    return value.conjugate() / mag if mag > 0 else 1.0 + 0.0j


def swap_certificate(records) -> BoundCertificate:
    """Verified four-term certificate with analytically optimal phases.

    The coefficient set alpha = exp(i theta)/2 on the four swap cells
    reconstructs a unitary U for any phases; choosing theta = -arg V aligns
    every term, so the bound is
    (|V^{hh,hh}| + |V^{hv,vh}| + |V^{vh,hv}| + |V^{vv,vv}|) / 2, clamped to 1.
    It is :func:`verify_alpha_constraint` with both arms completely mixed,
    run on the rectilinear sets and the support of 1/2, which are checked
    and built once.
    """
    recs = _record_map(records)
    alphas = {}
    for key in SWAP_KEYS:
        if key not in recs:
            raise DimensionError(f"missing record for {key}")
        alphas[key] = 0.5 * _optimal_phase(recs[key].visibility)
    preps, filters = _rectilinear_sets()
    support = _mixed_support()
    cert = _certify(alphas, dict(preps), dict(filters), 2, support, support)
    return bound_from_visibilities(cert, recs)


def single_preparation_certificate(
    mu: str,
    records,
    preps: dict[str, tuple[np.ndarray, np.ndarray]] | None = None,
    filters: dict[str, FilterPair] | None = None,
) -> BoundCertificate:
    """Verified certificate for one pure preparation with complete
    orthonormal filter bases; the bound equals sum_nu |V^nu|.

    ``preps[mu]`` is a pair of unit kets (or a pure :class:`Preparation`),
    checked by :func:`pure_pair`: a NaN or infinite entry raises
    :class:`NonFiniteError`, and a norm off one or a dimension other than
    the filters' raises :class:`DimensionError`. Each arm's support
    projector and pseudo-inverse is psi* psi^T, so no eigendecomposition
    runs; the leak and contraction checks are those of
    :func:`verify_alpha_constraint`.
    """
    preps = rectilinear_preparations() if preps is None else preps
    filters = rectilinear_filters() if filters is None else filters
    recs = {k: r for k, r in _record_map(records).items() if r.mu == mu}
    if not recs:
        raise DimensionError(f"no records for preparation {mu!r}")
    d = _complete_basis_check(filters, [r.nu for r in recs.values()])
    if mu not in preps:
        raise DimensionError(f"no preparation {mu!r}")
    alphas = {key: _optimal_phase(rec.visibility) for key, rec in recs.items()}
    psi0, psi1 = pure_pair(preps[mu], d)
    r0, r1 = _ket_support(psi0), _ket_support(psi1)
    cert = _certify(alphas, {mu: (psi0, psi1)}, filters, d, (r0, r0), (r1, r1))
    return bound_from_visibilities(cert, recs)


# ---------------------------------------------------------------------------
# Record CSV and certificate reports

_CSV_FIELDS = ["mu", "nu", "p", "re_V", "im_V", "sigma_p", "sigma_V"]


def write_records_csv(records, path_or_buffer) -> None:
    write_csv(path_or_buffer, _CSV_FIELDS, [
        [r.mu, r.nu, repr(float(r.p)), repr(float(r.visibility.real)),
         repr(float(r.visibility.imag)), repr(float(r.sigma_p)), repr(float(r.sigma_v))]
        for r in _record_map(records).values()
    ])


def read_records_csv(path_or_buffer) -> list[FractionalVisibilityRecord]:
    """Records from a records CSV; a repeated (mu, nu) raises
    :class:`DimensionError`."""
    records = [
        FractionalVisibilityRecord(
            mu=mu, nu=nu, p=p, visibility=complex(re_v, im_v), sigma_p=sigma_p, sigma_v=sigma_v,
        )
        for mu, nu, p, re_v, im_v, sigma_p, sigma_v
        in read_csv(path_or_buffer, _CSV_FIELDS, (str, str) + (float,) * 5)
    ]
    _record_map(records)
    return records


def certificate_report(cert: BoundCertificate) -> str:
    """Human-readable summary of a certificate and its bounds."""
    lines = ["certificate"]
    for (mu, nu), alpha in sorted(cert.alphas.items()):
        lines.append(f"  alpha[{mu},{nu}] = {alpha.real:+.6f}{alpha.imag:+.6f}j")
    lines.append(f"  contraction slack = {cert.contraction_slack:.3e}")
    if cert.vg_lower is not None:
        lines.append(f"  V_G >= {cert.vg_lower:.4f} +/- {cert.sigma_vg:.4f}")
        lines.append(f"  D   <= {cert.d_upper:.4f} +/- {cert.sigma_d:.4f}")
    return "\n".join(lines)
