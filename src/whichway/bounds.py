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

A theory record (:func:`fractional_visibility`) comes from the channel's
stacked Kraus array through the per-Kraus amplitudes <chi0|A_k|psi0> and
<chi1|B_k|psi1> alone, never forming a d^2 x d^2 matrix; the block-map and
block-Choi routes to the same numbers are test oracles.

Every certificate is checked from projected kets, in two steps: a
preparation step that does not depend on the coefficients, and an
evaluation step that weighs its result by them. The slack is the largest
eigenvalue of U-hat^dag U-hat minus one and must not exceed
``CONTRACTION_TOL`` (1e-8). An explicit or mixed set takes it from one
``eigvalsh`` (:func:`_slack`); a set on the rectilinear grid below takes it
from the diagonal of the same product (:func:`_grid_slack`), which the grid
checks once is exactly diagonal. There are two evaluations.

- Mixed sets (:func:`verify_alpha_constraint`, :func:`swap_certificate`):
  one eigendecomposition of each rho gives the arm's support projector P
  and the pseudo-inverse of sqrt(rho)^T. Since (P x 1)(psi x chi) =
  (P psi) x chi, the preparation step projects the (2, n, d) ket stacks
  with one small matmul per arm instead of sandwiching the d^2 x d^2
  operator L, and stacks the column factors of L, of its projection and of
  U-hat. The evaluation step weighs the row factors by the n coefficients,
  forms the three operators with one batched product, runs the leak check
  (two Frobenius norms from ``vdot``) and takes the slack. The swap terms
  are prepared once, on the support of 1/2, which is all of C^2: there the
  projected stacks equal those of L bit for bit, so L minus its projection
  is zero for every coefficient set. The grid checks that once and keeps
  U-hat's stacks alone, and a swap evaluation forms U-hat with one
  product and takes the slack, with no leak check.
- Pure sets (:func:`single_preparation_certificate`): sqrt(|psi><psi|)^T
  = psi* psi^T is its own support projector and pseudo-inverse, so no
  eigendecomposition runs. The preparation step projects the kets, as
  for a mixed set, into the row and column factors of U-hat alone
  (:func:`_pure_factors`), and the evaluation step weighs the rows by the
  coefficients, forms U-hat with one product and takes the slack: L is
  never formed and no leak check runs. The check cannot fire for a pure
  arm: projected on the kets, L becomes n0 n1 L with n_i = ||psi_i||^2,
  so the leak ratio is |1 - n0 n1|, at most about 4e-10 for the unit
  kets :func:`~whichway.linalg.unit_ket` accepts (norm one within
  1e-10), against ``CONTRACTION_TOL`` = 1e-8. U-hat is linear in the
  coefficients, so a set on the grid below keeps the (n, d^4) map from
  them to U-hat, built from its factors at unit coefficients, and its
  evaluation is one product of the coefficients with the map
  (:func:`_grid_u_hat`); :func:`certify_run` evaluates all of a run's
  sets on the grid with one batched product and one batched diagonal
  slack, and a one-set call is the same evaluation with one set. An
  explicit set is used once, so it forms U-hat from its factors
  (:func:`_u_hat`) and never builds a map.

A list of records that repeats a (mu, nu) key raises
:class:`DimensionError`.

The paper's rectilinear h/v grid is one constant, built and checked on
first use, every array in it read-only: the four preparation kets and
filter pairs (:func:`rectilinear_preparations` and
:func:`rectilinear_filters` return fresh dicts over them), their (4, 2, 2)
ket stack (the default cells of
:func:`~whichway.interferometer.run_experiment`), U-hat's prepared
stacks of the four swap terms on the support of the completely mixed
state 1/2 (:func:`swap_certificate`), and the (16, 2, 16) stack of the
maps of the 16 default single-preparation certificates, one per
preparation and ordered complementary filter pair
(:func:`single_preparation_certificate` with ``preps`` and ``filters``
both None, and :func:`certify_run`). The build also checks that every
U-hat these maps and swap stacks can form holds at most one nonzero per
row (:func:`_row_sparse`), the condition of :func:`_grid_slack`. A
default call runs only the evaluation step on these and re-checks none of
them; :func:`verify_alpha_constraint` and explicit sets run both steps on
each call.

A certificate stores ``vg_lower`` and ``sigma_vg`` and derives the bound
sqrt(1 - vg_lower^2) on D and its delta-method sigma; the swap and
single-preparation certificates are built with their records already folded
in, by the rule :func:`bound_from_visibilities` applies. :func:`certify_run`
returns all of a run's bounds: the four-term one, one single-preparation
bound per preparation and complementary filter pair, and the best of those.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from ._files import read_csv, write_csv
from .channels import PathChannel, Preparation, pure_pair
from .errors import ContractionError, DimensionError, NonFiniteError, NumericalError, SupportError
from .linalg import (
    ATOL_DERIVED,
    ATOL_STRUCT,
    _density_eigh,
    _eigvalsh,
    _frozen,
    _instance,
    _mapping,
    _text,
    finite_array,
    ket,
    psd_eigh,
    unit_ket,
)

__all__ = [
    "BoundCertificate",
    "FilterPair",
    "FractionalVisibilityRecord",
    "RunBounds",
    "bound_from_visibilities",
    "certificate_report",
    "certify_run",
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
COMPLEMENTARY = (("hh", "vv"), ("hv", "vh"))
CONTRACTION_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class FilterPair:
    """Spin filters applied in the upper (chi0) and lower (chi1) arm, stored
    as read-only copies of unit kets, with a str label; compared and hashed
    by identity."""

    chi0: np.ndarray = field(repr=False)
    chi1: np.ndarray = field(repr=False)
    label: str = ""

    def __post_init__(self):
        _text(self.label, "filter label")
        for name in ("chi0", "chi1"):
            object.__setattr__(self, name, unit_ket(getattr(self, name), name))
        if self.chi0.size != self.chi1.size:
            raise DimensionError("filter kets have different dimensions")


def _filter_kets(filt: FilterPair, d: int, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(chi0, chi1) of a filter pair of spin dimension d, else
    :class:`DimensionError` naming the filter and both dimensions: the one
    filter-dimension check. ``name`` is the key the filter was given under,
    or its label where it came alone."""
    if filt.chi0.size != d:
        raise DimensionError(f"filter {name!r} has dimension {filt.chi0.size}, not {d}")
    return filt.chi0, filt.chi1


def _beyond_envelope(visibility, p, sigma_p, sigma_v):
    """The 3-sigma rule |V| > p + 3 (sigma_p + sigma_v) + 1e-10, elementwise."""
    return abs(visibility) > p + 3 * (sigma_p + sigma_v) + ATOL_STRUCT


@dataclass(frozen=True)
class FractionalVisibilityRecord:
    """One (preparation, filter) cell, labelled by str mu and nu: filtering
    probability p and complex fringe amplitude V, with uncertainties and the
    fit's residual rms (all 0 for exact theory and for records from CSV)."""

    mu: str
    nu: str
    p: float
    visibility: complex
    sigma_p: float = 0.0
    sigma_v: float = 0.0
    residual_rms: float = 0.0

    def __post_init__(self):
        _text(self.mu, "record mu")
        _text(self.nu, "record nu")
        p, sigma_p, sigma_v, rms = self.p, self.sigma_p, self.sigma_v, self.residual_rms
        try:
            v = complex(self.visibility + 0j)  # + 0j refuses a string complex() would parse
            finite = all(map(math.isfinite, (p, v.real, v.imag, sigma_p, sigma_v, rms)))
        except TypeError:
            raise DimensionError(
                f"record ({self.mu}, {self.nu}) holds a field that is not a number") from None
        if not finite:
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
    """Records keyed by their own (mu, nu), a dict read as its values; an
    argument that is not iterable, an entry that is not a
    :class:`FractionalVisibilityRecord` and a repeated key raise
    :class:`DimensionError`."""
    records = records.values() if isinstance(records, dict) else records
    if not np.iterable(records):
        raise DimensionError(f"records must be an iterable of records, got {records!r}")
    out = {}
    for rec in records:
        if not isinstance(rec, FractionalVisibilityRecord):
            raise DimensionError(f"{rec!r} is not a FractionalVisibilityRecord")
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
    to [0, 1]. The record runs its own checks (labels, finite fields, |V| <= p).
    A ``ch`` that is not a :class:`PathChannel`, or a ``filt`` that is not a
    :class:`FilterPair`, raises :class:`DimensionError`.
    """
    _instance(ch, PathChannel, "channel ch")
    _instance(filt, FilterPair, "filter filt")
    if not _text(mu, "mu") and isinstance(prep, Preparation):
        mu = prep.label
    psi0, psi1 = pure_pair(prep, ch.spin_dim)
    chi0, chi1 = _filter_kets(filt, ch.spin_dim, filt.label)
    x = ch.kraus[:, 0] @ psi0 @ chi0.conj()
    y = ch.kraus[:, 1] @ psi1 @ chi1.conj()
    p = min(max(0.5 * float(np.vdot(x, x).real + np.vdot(y, y).real), 0.0), 1.0)
    return FractionalVisibilityRecord(
        mu=mu, nu=filt.label, p=p,
        visibility=complex(np.vdot(y, x)),
    )


@dataclass(frozen=True, eq=False)
class BoundCertificate:
    """A verified coefficient set with its reconstructed contraction.

    ``contraction_slack`` is the largest eigenvalue of U^dag U minus one.
    ``vg_lower`` and its uncertainty ``sigma_vg`` stay None until records
    are folded in (by :func:`bound_from_visibilities`, or as the swap and
    single-preparation certificates are built); ``d_upper`` and ``sigma_d``
    are derived from them. Compared and hashed by identity.
    """

    alphas: dict[tuple[str, str], complex]
    u_hat: np.ndarray = field(repr=False)
    contraction_slack: float
    vg_lower: float | None = None
    sigma_vg: float | None = None

    @property
    def d_upper(self) -> float | None:
        """The distinguishability bound sqrt(1 - vg_lower^2)."""
        if self.vg_lower is None:
            return None
        return math.sqrt(max(1.0 - self.vg_lower**2, 0.0))

    @property
    def sigma_d(self) -> float | None:
        """The delta-method uncertainty of ``d_upper``, capped at 1 because
        it degenerates as the bound reaches 0."""
        if self.vg_lower is None or self.sigma_vg is None:
            return None
        return min(self.vg_lower / max(self.d_upper, 1e-12) * self.sigma_vg, 1.0)


def _root_support(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(projector onto the range, pseudo-inverse) of sqrt(rho)^T, from the
    eigendecomposition (w, v) of rho that :func:`psd_eigh` returns:
    sqrt(rho)^T = v* sqrt(w) v^T."""
    root = np.sqrt(w)
    mask = root > root.max() * 1e-10 + 1e-300
    vec = v[:, mask].conj()
    proj = vec @ vec.conj().T
    inv = (vec / root[mask]) @ vec.conj().T
    return proj, inv


def _ket_support(psi: np.ndarray) -> np.ndarray:
    """sqrt(|psi><psi|)^T = psi* psi^T for a unit ket psi, or for each ket of
    a stack in one broadcast product: the projector onto its own range, and
    so its own pseudo-inverse."""
    return psi.conj()[..., :, None] * psi[..., None, :]


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each term's a x b, flattened: ``a`` and ``b`` broadcast to
    (..., n, d) stacks of n terms, and the result is (..., n, d^2)."""
    # a product over an axis of length one rounds each complex product as
    # einsum does; numpy's multiply rounds some of them differently, which
    # would change the bytes of U-hat
    out = a[..., :, None] @ b[..., None, :]
    return out.reshape(*out.shape[:-2], -1)


def _stacks(
    kets: np.ndarray,
    chis: np.ndarray,
    support0: tuple[np.ndarray, np.ndarray],
    support1: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stacks (rows, chi1, w) of a mixed certificate's n terms, which
    :func:`_certify` reads with the coefficients; none depends on them.

    ``kets`` and ``chis`` are (2, n, d): row m of arm i holds the
    preparation ket psi_i and the filter ket chi_i of term m, checked unit
    kets of one dimension d. Each support is an arm's (support projector,
    pseudo-inverse) of sqrt(rho)^T. Of
    L = sum_m alpha_m (psi1* x chi1)(psi0 x chi0*)^T, the rows psi1* are
    projected by P1 and inv1 and the columns psi0 by P0^T and inv0^T:
    ``rows`` stacks psi1* and its two projections, ``chi1`` is the
    lower-arm filter kets, and ``w`` the (3, n, d^2) column factors
    psi0 x chi0* of L, of its projection and of U-hat.
    """
    (p0, inv0), (p1, inv1) = support0, support1
    row, col = kets[1].conj(), kets[0]
    rows = np.array((row, row @ p1.T, row @ inv1.T))
    cols = np.array((col, col @ p0, col @ inv0))
    return rows, chis[1], _outer(cols, chis[0].conj())


def _slack(u_hat: np.ndarray):
    """The contraction slack of U-hat, or of each U-hat of a stack: the
    largest eigenvalue of U-hat^dag U-hat minus one, from one Hermitian
    eigensolve (:func:`~whichway.linalg._eigvalsh`, which reads one triangle
    of the product), NaN where it does not converge. It serves the explicit
    and mixed sets; a set on the rectilinear grid takes :func:`_grid_slack`."""
    # the transpose puts each U-hat's ascending eigenvalues on the first axis
    return _eigvalsh(u_hat.conj().mT @ u_hat).T[-1] - 1.0


def _grid_slack(u_hat: np.ndarray):
    """:func:`_slack` of a U-hat on the rectilinear grid, or of each U-hat of
    a stack, from the diagonal of the same product U-hat^dag U-hat, with no
    eigensolver.

    The grid checks, when it is built (:func:`_row_sparse`), that every
    U-hat it can form holds at most one nonzero per row. Every term of an
    off-diagonal entry sum_k conj(U_ki) U_kj, i != j, then has a zero
    factor, so the product is exactly diagonal; on a diagonal Hermitian
    matrix the eigensolver's Householder reflectors are the identity and
    its tridiagonal solver returns the real diagonal unchanged, so the
    largest diagonal entry is ``eigvalsh``'s largest eigenvalue, bit for
    bit."""
    return (u_hat.conj().mT @ u_hat).diagonal(axis1=-2, axis2=-1).real.max(axis=-1) - 1.0


def _row_sparse(u_hats: np.ndarray, what: str) -> None:
    """Check that every combination of the terms whose U-hats ``u_hats``
    stacks on axis -3 holds at most one nonzero per row, as
    :func:`_grid_slack` requires: the union of the terms' nonzeros, which
    contains every combination's, must; else :class:`NumericalError` naming
    ``what``."""
    if ((u_hats != 0).any(axis=-3).sum(axis=-1) > 1).any():
        raise NumericalError(f"{what}: a U-hat row holds two nonzeros, so U-hat^dag U-hat "
                             "is not diagonal")


def _contraction(slack) -> float:
    """A slack of :func:`_slack` or :func:`_grid_slack` as a float; one
    above ``CONTRACTION_TOL`` raises :class:`ContractionError`, and NaN, an
    eigensolver that did not converge, :class:`NumericalError`."""
    slack = float(slack)
    if slack > CONTRACTION_TOL:
        raise ContractionError(
            f"contraction violated: slack {slack:.3e} > tol {CONTRACTION_TOL:.1e}")
    if math.isnan(slack):
        raise NumericalError("contraction slack is NaN: the eigensolver did not converge")
    return slack


def _certify(alphas: np.ndarray, stacks) -> tuple[np.ndarray, float]:
    """(U-hat, contraction slack) of the n complex coefficients ``alphas``
    on the :func:`_stacks` of their mixed terms: the row factors
    u = psi1* x (alpha chi1) of L, of its projection and of U-hat meet the
    column factors ``w`` in one batched product (:func:`_u_hat`), and the
    leak check compares the Frobenius norms of L and of L minus its
    projection."""
    left, projected, u_hat = _u_hat(alphas, stacks)

    leak = left - projected
    norm_l = math.sqrt(np.vdot(left, left).real)
    if math.sqrt(np.vdot(leak, leak).real) > CONTRACTION_TOL * max(norm_l, 1e-12):
        raise SupportError(
            "combination leaks outside the support of the preparation states; "
            "no contraction factorization exists"
        )
    return u_hat, _contraction(_slack(u_hat))


def _swap_stacks(preps, support: tuple[np.ndarray, np.ndarray]) -> tuple:
    """U-hat's stacks (row, chi1, w) of the ``SWAP_KEYS`` terms, from the
    :func:`_stacks` of their kets ``preps`` (label -> ket pair, both the
    preparation and the filter kets) with both arms of ``support``. On it,
    the projection of L must leave L's stacks bit-identical, so that no
    coefficient set can leak, else :class:`SupportError`."""
    # (preparation kets, filter kets) x arm x SWAP_KEYS term x d
    kets, chis = np.array([[[preps[key[i]][arm] for key in SWAP_KEYS] for arm in (0, 1)]
                           for i in (0, 1)])
    rows, chi1, w = _stacks(kets, chis, support, support)
    if not (np.array_equal(rows[1], rows[0]) and np.array_equal(w[1], w[0])):
        raise SupportError("the swap terms leak outside the support of the preparation states")
    return rows[2], chi1, w[2]


def _pure_factors(psi: np.ndarray, chis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The factors (row, chi1, w) of a pure set's n terms, which
    :func:`_u_hat` reads with the coefficients; none depends on them.

    ``psi`` is the (2, d) stack of the preparation's checked unit kets and
    ``chis`` the (2, n, d) stack of the filter kets. With P = psi* psi^T,
    each arm's support projector and pseudo-inverse, ``row`` is the (1, d)
    projected row ket psi1* P1^T, ``chi1`` the lower-arm filter kets and
    ``w`` the (n, d^2) projected column factors (psi0 P0) x chi0*. The
    projected rows and columns are ||psi||^2 times the unprojected ones, so
    neither L nor a leak check is needed (see the module docstring).
    """
    r0, r1 = _ket_support(psi)
    return psi[1:].conj() @ r1.T, chis[1], _outer(psi[:1] @ r0, chis[0].conj())


def _u_hat(alphas: np.ndarray, factors) -> np.ndarray:
    """U-hat of n coefficients ``alphas`` on the factors (row, chi1, w) of
    their terms: the row factors row x (alpha chi1) meet the column factors
    ``w`` in one product. The factors are a pure set's
    :func:`_pure_factors`, the swap terms' prepared stacks or a mixed set's
    :func:`_stacks`, whose three row and column stacks give L, its
    projection and U-hat. Leading axes of ``alphas`` and the factors
    broadcast, so one call forms the U-hats of a stack of sets."""
    row, chi1, w = factors
    return _outer(row, chi1 * alphas[..., None]).mT @ w


def _grid_u_hat(alphas: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """U-hat of the two coefficients ``alphas`` of a set on the rectilinear
    grid, from its (2, 16) linear map (``_rectilinear_grid()["singles"]``),
    or the (k, 4, 4) U-hats of a (k, 2) stack of coefficients on a
    (k, 2, 16) stack of maps."""
    return (alphas[..., None, :] @ maps).reshape(*alphas.shape[:-1], 4, 4)


def _folded(alphas: dict, records, u_hat: np.ndarray, slack: float) -> BoundCertificate:
    """The certificate of a checked coefficient set with ``records``, one per
    coefficient in the order of ``alphas``, folded in: vg_lower =
    |sum alpha V| clamped to [0, 1] and sigma_vg = sum |alpha| sigma_V, the
    linear worst-case sum of the record uncertainties."""
    total = 0.0 + 0.0j
    sigma = 0.0
    for alpha, rec in zip(alphas.values(), records):
        total += alpha * rec.visibility
        sigma += abs(alpha) * rec.sigma_v
    return BoundCertificate(alphas, u_hat, slack, float(min(abs(total), 1.0)), float(sigma))


def verify_alpha_constraint(
    alphas: dict[tuple[str, str], complex],
    preps: dict[str, tuple[np.ndarray, np.ndarray]],
    filters: dict[str, FilterPair],
    rho0: np.ndarray,
    rho1: np.ndarray,
) -> BoundCertificate:
    """Check that the coefficient set factorizes through a contraction.

    Builds L = sum alpha (|psi0><psi1|)^T x |chi1><chi0| from the stacked
    rank-one factors u = psi1* x chi1 and w = psi0 x chi0*, verifies that
    its row/column supports lie inside the supports of the sqrt(rho)^T
    factors, reconstructs U through pseudo-inverses and reports the
    contraction slack. Each arm's support projector and pseudo-inverse come
    from the one eigendecomposition of the density matrix rho that checks
    it.

    The inputs are checked first: the coefficients by :func:`finite_array`,
    one complex number each, and stored as Python complex numbers; each rho
    by :func:`density_matrix`, the two of one dimension d; each referenced
    preparation by :func:`pure_pair` (unit kets of dimension d); each
    referenced filter for dimension d; ``alphas``, ``preps`` and
    ``filters`` must be mappings, and ``alphas`` must not be empty. A
    failed check, or a coefficient that names an unknown preparation or
    filter, raises :class:`NonFiniteError`, :class:`PositivityError` or
    :class:`DimensionError`.

    Raises :class:`SupportError` if the factorization does not exist and
    :class:`ContractionError` if the slack exceeds ``CONTRACTION_TOL``.
    """
    for name, value in (("alphas", alphas), ("preps", preps), ("filters", filters)):
        _mapping(value, name)
    if not alphas:
        raise DimensionError("alphas is empty: no coefficient to certify")
    coeffs = finite_array(list(alphas.values()), "coefficients")
    if coeffs.shape != (len(alphas),):
        raise DimensionError("coefficients must be one complex number each")
    rho0, w0, v0 = _density_eigh(rho0, "rho0")
    rho1, w1, v1 = _density_eigh(rho1, "rho1")
    if rho0.shape != rho1.shape:
        raise DimensionError(f"rho0 and rho1 dimensions differ: {rho0.shape} vs {rho1.shape}")
    d = rho0.shape[0]
    kets, chis = {}, {}
    for mu, nu in alphas:
        if mu not in preps:
            raise DimensionError(f"coefficient references unknown preparation {mu!r}")
        if nu not in filters:
            raise DimensionError(f"coefficient references unknown filter {nu!r}")
        if nu not in chis:
            chis[nu] = _filter_kets(filters[nu], d, nu)
        if mu not in kets:
            kets[mu] = pure_pair(preps[mu], d)
    # (psi0, psi1, chi0, chi1) x term x d
    terms = np.array([(*kets[mu], *chis[nu]) for mu, nu in alphas],
                     dtype=complex).reshape(len(alphas), 4, d).transpose(1, 0, 2)
    u_hat, slack = _certify(coeffs, _stacks(terms[:2], terms[2:], _root_support(w0, v0),
                                            _root_support(w1, v1)))
    return BoundCertificate(dict(zip(alphas, coeffs.tolist())), u_hat, slack)


def bound_from_visibilities(cert: BoundCertificate, records) -> BoundCertificate:
    """Fold measured fractional visibilities into a verified certificate.

    vg_lower = |sum alpha V| clamped to [0, 1]; its uncertainty sigma_vg is
    the linear worst-case sum of the record uncertainties. The certificate
    derives the distinguishability bound and its sigma from these two. A
    ``cert`` that is not a :class:`BoundCertificate` raises
    :class:`DimensionError`.
    """
    _instance(cert, BoundCertificate, "certificate cert")
    recs = _record_map(records)
    for key in cert.alphas:
        if key not in recs:
            raise DimensionError(f"missing fractional-visibility record for {key}")
    return _folded(cert.alphas, [recs[key] for key in cert.alphas],
                   cert.u_hat, cert.contraction_slack)


def _complete_basis_check(filters: dict[str, FilterPair], nus: list[str]) -> np.ndarray:
    """Check that the upper-arm kets and the lower-arm kets of the filters
    ``nus`` each form a complete orthonormal basis, with both Gram matrices
    from one stacked product; returns the (2, n, d) stack of the kets, arm
    by arm in the order of ``nus``."""
    unknown = [nu for nu in nus if nu not in filters]
    if unknown:
        raise DimensionError(f"records reference unknown filters {unknown}")
    d = filters[nus[0]].chi0.size
    stack = np.array(list(zip(*(_filter_kets(filters[nu], d, nu) for nu in nus))))
    if len(nus) != d:
        raise DimensionError(
            f"upper-arm filters do not form a complete basis ({len(nus)} vectors in dim {d})"
        )
    gram = stack.conj() @ stack.transpose(0, 2, 1)
    off = np.abs(gram - np.eye(d)).max(axis=(1, 2))
    for which, err in zip(("upper-arm", "lower-arm"), off.tolist()):
        if err > ATOL_DERIVED:
            raise DimensionError(f"{which} filter states are not orthonormal within 1e-9")
    return stack


def _single_factors(preps, filters: dict[str, FilterPair], mu: str, nus) -> tuple:
    """The :func:`_pure_factors` of preparation ``mu`` with the filters
    ``nus``, which :func:`_complete_basis_check` checks first."""
    chis = _complete_basis_check(filters, nus)
    if mu not in preps:
        raise DimensionError(f"no preparation {mu!r}")
    return _pure_factors(np.array(pure_pair(preps[mu], chis.shape[2])), chis)


@functools.cache
def _rectilinear_grid() -> MappingProxyType:
    """The rectilinear h/v grid, built and checked once, every array in it
    read-only:

    - ``labels``, hh, hv, vh, vv (sorted): label xy is the preparation
      (x, y) and the filter pair with x in the upper arm, y in the lower;
    - ``preparations`` and ``filters``, keyed by label, over one h and one
      v ket;
    - ``pairs``, the (4, 2, 2) stack of each label's two kets, which is
      both the preparation and the filter stack of the default cells;
    - ``swap``, U-hat's :func:`_swap_stacks` of the ``SWAP_KEYS`` terms
      with both arms completely mixed, from one eigendecomposition of 1/2,
      checked there not to leak;
    - ``singles``, the (16, 2, 16) stack of the linear maps from the two
      coefficients to the flattened U-hat of the 16 default
      single-preparation certificates, one for every preparation mu and
      ordered ``COMPLEMENTARY`` pair, and ``single_index``, the position in
      it of each key (mu, nu, partner). Since U-hat is linear in the
      coefficients, row m of a map is the :func:`_u_hat` of the set's
      factors at the m-th unit coefficients.

    Every U-hat the maps and the swap stacks can form is checked to hold
    at most one nonzero per row (:func:`_row_sparse`), else
    :class:`NumericalError`, so :func:`_grid_slack` serves every set on the
    grid.
    """
    states = {"h": _frozen(ket(0, 2)), "v": _frozen(ket(1, 2))}
    labels = tuple(a + b for a in "hv" for b in "hv")
    preps = {lab: (states[lab[0]], states[lab[1]]) for lab in labels}
    filters = {lab: FilterPair(*pair, label=lab) for lab, pair in preps.items()}
    mixed = _root_support(*psd_eigh(np.eye(2, dtype=complex) / 2, "rho"))
    orders = COMPLEMENTARY + tuple(nus[::-1] for nus in COMPLEMENTARY)
    keys = [(mu, *nus) for mu in labels for nus in orders]
    factors = zip(*(_single_factors(preps, filters, mu, nus) for mu, *nus in keys))
    singles = _u_hat(np.eye(2), [np.array(a)[:, None] for a in factors]).reshape(16, 2, 16)
    swap = _swap_stacks(preps, mixed)
    _row_sparse(singles.reshape(16, 2, 4, 4), "the single-preparation maps")
    _row_sparse(_u_hat(np.eye(4), swap), "the swap terms")
    for a in (*swap, singles):
        _frozen(a)
    return MappingProxyType({
        "labels": labels,
        "preparations": MappingProxyType(preps),
        "filters": MappingProxyType(filters),
        "pairs": _frozen(np.array(list(preps.values()))),
        "swap": swap,
        "singles": singles,
        "single_index": MappingProxyType({key: i for i, key in enumerate(keys)}),
    })


def rectilinear_preparations() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The four pure h/v preparation pairs, labelled hh, hv, vh, vv: a fresh
    dict on each call over kets that are shared and read-only."""
    return dict(_rectilinear_grid()["preparations"])


def rectilinear_filters() -> dict[str, FilterPair]:
    """The four h/v filter pairs; label xy filters x in the upper arm and y
    in the lower arm. A fresh dict on each call over filter pairs that are
    built once and hold shared, read-only kets."""
    return dict(_rectilinear_grid()["filters"])


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
    run on the rectilinear grid: U-hat's stacks of the four terms, projected
    on the support of 1/2, are prepared once with the grid, which checks
    there that no coefficient set can leak and that every U-hat they form
    holds at most one nonzero per row, so a call only weighs them by its
    coefficients, forms U-hat with one product and runs the contraction
    check on the largest diagonal entry of U-hat^dag U-hat
    (:func:`_grid_slack`), with no eigensolver.
    """
    recs = _record_map(records)
    for key in SWAP_KEYS:
        if key not in recs:
            raise DimensionError(f"missing record for {key}")
    rows = [recs[key] for key in SWAP_KEYS]
    alphas = [0.5 * _optimal_phase(rec.visibility) for rec in rows]
    u_hat = _u_hat(np.array(alphas), _rectilinear_grid()["swap"])
    return _folded(dict(zip(SWAP_KEYS, alphas)), rows, u_hat, _contraction(_grid_slack(u_hat)))


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
    runs. U-hat is formed from the set's :func:`_pure_factors` (or, on the
    rectilinear grid, from its linear map), and the contraction check is
    that of :func:`verify_alpha_constraint`, with the slack from one
    ``eigvalsh`` (or, on the grid, where every U-hat holds at most one
    nonzero per row, from the diagonal of U-hat^dag U-hat); the leak check
    cannot fail for a pure set and does not run. A ``mu`` that is not a
    str, and a ``preps`` or ``filters`` that is neither None nor a mapping,
    raises :class:`DimensionError`.

    With ``preps`` and ``filters`` both None (the rectilinear sets), a
    record set that certifies, one rectilinear mu with an ordered
    complementary filter pair, reads its map from the rectilinear grid,
    where its 16 such sets are checked and prepared once; any other set
    takes the general route, which checks and prepares its factors on each
    call and raises what it raises for explicit sets.
    """
    _text(mu, "mu")
    rows = [rec for rec in _record_map(records).values() if rec.mu == mu]
    if not rows:
        raise DimensionError(f"no records for preparation {mu!r}")
    nus = tuple(rec.nu for rec in rows)
    grid = _rectilinear_grid()
    index = grid["single_index"].get((mu, *nus)) if preps is None and filters is None else None
    alphas = [_optimal_phase(rec.visibility) for rec in rows]
    if index is None:
        preps = rectilinear_preparations() if preps is None else _mapping(preps, "preps")
        filters = rectilinear_filters() if filters is None else _mapping(filters, "filters")
        u_hat = _u_hat(np.array(alphas), _single_factors(preps, filters, mu, nus))
        slack = _slack(u_hat)
    else:
        u_hat = _grid_u_hat(np.array(alphas), grid["singles"][index])
        slack = _grid_slack(u_hat)
    return _single_folded(rows, alphas, u_hat, _contraction(slack))


def _single_folded(rows, alphas, u_hat, slack) -> BoundCertificate:
    """The single-preparation certificate of the records ``rows`` with their
    coefficients ``alphas`` and checked contraction."""
    return _folded({rec.key: a for rec, a in zip(rows, alphas)}, rows, u_hat, slack)


@dataclass(frozen=True, eq=False)
class RunBounds:
    """What one run's records certify (:func:`certify_run`): ``swap``, the
    four-term certificate, or None with the reason in ``swap_unavailable``;
    ``singles``, keyed (mu, nu, partner) in sorted mu, then ``COMPLEMENTARY``
    order; ``best``, the key of the first largest ``vg_lower``, or None."""

    swap: BoundCertificate | None
    swap_unavailable: str | None
    singles: dict[tuple[str, str, str], BoundCertificate]
    best: tuple[str, str, str] | None


def certify_run(records) -> RunBounds:
    """Every bound one run's records certify: :func:`swap_certificate`, whose
    DimensionError (a missing swap cell) becomes ``swap_unavailable``, and a
    :func:`single_preparation_certificate` per preparation mu and pair in
    ``COMPLEMENTARY`` whose two records are present. Records that certify
    neither, or repeat a (mu, nu), raise :class:`DimensionError`.

    The sets on the rectilinear grid are evaluated together, with one
    :func:`_grid_u_hat` of their stacked maps and one :func:`_grid_slack`
    (the diagonal of U-hat^dag U-hat, which the grid checks is exactly
    diagonal, so no eigensolver runs), the evaluation that a one-set call
    runs with one set. The sets are then checked in sorted mu, then
    ``COMPLEMENTARY`` order, and a set off the grid takes its own call, so
    the first set that fails raises what its call raises."""
    recs = _record_map(records)
    try:
        swap, swap_unavailable = swap_certificate(recs), None
    except DimensionError as exc:
        swap, swap_unavailable = None, str(exc)
    sets = {(mu, *pair): [recs[(mu, nu)] for nu in pair]
            for mu in sorted({mu for mu, _ in recs}) for pair in COMPLEMENTARY
            if all((mu, nu) in recs for nu in pair)}
    grid = _rectilinear_grid()
    index = grid["single_index"]
    alphas = {key: [_optimal_phase(rec.visibility) for rec in rows]
              for key, rows in sets.items() if key in index}
    if alphas:
        u_hats = _grid_u_hat(np.array(list(alphas.values())),
                             grid["singles"][[index[key] for key in alphas]])
        evaluated = dict(zip(alphas, zip(u_hats, _grid_slack(u_hats))))
    singles = {}
    for key, rows in sets.items():
        if key in alphas:
            u_hat, slack = evaluated[key]
            singles[key] = _single_folded(rows, alphas[key], u_hat, _contraction(slack))
        else:
            singles[key] = single_preparation_certificate(key[0], rows)
    if swap is None and not singles:
        raise DimensionError(f"no bound certified: the {len(recs)} records support neither "
                             "the four-term bound nor a single-preparation bound")
    best = max(singles, key=lambda key: singles[key].vg_lower, default=None)
    return RunBounds(swap, swap_unavailable, singles, best)


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
    """Human-readable summary of a certificate and its bounds; a ``cert``
    that is not a :class:`BoundCertificate` raises :class:`DimensionError`."""
    _instance(cert, BoundCertificate, "certificate cert")
    lines = ["certificate"]
    for (mu, nu), alpha in sorted(cert.alphas.items()):
        lines.append(f"  alpha[{mu},{nu}] = {alpha.real:+.6f}{alpha.imag:+.6f}j")
    lines.append(f"  contraction slack = {cert.contraction_slack:.3e}")
    if cert.vg_lower is not None:
        lines.append(f"  V_G >= {cert.vg_lower:.4f} +/- {cert.sigma_vg:.4f}")
        lines.append(f"  D   <= {cert.d_upper:.4f} +/- {cert.sigma_d:.4f}")
    return "\n".join(lines)
