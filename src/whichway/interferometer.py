"""Monte Carlo model of the noisy two-arm polarization interferometer.

The noise is an equal-weight mixture of four arm-unitary pairs programmed by
rotating half- and quarter-wave plates. Photon counting is simulated at the
level of exact per-setting probabilities followed by multinomial sampling,
with per-detector efficiencies applied by binomial thinning; fringes are then
fit as cosines with shared offset, amplitude and phase across both
interference detectors.

One simulation route serves :func:`simulate_fringes` (one cell) and
:func:`run_experiment` (every preparation/filter cell): it builds the
probability tables of all cells, for all phases, in one pass before any draw,
from the per-Kraus amplitudes of every cell, formed in one contraction. Each
cell then draws its counts as two arrays, and the cells fill one
(cells, 4, phases) counts array, detectors in the order plus, minus, ref0,
ref1; a :class:`FringeDataset` holds one cell of it as a read-only copy. One
fit serves every cell of that array with one batched thin SVD; a phase
without counts in a cell has its design rows zeroed, so it drops out of that
cell's fit, and each fitted cell is a :class:`FractionalVisibilityRecord`
that carries its residual rms; a fit beyond the records' 3-sigma envelope
raises :class:`NumericalError`.

Random streams: a cell seeded ``seed`` draws from one generator,
``np.random.default_rng(seed)``. It first makes one ``multinomial`` call over
its (phases, rows, 4) probability table, each row with its share of the
shots, which numpy draws in C order over (phase, row); then, if any
efficiency is below one, one ``binomial`` call that thins the summed
(4, phases) counts by the detector efficiencies, in C order over
(detector, phase). :func:`simulate_fringes` is that one cell.
:func:`run_experiment` seeds cell (mu, nu) with ``seed + (i_mu, i_nu)`` and
draws it at the lowest efficiency m on every detector: thinning by e and then
resampling by m / e is thinning by m, as Bin(Bin(n, e), m / e) = Bin(n, m).
:func:`binomial_resample` makes one ``binomial`` call over (detector, phase)
from ``np.random.default_rng(seed)``. Counts for a given seed are part of the
interface and stay fixed. The drawing functions reach ``numpy.random`` only
when they run, so importing the package does not load it.

Jones convention, :data:`CONVENTION`: rotation-conjugated retarders

    HWP(theta) = R(theta) diag(1, -1) R(-theta)
    QWP(theta) = R(theta) diag(1,  i) R(-theta)

with R(theta) the counterclockwise rotation by theta. The two quarter plates
straddle both arms, so arm i of a row realizes W QWP(q2) HWP(h_i) QWP(q1) W^dag
in the circular-left frame W = (1 - iX)/sqrt(2). A one-half-wave plus
one-quarter-wave chain in a single arm cannot reproduce an identity arm
unitary (their Bloch rotation angles are pi and pi/2, so the product always
rotates by at least pi/2), which is why the quarter plates straddle.

A plate program is a sequence of rows (:class:`NoiseRow`), each a target
label and four angles in degrees; the slot of an angle fixes its plate's
kind. All-zero angles realize (1, 1), since QWP(0) HWP(0) QWP(0) = 1.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ._files import read_csv, write_csv
from .bounds import (
    FilterPair,
    FractionalVisibilityRecord,
    _beyond_envelope,
    rectilinear_filters,
    rectilinear_preparations,
)
from .channels import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PathChannel,
    pure_pair,
)
from .errors import ConventionError, DimensionError, NonFiniteError, NumericalError
from .linalg import ATOL_DERIVED, finite_array, int_at_least

__all__ = [
    "CONVENTION",
    "FringeDataset",
    "NoiseRow",
    "RowReport",
    "binomial_resample",
    "fit_fringes",
    "fit_report",
    "jones_matrix",
    "pauli_noise_program",
    "program_channel",
    "read_dataset_csv",
    "run_experiment",
    "simulate_fringes",
    "verify_noise_program",
    "write_dataset_csv",
]

CONVENTION = "straddling quarter plates, circular-left frame"

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": PAULI_X,
    "Y": PAULI_Y,
    "Z": PAULI_Z,
}


def jones_matrix(kind: str, angle_deg: float) -> np.ndarray:
    """Jones matrix R(theta) diag(1, -1 or i) R(-theta) of a "half" or
    "quarter" plate at theta = ``angle_deg``, in the lab frame; another kind,
    or an angle that is not a real number in [-180, 180] degrees, raises
    :class:`DimensionError`."""
    if kind not in ("half", "quarter"):
        raise DimensionError(f"unknown wave plate kind {kind!r}")
    if not isinstance(angle_deg, numbers.Real):
        raise DimensionError(f"angle {angle_deg!r} is not a real number")
    if not -180.0 <= angle_deg <= 180.0:
        raise DimensionError(f"angle {angle_deg} outside [-180, 180] degrees")
    theta = math.radians(angle_deg)
    c, s = math.cos(theta), math.sin(theta)
    r = np.array([[c, -s], [s, c]], dtype=complex)
    retard = np.diag([1.0, -1.0 if kind == "half" else 1.0j]).astype(complex)
    return r @ retard @ r.conj().T


@dataclass(frozen=True)
class NoiseRow:
    """One plate setting row: the targeted arm-unitary pair label (e.g.
    "Y,-Y") and the plate angles in degrees, the half-wave plates h0/h1 of
    the two arms and the quarter plates q1/q2 that straddle both."""

    target: str
    h0: float
    h1: float
    q1: float
    q2: float

    def target_pair(self) -> tuple[np.ndarray, np.ndarray]:
        names = self.target.split(",")
        if len(names) != 2:
            raise DimensionError(f"target {self.target!r} is not a pair label")
        out = []
        for name in names:
            name = name.strip()
            sign = -1.0 if name.startswith("-") else 1.0
            key = name.lstrip("+-")
            if key not in _PAULI:
                raise DimensionError(f"unknown arm-unitary label {name!r}")
            out.append(sign * _PAULI[key])
        return out[0], out[1]


def pauli_noise_program() -> tuple[NoiseRow, ...]:
    """The four-row plate program for the equal mixture of (1,1), (X,X),
    (Y,-Y), (Z,Z)."""
    return (
        NoiseRow("I,I", -45.0, -45.0, 45.0, 45.0),
        NoiseRow("X,X", 45.0, 45.0, 45.0, -45.0),
        NoiseRow("Y,-Y", 0.0, 90.0, 45.0, 45.0),
        NoiseRow("Z,Z", 0.0, 0.0, 45.0, -45.0),
    )


@dataclass(frozen=True, eq=False)
class RowReport:
    target: str
    deviation: float
    effective_pair: tuple[np.ndarray, np.ndarray] = field(repr=False)


_FRAME = (np.eye(2) - 1j * PAULI_X) / np.sqrt(2)


def _match_row(u0, u1, k0, k1) -> tuple[bool, float]:
    """Shared-phase comparison of an arm-unitary pair against its target:
    whether it matches, and its deviation. The phase is read off the
    target's largest entry, which is 1 for a +-Pauli target."""
    flat = np.concatenate([k0.reshape(-1), k1.reshape(-1)])
    idx = int(np.argmax(np.abs(flat)))
    phase = np.concatenate([u0.reshape(-1), u1.reshape(-1)])[idx] / flat[idx]
    dev = float(max(np.max(np.abs(u0 - phase * k0)), np.max(np.abs(u1 - phase * k1))))
    return abs(abs(phase) - 1.0) <= ATOL_DERIVED and dev <= ATOL_DERIVED, dev


def verify_noise_program(rows) -> tuple[RowReport, ...]:
    """Check that every row realizes its target pair under :data:`CONVENTION`
    up to a shared phase within 1e-9 (``ATOL_DERIVED``).

    Arm i of a row realizes W QWP(q2) HWP(h_i) QWP(q1) W^dag. Returns each
    row's deviation and frame-corrected effective arm unitaries; raises
    :class:`DimensionError` for no rows and :class:`ConventionError` naming
    every row that fails, with its deviation.
    """
    if not rows:
        raise DimensionError("a noise program needs at least one row")
    reports, failures = [], []
    for row in rows:
        q1, q2 = jones_matrix("quarter", row.q1), jones_matrix("quarter", row.q2)
        u0, u1 = (_FRAME @ (q2 @ jones_matrix("half", h) @ q1) @ _FRAME.conj().T
                  for h in (row.h0, row.h1))
        ok, dev = _match_row(u0, u1, *row.target_pair())
        if ok:
            reports.append(RowReport(row.target, dev, (u0, u1)))
        else:
            failures.append(f"{row.target}: max deviation {dev:.3e}")
    if failures:
        raise ConventionError(
            f"rows not realized under the {CONVENTION} convention:\n  "
            + "\n  ".join(failures)
        )
    return tuple(reports)


def program_channel(reports: tuple[RowReport, ...]) -> PathChannel:
    """Equal-weight mixture channel of the verified effective arm unitaries;
    no reports raise :class:`DimensionError`."""
    if not reports:
        raise DimensionError("a noise program channel needs at least one row report")
    scale = 1.0 / np.sqrt(len(reports))
    return PathChannel(scale * np.array([r.effective_pair for r in reports]),
                       label="noise-program")


# ---------------------------------------------------------------------------
# Counting simulation


_DETECTORS = ("plus", "minus", "ref0", "ref1")


def _phase_tuple(phases) -> tuple[float, ...]:
    """The phases as floats; refuses phases that are not finite and strictly
    increasing."""
    phases = tuple(float(p) for p in phases)
    finite_array(phases, "phases")
    if any(b <= a for a, b in zip(phases, phases[1:])):
        raise DimensionError("phases must be strictly increasing")
    return phases


def _counting_settings(shots_per_phase, efficiencies) -> tuple[float, float, float, float]:
    """The efficiencies as floats; refuses efficiencies that are not four
    values in (0, 1] and a shot count that is not a nonnegative integer."""
    efficiencies = tuple(float(e) for e in efficiencies)
    if len(efficiencies) != 4 or any(not 0.0 < e <= 1.0 for e in efficiencies):
        raise DimensionError("efficiencies must be four values in (0, 1]")
    int_at_least(shots_per_phase, "shots_per_phase", 0)
    return efficiencies


def _seed_tuple(seed) -> tuple[int, ...]:
    """The seed as a tuple of ints; refuses a seed that is not a nonnegative
    integer or a tuple or list of them."""
    entries = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    return tuple(int_at_least(s, "seed", 0) for s in entries)


def _refuse_rows(bad: np.ndarray, error: type, message: str) -> None:
    """Raise ``error`` naming the first detector with a True entry in ``bad``."""
    rows = np.flatnonzero(bad.any(axis=1))
    if rows.size:
        raise error(message.format(_DETECTORS[rows[0]]))


@dataclass(frozen=True, eq=False)
class FringeDataset:
    """Phase-indexed detector counts.

    ``counts`` is a read-only int64 copy of shape (4, phases): the
    interference detectors plus and minus, then ref0 and ref1, which monitor
    the non-filtered component of each arm. Phases are stored as floats and
    must be finite and strictly increasing; the settings are checked as the
    simulators check them, and so is the seed. A NaN or infinite count raises
    :class:`NonFiniteError`, a non-integral one or one outside
    [0, shots_per_phase] :class:`DimensionError`, naming its detector.
    Datasets compare and hash by identity.
    """

    phases: tuple[float, ...]
    counts: np.ndarray
    shots_per_phase: int
    seed: tuple[int, ...]
    efficiencies: tuple[float, float, float, float]

    def __post_init__(self):
        phases = _phase_tuple(self.phases)
        efficiencies = _counting_settings(self.shots_per_phase, self.efficiencies)
        counts = np.asarray(self.counts)
        if counts.shape != (4, len(phases)):
            raise DimensionError(f"counts shape {counts.shape} is not (4, {len(phases)} phases)")
        if counts.dtype.kind not in "iu":
            values = counts.astype(complex)
            _refuse_rows(~np.isfinite(values), NonFiniteError, "NaN or infinite entry in {} counts")
            _refuse_rows(values != np.round(values.real), DimensionError,
                         "{} counts have a non-integral entry")
        counts = np.array(counts, dtype=np.int64)
        _refuse_rows((counts < 0) | (counts > self.shots_per_phase), DimensionError,
                     "{} counts outside [0, shots_per_phase]")
        counts.flags.writeable = False
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "efficiencies", efficiencies)
        object.__setattr__(self, "seed", _seed_tuple(self.seed))


def _unitary_rows(ch: PathChannel):
    """Weights w_k, if every Kraus pair is a sub-normalized unitary pair
    (A_k^dag A_k = B_k^dag B_k = w_k 1 within 1e-9, w_k >= 1e-12); None
    otherwise."""
    d = ch.spin_dim
    gram = ch.kraus.conj().swapaxes(-1, -2) @ ch.kraus
    w = np.trace(gram, axis1=-2, axis2=-1).real / d
    wa = w[:, 0]
    if (wa < 1e-12).any() or (np.abs(wa - w[:, 1]) > ATOL_DERIVED).any():
        return None
    if np.abs(gram - w[..., None, None] * np.eye(d)).max() > ATOL_DERIVED:
        return None
    return wa


def _allocate(shots: int, weights) -> list[int]:
    """Deterministic largest-remainder split of shots across weights."""
    raw = [shots * w for w in weights]
    base = [int(math.floor(x)) for x in raw]
    rest = shots - sum(base)
    order = sorted(range(len(raw)), key=lambda i: raw[i] - base[i], reverse=True)
    for i in order[:rest]:
        base[i] += 1
    return base


def _probability_tables(ch, kets, filters, phases, contrast, shots_per_phase):
    """Shots of each row and the (cells, phases, rows, 4) detection
    probabilities of the plus, minus, ref0 and ref1 detectors, each row
    normalised. The cells are every (preparation, filter) pair, preparations
    major; ``kets`` holds each preparation's (psi0, psi1).

    The per-Kraus amplitudes x_k = <chi0|A_k|psi0> and y_k = <chi1|B_k|psi1>
    of every cell come from one contraction. If every Kraus pair is a
    sub-normalized unitary pair of weight w_k, row k is the arm-unitary pair
    (A_k, B_k) / sqrt(w_k), with f0 = |x_k|^2 / w_k, f1 = |y_k|^2 / w_k and
    v = x_k y_k* / w_k, and takes its largest-remainder share of the shots.
    Otherwise one pooled row takes every shot, with the exact mixture
    f0 = sum_k |x_k|^2, f1 = sum_k |y_k|^2 and v = sum_k x_k y_k*.
    """
    psi = np.array(kets, dtype=complex)
    chi = np.array([(f.chi0, f.chi1) for f in filters], dtype=complex)
    amps = np.einsum("fia,kiab,pib->ipfk", chi.conj(), ch.kraus, psi)
    x, y = amps.reshape(2, -1, len(ch.kraus))
    f0, f1, v = np.abs(x) ** 2, np.abs(y) ** 2, x * y.conj()
    weights = _unitary_rows(ch)
    if weights is None:
        weights = [1.0]
        f0, f1, v = (a.sum(axis=1, keepdims=True) for a in (f0, f1, v))
    else:
        f0, f1, v = f0 / weights, f1 / weights, v / weights

    osc = (contrast * v[:, None, :] * np.exp(1j * np.array(phases))[:, None]).real
    mean = (0.5 * (f0 + f1))[:, None, :]
    pvals = np.empty(osc.shape + (4,))
    pvals[..., 0] = 0.5 * (mean + osc)
    pvals[..., 1] = 0.5 * (mean - osc)
    pvals[..., 2] = (0.5 * (1.0 - f0))[:, None, :]
    pvals[..., 3] = (0.5 * (1.0 - f1))[:, None, :]
    np.clip(pvals, 0.0, None, out=pvals)
    pvals /= pvals.sum(axis=-1, keepdims=True)
    return np.array(_allocate(shots_per_phase, weights)), pvals


def _counting_phases(phases, contrast) -> tuple[float, ...]:
    """Validate the contrast; the phases as floats (13 over [0, 2 pi] by default)."""
    if not 0.0 < contrast <= 1.0:
        raise DimensionError(f"contrast {contrast} outside (0, 1]")
    return _phase_tuple(np.linspace(0.0, 2.0 * np.pi, 13) if phases is None else phases)


def _count_cells(ch, kets, filters, phases, shots_per_phase, efficiencies, contrast,
                 seeds) -> np.ndarray:
    """(cells, 4, phases) detector counts of the cells of
    :func:`_probability_tables`, cell c drawn from
    ``np.random.default_rng(seeds[c])`` in the order the module documents;
    the settings are already checked."""
    shots, tables = _probability_tables(ch, kets, filters, phases, contrast, shots_per_phase)
    thin = np.array(efficiencies)[:, None]
    counts = np.empty((len(tables), 4, len(phases)), dtype=np.int64)
    for out, table, seed in zip(counts, tables, seeds):
        rng = np.random.default_rng(seed)
        out[:] = rng.multinomial(shots, table).sum(axis=1).T
        if min(efficiencies) < 1.0:
            out[:] = rng.binomial(out, thin)
    return counts


def simulate_fringes(
    ch: PathChannel,
    prep,
    filt: FilterPair,
    phases=None,
    shots_per_phase: int = 10_000,
    efficiencies: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0),
    contrast: float = 1.0,
    seed=0,
) -> FringeDataset:
    """Simulate detector counts for one preparation/filter cell.

    Exact detection probabilities are computed for each arm-unitary row of
    the channel (shots split equally-by-weight across rows, matching the
    per-phase averaging over plate settings) and for every phase at once,
    by the table builder that :func:`run_experiment` runs over all its cells,
    here with one cell; the fringe amplitude is scaled by the contrast
    factor. The photons are then distributed multinomially over the four
    detectors and each detector is thinned binomially by its efficiency.

    The draws come from ``np.random.default_rng(seed)``, in the order the
    module docstring states, so the counts for a given seed are fixed.
    """
    efficiencies = _counting_settings(shots_per_phase, efficiencies)
    phases = _counting_phases(phases, contrast)
    seed = _seed_tuple(seed)
    (counts,) = _count_cells(ch, [pure_pair(prep, ch.spin_dim)], [filt], phases,
                             shots_per_phase, efficiencies, contrast, [seed])
    return FringeDataset(phases, counts, shots_per_phase, seed, efficiencies)


def binomial_resample(ds: FringeDataset, reference_efficiency: float, seed=0) -> FringeDataset:
    """Thin every detector's counts so all share the reference efficiency,
    with one ``binomial`` call over (detector, phase) from
    ``np.random.default_rng(seed)``."""
    if not 0.0 < reference_efficiency <= min(ds.efficiencies):
        raise DimensionError(
            f"reference efficiency {reference_efficiency} must be in (0, min(efficiencies)]"
        )
    ratios = reference_efficiency / np.array(ds.efficiencies)
    counts = np.random.default_rng(_seed_tuple(seed)).binomial(ds.counts, ratios[:, None])
    return FringeDataset(ds.phases, counts, ds.shots_per_phase, ds.seed,
                         (reference_efficiency,) * 4)


# ---------------------------------------------------------------------------
# Fringe fitting


def fit_report(rec: FractionalVisibilityRecord) -> str:
    """Structured text summary of a fringe fit."""
    return "\n".join([
        "fringe fit",
        f"  p     = {rec.p:.4f} +/- {rec.sigma_p:.4f}",
        f"  |V|   = {abs(rec.visibility):.4f} +/- {rec.sigma_v:.4f}",
        f"  phase = {float(np.angle(rec.visibility)):+.4f} rad",
        f"  residual rms = {rec.residual_rms:.2e}",
    ])


def fit_fringes(ds: FringeDataset) -> FractionalVisibilityRecord:
    """Least-squares fit of counts to T_j * (p +/- Re(V e^{i phi})) / 2, as
    an unlabelled record (mu = nu = "").

    The per-phase normalization T_j is the total count over all four
    detectors (the reference detectors complete the total); phases with no
    counts take no part. The model is linear in (p, Re V, Im V);
    uncertainties come from the fit covariance, and p is clipped to [0, 1].
    """
    return _fit_counts(np.array(ds.phases), ds.counts[None], [("", "")])[0]


def _fit_counts(phases: np.ndarray, counts: np.ndarray, keys) -> list[FractionalVisibilityRecord]:
    """:func:`fit_fringes` of every cell of (cells, 4, phases) counts over
    the same strictly increasing phases, cell c labelled by the c-th key.

    The design and data rows of a phase with no counts in a cell are zeroed,
    so that phase drops out of the cell's fit, which has
    2 * (populated phases) - 3 degrees of freedom. One batched thin SVD then
    fits every cell, and each cell keeps every check of its own fit, the
    records' 3-sigma envelope included.
    """
    totals = counts.sum(axis=1)
    populated = totals > 0
    # Rounding keeps the phases sorted, so equal rounded phases form runs; a
    # cell's distinct populated phases are its runs with a populated phase.
    starts = np.flatnonzero(np.diff(np.round(phases, 12), prepend=np.nan) != 0)
    distinct = np.logical_or.reduceat(populated, starts, axis=1).sum(axis=1)
    span = (np.where(populated, phases, -np.inf).max(axis=1, initial=-np.inf)
            - np.where(populated, phases, np.inf).min(axis=1, initial=np.inf))
    sparse, narrow = distinct < 4, span < np.pi
    failing = np.flatnonzero(sparse | narrow)
    if failing.size:  # the first failing cell names the fault
        if sparse[failing[0]]:
            raise NumericalError("insufficient phase coverage: need >= 4 populated phases")
        raise NumericalError("insufficient phase coverage: span below half a period")

    c, s = 0.5 * np.cos(phases), 0.5 * np.sin(phases)
    half = np.full_like(c, 0.5)
    design = np.concatenate([np.stack([half, c, -s], -1), np.stack([half, -c, s], -1)])
    rows = np.tile(populated, 2)  # plus rows, then minus rows
    design = np.where(rows[..., None], design, 0.0)
    y = (counts[:, :2] / np.where(populated, totals, 1)[:, None]).reshape(len(counts), -1)

    # The thin SVD of each cell's design gives the condition number of its
    # normal equations, (s_max / s_min)^2, its least-squares solution and its
    # covariance up to the residual variance.
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if (s[:, 0] ** 2 > 1e12 * s[:, -1] ** 2).any():
        raise NumericalError("degenerate design matrix: phases do not constrain the fit")
    v = vt.swapaxes(1, 2)
    beta = (v @ ((u.swapaxes(1, 2) @ y[..., None]) / s[..., None]))[..., 0]
    resid = y - (design @ beta[..., None])[..., 0]
    sq = np.einsum("ci,ci->c", resid, resid)
    n_rows = rows.sum(axis=1)
    var = sq / (n_rows - 3)
    unit_cov = (v / s[:, None, :] ** 2) @ vt

    mag = np.hypot(beta[:, 1], beta[:, 2])
    grad = beta[:, 1:] / np.where(mag > 1e-12, mag, 1.0)[:, None]
    spread_v = np.where(
        mag > 1e-12,
        np.einsum("ci,cij,cj->c", grad, unit_cov[:, 1:, 1:], grad),
        0.5 * (unit_cov[:, 1, 1] + unit_cov[:, 2, 2]),
    )
    sigma_p = np.sqrt(np.maximum(var * unit_cov[:, 0, 0], 0.0))
    sigma_v = np.sqrt(np.maximum(var * spread_v, 0.0))
    rms = np.sqrt(sq / n_rows)
    p = np.clip(beta[:, 0], 0.0, 1.0)
    vis = beta[:, 1] + 1j * beta[:, 2]
    if _beyond_envelope(vis, p, sigma_p, sigma_v).any():
        raise NumericalError("fitted |V| exceeds p beyond the 3-sigma envelope; fit inconsistent")
    return [FractionalVisibilityRecord(mu, nu, *fields) for (mu, nu), *fields
            in zip(keys, p.tolist(), vis.tolist(), sigma_p.tolist(), sigma_v.tolist(),
                   rms.tolist())]


def _simulate_cells(ch, preparations, filters, phases, shots_per_phase, efficiencies,
                    contrast, seed) -> tuple[tuple[float, ...], np.ndarray]:
    """The phases and the (cells, 4, phases) counts of :func:`run_experiment`,
    cells over the sorted (mu, nu) grid, preparations major, every detector
    drawn at the lowest efficiency."""
    efficiencies = _counting_settings(shots_per_phase, efficiencies)
    phases = _counting_phases(phases, contrast)
    if shots_per_phase < 1:
        raise DimensionError(f"shots_per_phase {shots_per_phase} below 1: no counts to fit")
    for name, grid in (("preparations", preparations), ("filters", filters)):
        if not grid:
            raise DimensionError(f"{name} is empty: no cells to simulate")
    seed = _seed_tuple(seed)
    mus, nus = sorted(preparations), sorted(filters)
    seeds = [seed + cell for cell in itertools.product(range(len(mus)), range(len(nus)))]
    counts = _count_cells(ch, [pure_pair(preparations[mu], ch.spin_dim) for mu in mus],
                          [filters[nu] for nu in nus], phases, shots_per_phase,
                          (min(efficiencies),) * 4, contrast, seeds)
    return phases, counts


def run_experiment(
    ch: PathChannel,
    preparations: dict[str, tuple[np.ndarray, np.ndarray]] | None = None,
    filters: dict[str, FilterPair] | None = None,
    *,
    phases=None,
    shots_per_phase: int = 10_000,
    efficiencies: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0),
    contrast: float = 1.0,
    seed=0,
) -> list[FractionalVisibilityRecord]:
    """Simulate and fit every (preparation, filter) cell.

    Non-uniform detector efficiencies are equalized to the minimum
    efficiency m before fitting, like the binomial resampling used on
    the measured data: since resampling thinned counts by m / e is thinning
    by m, cell (mu, nu) is ``simulate_fringes(..., efficiencies=(m,) * 4,
    seed=seed + (i_mu, i_nu))``, drawn as the module docstring states. The
    draws of all cells fill one (cells, 4, phases) counts array, which one
    batched SVD fits (:func:`fit_fringes` of each cell). A fit needs counts, so
    ``shots_per_phase`` below 1 is a :class:`DimensionError`, and so is an
    empty ``preparations`` or ``filters``.
    """
    preparations = rectilinear_preparations() if preparations is None else preparations
    filters = rectilinear_filters() if filters is None else filters
    phases, counts = _simulate_cells(ch, preparations, filters, phases, shots_per_phase,
                                     efficiencies, contrast, seed)
    return _fit_counts(np.array(phases), counts,
                       itertools.product(sorted(preparations), sorted(filters)))


# ---------------------------------------------------------------------------
# Dataset CSV

_DS_FIELDS = ["phase", "n_plus", "n_minus", "n_ref0", "n_ref1"]


def write_dataset_csv(ds: FringeDataset, path_or_buffer) -> None:
    write_csv(path_or_buffer, _DS_FIELDS,
              ([repr(phi), *n] for phi, n in zip(ds.phases, ds.counts.T.tolist())))


def read_dataset_csv(path_or_buffer, shots_per_phase: int, seed=0,
                     efficiencies=(1.0, 1.0, 1.0, 1.0)) -> FringeDataset:
    rows = read_csv(path_or_buffer, _DS_FIELDS, (float, int, int, int, int))
    counts = np.array([r[1:] for r in rows], dtype=np.int64).reshape(-1, 4).T
    return FringeDataset(tuple(r[0] for r in rows), counts, shots_per_phase, seed, efficiencies)
