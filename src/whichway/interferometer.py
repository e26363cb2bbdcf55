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
fit serves every cell of that array in closed form: p is the mean of the
detector sum, and V solves the 2 x 2 normal equations of the detector
difference, one batched inverse for all cells. A phase without counts in a
cell takes no part in that cell's fit, and each fitted cell is a
:class:`FractionalVisibilityRecord` that carries its residual rms; a fit
beyond the records' 3-sigma envelope raises :class:`NumericalError`.

Random streams: a cell seeded ``seed`` draws from one generator, in the
state ``np.random.default_rng(seed)`` gives it. It first makes one
``multinomial`` call over its (phases, rows, 4) probability table, each row
with its share of the shots, which numpy draws in C order over
(phase, row); then, if any efficiency is below one, one ``binomial`` call
that thins the summed (4, phases) counts by the detector efficiencies, in C
order over (detector, phase). :func:`simulate_fringes` is that one cell.
:func:`run_experiment` seeds cell (mu, nu) with ``seed + (i_mu, i_nu)`` and
draws it at the lowest efficiency m on every detector: thinning by e and then
resampling by m / e is thinning by m, as Bin(Bin(n, e), m / e) = Bin(n, m).
:func:`binomial_resample` makes one ``binomial`` call over (detector, phase)
from a generator seeded ``seed``. Every generator comes from
:func:`~whichway.linalg._generators`, which splits a run's seed into
SeedSequence's uint32 entropy words once and appends each cell's
(i_mu, i_nu) to them, the words ``default_rng`` would read from the tuple;
each cell's SeedSequence mixes them into its pool, and the hash of those
pools into PCG64's seed words runs over all the cells in one array pass, as
``SeedSequence.generate_state`` computes it, so the states are the same.
Counts for a given seed are part of the interface and stay fixed. The
drawing functions reach ``numpy.random`` only when they run, so importing
the package does not load it.

The phases of a run are checked once, into a read-only grid that also holds
what the draws and the fit read from them (:class:`_PhaseGrid`), the fit's
checks and normal equations with every phase counted among them; the 13
default phases are that grid, built at import. A :class:`FringeDataset`
keeps the grid of its phases, so its fit checks no phase again.

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
from dataclasses import dataclass, field

import numpy as np

from ._files import read_csv, write_csv
from .bounds import (
    FilterPair,
    FractionalVisibilityRecord,
    _beyond_envelope,
    _filter_kets,
    _rectilinear_grid,
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
from .linalg import (ATOL_DERIVED, _frozen, _generators, _instance, _mapping, _numbers,
                     _text, finite_array, int_at_least, real_in)

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
    "I": _frozen(np.eye(2, dtype=complex)),
    "X": PAULI_X,
    "Y": PAULI_Y,
    "Z": PAULI_Z,
}


def jones_matrix(kind: str, angle_deg: float) -> np.ndarray:
    """Jones matrix R(theta) diag(1, -1 or i) R(-theta) of a "half" or
    "quarter" plate at theta = ``angle_deg``, in the lab frame; a kind that
    is not a str, another kind, or an angle that is not a real number in
    [-180, 180] degrees, raises :class:`DimensionError`, and a NaN or
    infinite angle :class:`NonFiniteError`."""
    if _text(kind, "wave plate kind") not in ("half", "quarter"):
        raise DimensionError(f"unknown wave plate kind {kind!r}")
    theta = math.radians(real_in(angle_deg, "angle", -180.0, 180.0, unit="degrees"))
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
        names = self.target.split(",") if isinstance(self.target, str) else ()
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
    """What :func:`verify_noise_program` found for one row: its target label,
    its largest deviation from the target pair up to a shared phase, and the
    frame-corrected arm unitaries (u0, u1) the row realizes, which
    :func:`program_channel` mixes. Compared and hashed by identity."""

    target: str
    deviation: float
    effective_pair: tuple[np.ndarray, np.ndarray] = field(repr=False)


_FRAME = _frozen((np.eye(2) - 1j * PAULI_X) / np.sqrt(2))


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
    :class:`DimensionError` for no rows and for ``rows`` that are not an
    iterable of :class:`NoiseRow`, and :class:`ConventionError` naming
    every row that fails, with its deviation.
    """
    entries = tuple(rows) if np.iterable(rows) else (None,)
    if not all(isinstance(row, NoiseRow) for row in entries):
        raise DimensionError(f"rows {rows!r} is not an iterable of NoiseRow")
    if not entries:
        raise DimensionError("a noise program needs at least one row")
    reports, failures = [], []
    for row in entries:
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
    no reports, ``reports`` that are not an iterable, or an entry that is
    not a :class:`RowReport`, raise :class:`DimensionError`."""
    if not np.iterable(reports):
        raise DimensionError(f"reports {reports!r} is not an iterable of RowReport")
    reports = tuple(reports)
    for i, report in enumerate(reports):
        if not isinstance(report, RowReport):
            raise DimensionError(f"reports[{i}] {report!r} is not a RowReport")
    if not reports:
        raise DimensionError("a noise program channel needs at least one row report")
    scale = 1.0 / np.sqrt(len(reports))
    return PathChannel(scale * np.array([r.effective_pair for r in reports]),
                       label="noise-program")


# ---------------------------------------------------------------------------
# Counting simulation


_DETECTORS = ("plus", "minus", "ref0", "ref1")


def _phase_tuple(phases) -> tuple[float, ...]:
    """The phases as floats; refuses phases that are not a 1-D array of
    finite real numbers, strictly increasing."""
    values = finite_array(phases, "phases")
    if values.ndim != 1 or values.imag.any():
        raise DimensionError("phases must be a 1-D array of real numbers")
    phases = tuple(values.real.tolist())
    if any(b <= a for a, b in zip(phases, phases[1:])):
        raise DimensionError("phases must be strictly increasing")
    return phases


def _normal_equations(grid: _PhaseGrid, populated: np.ndarray) -> tuple:
    """The checks and the normal equations of the fit of :func:`_fit_counts`
    over the populated phases of each cell of a (cells, phases) mask on the
    phases of ``grid``: (sparse, narrow, degenerate, m, G^-1), the first
    four (cells,) arrays, m each cell's count of populated phases and G^-1
    the (cells, 2, 2) inverses of the Gram matrices of b, or None if a
    check fails. A cell is sparse with fewer than 4 distinct populated
    phases, narrow if they span less than pi, and degenerate if
    m / l_min > 1e12, l_min the smaller eigenvalue of G."""
    phases, b = grid.values, grid.design
    # a cell's distinct populated phases are the grid's runs of equal
    # rounded phases that hold a populated phase
    distinct = np.logical_or.reduceat(populated, grid.starts, axis=1).sum(axis=1)
    span = (np.where(populated, phases, -np.inf).max(axis=1, initial=-np.inf)
            - np.where(populated, phases, np.inf).min(axis=1, initial=np.inf))
    m = populated.sum(axis=1)
    gram = (populated[:, None, :] * b) @ b.T
    # tr G = m, so (s_max / s_min)^2 = max(m, l_max) / min(m, l_min) of the
    # design is m / l_min, l_min the smaller eigenvalue of G
    l_min = 0.5 * m - np.hypot(0.5 * (gram[:, 0, 0] - gram[:, 1, 1]), gram[:, 0, 1])
    sparse, narrow, degenerate = distinct < 4, span < np.pi, m > 1e12 * l_min
    fails = (sparse | narrow | degenerate).any()
    return sparse, narrow, degenerate, m, None if fails else np.linalg.inv(gram)


@dataclass(frozen=True, eq=False)
class _PhaseGrid:
    """Phases checked on construction by :func:`_phase_tuple`, with the
    arrays that the probability tables and the fit read from them, each
    formed once: ``phases``, the floats; and, read-only, ``values``, their
    array, ``waves``, e^{i phi}, ``design``, the (2, phases) fit design
    b = (cos phi, -sin phi), ``starts``, the first index of each run of
    phases equal to 12 decimals, and ``full_fit``, the
    :func:`_normal_equations` of one cell with every phase populated, which
    the fit of counts at every phase reads."""

    phases: tuple[float, ...]
    values: np.ndarray = field(init=False)
    waves: np.ndarray = field(init=False)
    design: np.ndarray = field(init=False)
    starts: np.ndarray = field(init=False)
    full_fit: tuple = field(init=False, repr=False)

    def __post_init__(self):
        phases = _phase_tuple(self.phases)
        values = np.array(phases)
        # rounding keeps the phases sorted, so equal rounded phases form
        # runs, and a run starts at the first phase (if any) and at each
        # phase that differs from its predecessor
        rounded = np.round(values, 12)
        change = np.concatenate(([True], rounded[1:] != rounded[:-1]))
        starts = np.flatnonzero(change[:len(phases)])
        design = np.stack([np.cos(values), -np.sin(values)])
        for name, value in (("values", values), ("waves", np.exp(1j * values)),
                            ("design", design), ("starts", starts)):
            object.__setattr__(self, name, _frozen(value))
        object.__setattr__(self, "phases", phases)
        full_fit = _normal_equations(self, np.ones((1, len(phases)), dtype=bool))
        object.__setattr__(self, "full_fit", tuple(a if a is None else _frozen(a)
                                                   for a in full_fit))


_DEFAULT_PHASES = _PhaseGrid(np.linspace(0.0, 2.0 * np.pi, 13))
_MAX_SHOTS = 2**62


def _counting_settings(shots_per_phase, efficiencies) -> tuple[float, float, float, float]:
    """The efficiencies as floats; refuses efficiencies that are not four
    real numbers in (0, 1] and a shot count that is not an integer in
    [0, 2^62]. The draws and the counts are int64; the split across the
    channel's rows is exact, so a phase's counts sum to its shot count, and
    the cap, half the int64 range, leaves every such sum a factor of two
    below overflow."""
    efficiencies = tuple(efficiencies) if np.iterable(efficiencies) else ()
    if len(efficiencies) != 4:
        raise DimensionError("efficiencies must be four values in (0, 1]")
    efficiencies = tuple(real_in(e, f"efficiencies[{i}]", 0.0, 1.0, open_low=True)
                         for i, e in enumerate(efficiencies))
    int_at_least(shots_per_phase, "shots_per_phase", 0, _MAX_SHOTS)
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
    must be finite and strictly increasing; ``grid``, not an argument, is
    their :class:`_PhaseGrid`, which the fit reads. ``phases`` may also be
    such a grid (the simulators pass the one they checked): a grid checks
    its phases when it is made, so the dataset takes it as it is. The
    settings are checked as the simulators check
    them, and so is the seed. The counts are read by the array rule of
    :mod:`whichway.linalg`, so text, a bool or None among them raises
    :class:`DimensionError`. A NaN or infinite count raises
    :class:`NonFiniteError`, a non-integral one or one outside
    [0, shots_per_phase] :class:`DimensionError`, naming its detector.
    Datasets compare and hash by identity.
    """

    phases: tuple[float, ...] | _PhaseGrid
    counts: np.ndarray
    shots_per_phase: int
    seed: tuple[int, ...]
    efficiencies: tuple[float, float, float, float]
    grid: _PhaseGrid = field(init=False, repr=False)

    def __post_init__(self):
        grid = self.phases if isinstance(self.phases, _PhaseGrid) else _PhaseGrid(self.phases)
        phases = grid.phases
        efficiencies = _counting_settings(self.shots_per_phase, self.efficiencies)
        values = _numbers(self.counts, "counts")
        if values.shape != (4, len(phases)):
            raise DimensionError(f"counts shape {values.shape} is not (4, {len(phases)} phases)")
        _refuse_rows(~np.isfinite(values), NonFiniteError, "NaN or infinite entry in {} counts")
        _refuse_rows(values != np.round(values.real), DimensionError,
                     "{} counts have a non-integral entry")
        counts = np.array(self.counts, dtype=np.int64)
        _refuse_rows((counts < 0) | (counts > self.shots_per_phase), DimensionError,
                     "{} counts outside [0, shots_per_phase]")
        counts.flags.writeable = False
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "efficiencies", efficiencies)
        object.__setattr__(self, "seed", _seed_tuple(self.seed))


def _allocate(shots: int, weights) -> list[int]:
    """Largest-remainder split of shots across float weights, exact in
    integers: over a common denominator weight i is n_i, row i takes
    shots * n_i // sum(n), and the largest remainders (the first row first
    among equal ones) take one more each, so the shares sum to ``shots``."""
    ratios = [float(w).as_integer_ratio() for w in weights]
    denominator = math.lcm(*(q for _, q in ratios))
    nums = [p * (denominator // q) for p, q in ratios]
    base, residue = zip(*(divmod(int(shots) * n, sum(nums)) for n in nums))
    extra = sorted(range(len(nums)), key=residue.__getitem__, reverse=True)[:shots - sum(base)]
    return [b + (i in extra) for i, b in enumerate(base)]


def _probability_tables(ch, kets, chis, grid, contrast, shots_per_phase):
    """Shots of each row and the (cells, phases, rows, 4) detection
    probabilities of the plus, minus, ref0 and ref1 detectors, each row
    normalised, at the phases of ``grid`` (a :class:`_PhaseGrid`). The cells
    are every (preparation, filter) pair, preparations major; ``kets`` holds
    each preparation's checked (psi0, psi1) and ``chis`` each filter's
    (chi0, chi1), as an (n, 2, d) array or a sequence of pairs.

    The per-Kraus amplitudes x_k = <chi0|A_k|psi0> and y_k = <chi1|B_k|psi1>
    of every cell come from one contraction. If the channel has
    ``unitary_weights`` w_k, row k is the arm-unitary pair
    (A_k, B_k) / sqrt(w_k), with f0 = |x_k|^2 / w_k, f1 = |y_k|^2 / w_k and
    v = x_k y_k* / w_k, and takes its largest-remainder share of the shots.
    Otherwise one pooled row takes every shot, with the exact mixture
    f0 = sum_k |x_k|^2, f1 = sum_k |y_k|^2 and v = sum_k x_k y_k*.
    """
    psi, chi = np.asarray(kets), np.asarray(chis)
    amps = np.einsum("fia,kiab,pib->ipfk", chi.conj(), ch.kraus, psi)
    x, y = amps.reshape(2, -1, len(ch.kraus))
    f0, f1, v = np.abs(x) ** 2, np.abs(y) ** 2, x * y.conj()
    weights = ch.unitary_weights
    if weights is None:
        weights = [1.0]
        f0, f1, v = (a.sum(axis=1, keepdims=True) for a in (f0, f1, v))
    else:
        f0, f1, v = f0 / weights, f1 / weights, v / weights

    osc = (contrast * v[:, None, :] * grid.waves[:, None]).real
    mean = (0.5 * (f0 + f1))[:, None, :]
    pvals = np.empty(osc.shape + (4,))
    pvals[..., 0] = 0.5 * (mean + osc)
    pvals[..., 1] = 0.5 * (mean - osc)
    pvals[..., 2] = (0.5 * (1.0 - f0))[:, None, :]
    pvals[..., 3] = (0.5 * (1.0 - f1))[:, None, :]
    np.clip(pvals, 0.0, None, out=pvals)
    pvals /= pvals.sum(axis=-1, keepdims=True)
    return np.array(_allocate(shots_per_phase, weights)), pvals


def _counting_phases(phases, contrast) -> tuple[_PhaseGrid, float]:
    """The :class:`_PhaseGrid` of the phases (by default ``_DEFAULT_PHASES``,
    the 13 over [0, 2 pi], built at import) and the contrast, a real number
    in (0, 1], as a float."""
    grid = _DEFAULT_PHASES if phases is None else _PhaseGrid(phases)
    return grid, real_in(contrast, "contrast", 0.0, 1.0, open_low=True)


def _count_cells(ch, kets, chis, grid, shots_per_phase, efficiencies, contrast,
                 rngs) -> np.ndarray:
    """(cells, 4, phases) detector counts of the cells of
    :func:`_probability_tables`, cell c drawn from the generator ``rngs[c]``
    in the order the module documents; the settings are already checked."""
    shots, tables = _probability_tables(ch, kets, chis, grid, contrast, shots_per_phase)
    thin = np.array(efficiencies)[:, None]
    counts = np.empty((len(tables), 4, len(grid.phases)), dtype=np.int64)
    for out, table, rng in zip(counts, tables, rngs):
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

    The draws come from one generator in the state
    ``np.random.default_rng(seed)`` gives it, in the order the module
    docstring states, so the counts for a given seed are fixed. A ``ch``
    that is not a :class:`PathChannel`, or a ``filt`` that is not a
    :class:`FilterPair`, raises :class:`DimensionError`.
    """
    _instance(ch, PathChannel, "channel ch")
    _instance(filt, FilterPair, "filter filt")
    efficiencies = _counting_settings(shots_per_phase, efficiencies)
    grid, contrast = _counting_phases(phases, contrast)
    seed = _seed_tuple(seed)
    chis = [_filter_kets(filt, ch.spin_dim, filt.label)]
    (counts,) = _count_cells(ch, [pure_pair(prep, ch.spin_dim)], chis, grid, shots_per_phase,
                             efficiencies, contrast, _generators(seed))
    return FringeDataset(grid, counts, shots_per_phase, seed, efficiencies)


def binomial_resample(ds: FringeDataset, reference_efficiency: float, seed=0) -> FringeDataset:
    """Thin every detector's counts so all share the reference efficiency, a
    real number in (0, min(efficiencies)], with one ``binomial`` call over
    (detector, phase) from one generator in the state
    ``np.random.default_rng(seed)`` gives it. A ``ds`` that is not a
    :class:`FringeDataset` raises :class:`DimensionError`."""
    _instance(ds, FringeDataset, "dataset ds")
    reference_efficiency = real_in(reference_efficiency, "reference_efficiency", 0.0,
                                   min(ds.efficiencies), open_low=True)
    ratios = reference_efficiency / np.array(ds.efficiencies)
    (rng,) = _generators(_seed_tuple(seed))
    counts = rng.binomial(ds.counts, ratios[:, None])
    return FringeDataset(ds.grid, counts, ds.shots_per_phase, ds.seed,
                         (reference_efficiency,) * 4)


# ---------------------------------------------------------------------------
# Fringe fitting


def fit_report(rec: FractionalVisibilityRecord) -> str:
    """Structured text summary of a fringe fit; a ``rec`` that is not a
    :class:`FractionalVisibilityRecord` raises :class:`DimensionError`."""
    _instance(rec, FractionalVisibilityRecord, "record rec")
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
    A ``ds`` that is not a :class:`FringeDataset` raises
    :class:`DimensionError`.
    """
    _instance(ds, FringeDataset, "dataset ds")
    return _fit_counts(ds.grid, ds.counts[None], [("", "")])[0]


def _fit_counts(grid: _PhaseGrid, counts: np.ndarray, keys) -> list[FractionalVisibilityRecord]:
    """:func:`fit_fringes` of every cell of (cells, 4, phases) counts over
    the phases of ``grid`` (a :class:`_PhaseGrid`), cell c labelled by the
    c-th key.

    Over a cell's m populated phases, the detector sum n+/T + n-/T fits p
    and the difference n+/T - n-/T fits b . (Re V, Im V), b = (cos phi,
    -sin phi): the normal matrix is diag(m, G) / 2, G the 2 x 2 Gram matrix
    of b, so p is the mean sum and one batched 2 x 2 inverse of G gives V.
    The residual variance is pooled over both detectors, 2m - 3 degrees of
    freedom, and each cell keeps every check of its own fit, the records'
    3-sigma envelope included. When every phase of every cell has counts,
    the checks, m and G^-1 are the grid's ``full_fit``, prepared once;
    otherwise :func:`_normal_equations` forms them from the populated
    phases of each cell. The checks raise in one order: the first cell
    with too few distinct phases or too narrow a span, then a degenerate
    design.
    """
    b = grid.design
    totals = counts.sum(axis=1)
    populated = totals > 0
    full = populated.all()
    sparse, narrow, degenerate, m, g_inv = (grid.full_fit if full
                                            else _normal_equations(grid, populated))
    failing = np.flatnonzero(sparse | narrow)
    if failing.size:  # the first failing cell names the fault
        if sparse[failing[0]]:
            raise NumericalError("insufficient phase coverage: need >= 4 populated phases")
        raise NumericalError("insufficient phase coverage: span below half a period")
    if degenerate.any():
        raise NumericalError("degenerate design matrix: phases do not constrain the fit")
    if full:  # one copy per cell: the masked route's layout, so its einsum order
        g_inv = g_inv.repeat(len(counts), axis=0)

    # an unpopulated phase has zero sum, difference and weight
    y = counts[:, :2] / np.where(populated, totals, 1)[:, None]
    total, diff = y[:, 0] + y[:, 1], y[:, 0] - y[:, 1]
    p_hat = total.sum(axis=1) / m
    beta = (g_inv @ (diff @ b.T)[..., None])[..., 0]
    # the plus and minus residuals are (sum residual +/- difference residual) / 2
    resid = np.where(populated, [total - p_hat[:, None], diff - beta @ b], 0.0)
    sq = 0.5 * np.einsum("icj,icj->c", resid, resid)
    # twice the pooled variance: the covariance of (p, V) is scale * diag(1 / m, G^-1)
    scale = 2.0 * sq / (2 * m - 3)

    mag = np.hypot(beta[:, 0], beta[:, 1])
    grad = beta / np.where(mag > 1e-12, mag, 1.0)[:, None]
    spread_v = np.where(mag > 1e-12, np.einsum("ci,cij,cj->c", grad, g_inv, grad),
                        0.5 * (g_inv[:, 0, 0] + g_inv[:, 1, 1]))
    sigma_p = np.sqrt(scale / m)
    sigma_v = np.sqrt(scale * spread_v)
    rms = np.sqrt(sq / (2 * m))
    p = np.clip(p_hat, 0.0, 1.0)
    vis = beta[:, 0] + 1j * beta[:, 1]
    if _beyond_envelope(vis, p, sigma_p, sigma_v).any():
        raise NumericalError("fitted |V| exceeds p beyond the 3-sigma envelope; fit inconsistent")
    return [FractionalVisibilityRecord(mu, nu, *fields) for (mu, nu), *fields
            in zip(keys, p.tolist(), vis.tolist(), sigma_p.tolist(), sigma_v.tolist(),
                   rms.tolist())]


def _simulate_cells(ch, preparations, filters, phases, shots_per_phase, efficiencies,
                    contrast, seed) -> tuple[_PhaseGrid, np.ndarray, itertools.product]:
    """The phase grid, the (cells, 4, phases) counts and the (mu, nu) keys of
    :func:`run_experiment`, cells over the sorted (mu, nu) grid,
    preparations major, every detector drawn at the lowest efficiency. A
    ``preparations`` or ``filters`` of None is the rectilinear set; with
    both None and a spin dimension of 2 the cells are the labels and the
    ket stack of the rectilinear grid, built and checked once."""
    _instance(ch, PathChannel, "channel ch")
    efficiencies = _counting_settings(shots_per_phase, efficiencies)
    grid, contrast = _counting_phases(phases, contrast)
    if shots_per_phase < 1:
        raise DimensionError(f"shots_per_phase {shots_per_phase} below 1: no counts to fit")
    rectilinear = preparations is None and filters is None
    preparations = (rectilinear_preparations() if preparations is None
                    else _mapping(preparations, "preparations"))
    filters = rectilinear_filters() if filters is None else _mapping(filters, "filters")
    for name, entries in (("preparations", preparations), ("filters", filters)):
        if not entries:
            raise DimensionError(f"{name} is empty: no cells to simulate")
    seed = _seed_tuple(seed)
    if rectilinear and ch.spin_dim == 2:
        constants = _rectilinear_grid()
        mus = nus = constants["labels"]
        kets = chis = constants["pairs"]
    else:
        mus, nus = sorted(preparations), sorted(filters)
        kets = [pure_pair(preparations[mu], ch.spin_dim, mu) for mu in mus]
        chis = [_filter_kets(filters[nu], ch.spin_dim, nu) for nu in nus]
    counts = _count_cells(ch, kets, chis, grid, shots_per_phase, (min(efficiencies),) * 4,
                          contrast, _generators(seed, (len(mus), len(nus))))
    return grid, counts, itertools.product(mus, nus)


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
    closed-form fit serves (:func:`fit_fringes` of each cell). A fit needs
    counts, so ``shots_per_phase`` below 1 is a :class:`DimensionError`, and
    so is an empty ``preparations`` or ``filters``.

    The defaults are constants built and checked once: ``phases=None`` is
    the grid of 13 phases over [0, 2 pi], and with ``preparations`` and
    ``filters`` both None a channel of spin dimension 2 takes the sorted
    labels and the (4, 2, 2) ket stack of the rectilinear grid, which serves
    as both the preparation and the filter stack. A filter whose dimension
    is not the channel's raises :class:`DimensionError`, and so do a
    ``shots_per_phase`` above 2^62 and a ``ch`` that is not a
    :class:`PathChannel`.
    """
    grid, counts, keys = _simulate_cells(ch, preparations, filters, phases, shots_per_phase,
                                         efficiencies, contrast, seed)
    return _fit_counts(grid, counts, keys)


# ---------------------------------------------------------------------------
# Dataset CSV

_DS_FIELDS = ["phase", "n_plus", "n_minus", "n_ref0", "n_ref1"]


def write_dataset_csv(ds: FringeDataset, path_or_buffer) -> None:
    """Write the dataset's phases and (4, phases) counts as CSV to a path or
    a text buffer; a ``ds`` that is not a :class:`FringeDataset` raises
    :class:`DimensionError`."""
    _instance(ds, FringeDataset, "dataset ds")
    write_csv(path_or_buffer, _DS_FIELDS,
              ([repr(phi), *n] for phi, n in zip(ds.phases, ds.counts.T.tolist())))


def read_dataset_csv(path_or_buffer, shots_per_phase: int, seed=0,
                     efficiencies=(1.0, 1.0, 1.0, 1.0)) -> FringeDataset:
    rows = read_csv(path_or_buffer, _DS_FIELDS, (float, int, int, int, int))
    counts = np.array([r[1:] for r in rows], dtype=np.int64).reshape(-1, 4).T
    return FringeDataset(tuple(r[0] for r in rows), counts, shots_per_phase, seed, efficiencies)
