"""The four benchmark workloads: inputs from a seed, one operation, checks.

Each workload builds a fixed pool of inputs from the seed during set-up; the
library sees only those inputs. The harness cycles through the pool, one
operation at a time. ``check`` runs outside the timed region and returns a
failure reason or None; it may add counts to ``stats``, which are summed
over a run's worker processes and judged by ``gate``.

Input mixes are fixed per pool rather than drawn per operation, so every
seed runs the same mix of sizes and only the numbers differ. Where two
kinds of operation differ in cost, their shares are chosen so that the
median and the p90 fall inside one kind rather than on the edge between two.
"""

from __future__ import annotations

import functools
import json
import math
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import whichway as ww

ATOL = 1e-8
CONSOLE_SCRIPT = "import sys; from whichway.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Context:
    root: Path          # checkout root; CLI commands run here
    out_dir: Path       # scratch files written by the benchmark
    tracer: object = None  # set for traced passes of cli_oneshot


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, Context], list]
    op: Callable[[object, Context], object]
    check: Callable[[object, object, dict], str | None]
    window_ops: int  # ops per measurement window; each window holds the full input mix
    window_ref_units: int  # reference units spread evenly through each window
    gate: Callable[[dict], tuple[bool, dict]] = lambda stats: (True, {})


def _ket(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _channel_seed(rng) -> int:
    return int(rng.integers(2**31))


def _finite_unit(x) -> bool:
    return x is not None and math.isfinite(x) and -ATOL <= x <= 1.0 + ATOL


# ---------------------------------------------------------------------------
# tradeoff_sweep: verify_inequality over random and worked channels

SWEEP_DIMS = (2, 3, 4, 8)
SWEEP_RANKS = (1, 2, 4, 16)
SWEEP_REPS = 4  # instances per (d, rank); alternately pure and ensemble


@dataclass(frozen=True)
class SweepCase:
    ch: ww.PathChannel
    prep: ww.Preparation
    expected_vg: float | None = None
    expected_d: float | None = None


def _ensemble(rng, d: int) -> ww.Preparation:
    n = int(rng.integers(2, 4))
    weights = rng.dirichlet(np.ones(n))
    weights = tuple(weights / weights.sum())
    return ww.Preparation.ensemble(weights, [(_ket(rng, d), _ket(rng, d)) for _ in range(n)])


def build_sweep(seed: int, ctx: Context) -> list[SweepCase]:
    rng = np.random.default_rng([seed, 1])
    cases = []
    for d in SWEEP_DIMS:
        for k in SWEEP_RANKS:
            for rep in range(SWEEP_REPS):
                ch = ww.random_path_channel(d, k, _channel_seed(rng))
                prep = (ww.Preparation.pure(_ket(rng, d), _ket(rng, d)) if rep % 2 == 0
                        else _ensemble(rng, d))
                cases.append(SweepCase(ch, prep))
    h = ww.ket(0, 2)
    hh = ww.Preparation.pure(h, h)
    mixed2 = ww.Preparation.completely_mixed(2)
    half = np.eye(2) / 2
    cases += [
        SweepCase(ww.identity_channel(2), hh, 1.0, 0.0),
        SweepCase(ww.identity_channel(3), ww.Preparation.completely_mixed(3), 1.0, 0.0),
        SweepCase(ww.transpose_channel(2), hh, 0.5, 0.5),
        SweepCase(ww.transpose_channel(2), mixed2, 1.0, 0.0),
        SweepCase(ww.pauli_mixture_channel(), hh, 0.5, 0.5),
        SweepCase(ww.pauli_mixture_channel(), mixed2, 1.0, 0.0),
        SweepCase(ww.replace_channel(half), hh),
        SweepCase(ww.replace_channel(half), mixed2),
    ]
    return [cases[i] for i in rng.permutation(len(cases))]


def sweep_op(case: SweepCase, ctx: Context):
    return ww.verify_inequality(case.ch, case.prep)


def sweep_check(case: SweepCase, report, stats: dict) -> str | None:
    d_val, v_val = report.distinguishability, report.visibility
    if not (_finite_unit(d_val) and _finite_unit(v_val)):
        return f"{report.channel_id}: D={d_val}, V_G={v_val} not finite in [0, 1]"
    if report.slack < -ATOL:
        return f"{report.channel_id}: slack {report.slack:.3e} < -1e-8"
    for got, want, what in ((v_val, case.expected_vg, "V_G"),
                            (d_val, case.expected_d, "D")):
        if want is not None and abs(got - want) > 1e-9:
            return f"{report.channel_id}/{report.preparation_id}: {what}={got!r}, expected {want}"
    return None


# ---------------------------------------------------------------------------
# experiment_pipeline: what `whichway reproduce --seed` does, in-process

EXPERIMENT_POOL = 120
EXPERIMENT_SHOTS = 10_000
SWAP_BAND = (0.94, 0.98)      # contrast-0.96 swap bounds, acceptance criterion 09
SWAP_BAND_SHARE = 0.95
COMPLEMENTARY = (("hh", "vv"), ("hv", "vh"))


@dataclass(frozen=True)
class ExperimentCase:
    seed: int
    contrast: float
    efficiencies: tuple[float, float, float, float]


def build_experiment(seed: int, ctx: Context) -> list[ExperimentCase]:
    # Unequal efficiencies (which add thinning and binomial resampling, about
    # +60% time) on two ops in three: with one in two the median would sit
    # on the edge between the two costs.
    rng = np.random.default_rng([seed, 2])
    cases = []
    for i in range(EXPERIMENT_POOL):
        eff = (tuple(float(e) for e in rng.uniform(0.8, 1.0, 4)) if i % 3
               else (1.0, 1.0, 1.0, 1.0))
        cases.append(ExperimentCase(int(rng.integers(2**31)), 0.96 if i % 2 == 0 else 1.0, eff))
    return cases


def experiment_op(case: ExperimentCase, ctx: Context):
    records = ww.run_experiment(
        ww.pauli_mixture_channel(),
        shots_per_phase=EXPERIMENT_SHOTS,
        efficiencies=case.efficiencies,
        contrast=case.contrast,
        seed=case.seed,
    )
    recs = {r.key: r for r in records}
    certs = [ww.swap_certificate(records)]
    for mu in sorted({r.mu for r in records}):
        for nu, partner in COMPLEMENTARY:
            certs.append(ww.single_preparation_certificate(
                mu, [recs[(mu, nu)], recs[(mu, partner)]]))
    return certs


def experiment_check(case: ExperimentCase, certs, stats: dict) -> str | None:
    for cert in certs:
        if not all(_finite_unit(x) for x in (cert.vg_lower, cert.d_upper)):
            return f"seed {case.seed}: bound V_G>={cert.vg_lower}, D<={cert.d_upper} not in [0, 1]"
        if not all(x is not None and math.isfinite(x) for x in (cert.sigma_vg, cert.sigma_d)):
            return f"seed {case.seed}: non-finite uncertainty"
        if not cert.contraction_slack <= 1e-9:
            return f"seed {case.seed}: contraction slack {cert.contraction_slack:.3e} > 1e-9"
    if case.contrast == 0.96:
        stats["band_ops"] = stats.get("band_ops", 0) + 1
        lo, hi = SWAP_BAND
        stats["band_in"] = stats.get("band_in", 0) + (lo <= certs[0].vg_lower <= hi)
    return None


def experiment_gate(stats: dict) -> tuple[bool, dict]:
    n = stats.get("band_ops", 0)
    share = stats.get("band_in", 0) / n if n else 0.0
    return n > 0 and share >= SWAP_BAND_SHARE, {"swap_in_band_share": share, "swap_band_ops": n}


# ---------------------------------------------------------------------------
# certify_records: fractional visibilities, then a single-preparation bound

# (d, rank) classes per block; d=3 twice as often as d=2 keeps the median
# and p90 inside the d=3 costs instead of on the d=2 / d=3 edge.
CERTIFY_CLASSES = tuple((d, k) for d in (2, 3, 3) for k in (1, 2, 3))
CERTIFY_BLOCKS = 20


@dataclass
class CertifyCase:
    ch: ww.PathChannel
    psi0: np.ndarray
    psi1: np.ndarray
    filters: dict

    @functools.cached_property
    def true_vg(self) -> float:
        return ww.generalized_visibility(self.ch, ww.Preparation.pure(self.psi0, self.psi1))


def build_certify(seed: int, ctx: Context) -> list[CertifyCase]:
    rng = np.random.default_rng([seed, 3])
    cases = []
    for _ in range(CERTIFY_BLOCKS):
        for d, k in CERTIFY_CLASSES:
            ch = ww.random_path_channel(d, k, _channel_seed(rng))
            u0, u1 = _unitary(rng, d), _unitary(rng, d)
            filters = {f"f{j}": ww.FilterPair(u0[:, j], u1[:, j], label=f"f{j}")
                       for j in range(d)}
            cases.append(CertifyCase(ch, _ket(rng, d), _ket(rng, d), filters))
    return [cases[i] for i in rng.permutation(len(cases))]


def certify_op(case: CertifyCase, ctx: Context):
    pair = (case.psi0, case.psi1)
    records = [ww.fractional_visibility(case.ch, pair, f, mu="m") for f in case.filters.values()]
    return ww.single_preparation_certificate("m", records, preps={"m": pair},
                                             filters=case.filters)


def certify_check(case: CertifyCase, cert, stats: dict) -> str | None:
    if not (_finite_unit(cert.vg_lower) and _finite_unit(cert.d_upper)):
        return f"{case.ch.label}: bound V_G>={cert.vg_lower} not finite in [0, 1]"
    if cert.vg_lower > case.true_vg + ATOL:
        return f"{case.ch.label}: unsound, V_G>={cert.vg_lower!r} but V_G={case.true_vg!r}"
    return None


# ---------------------------------------------------------------------------
# cli_oneshot: one `whichway` process per operation, the README commands

GRID_CSV = "grid.csv"
CLI_COMMANDS = (
    (("vg", "--channel", "identity", "--d", "3", "--prep", "mixed"),
     ("V_G = 1.0000",)),
    (("distinguishability", "--channel", "pauli", "--prep", "mixed"),
     ("D = 0.0000",)),
    (("verify", "--channel", "transpose", "--d", "2", "--prep", "pure:h,h"),
     ("D     = 0.5000", "V_G   = 0.5000")),
    (("table", "--out", GRID_CSV),
     ("fractional visibilities V (rows mu, columns nu)",)),
    (("reproduce", "--seed", "7", "--shots", "10000", "--contrast", "0.96"),
     ("records: 16",)),
    (("reproduce", "--from-csv", "demos/data/measured_records.csv"),
     ("V_G >= 0.9605", "D   <= 0.2783",
      "best single preparation: mu=hh (V_G >= 0.5800, D <= 0.8146)")),
)
_SWAP_LINE = re.compile(r"^  V_G >= ([0-9.]+) ", re.MULTILINE)


@dataclass(frozen=True)
class CliCase:
    argv: tuple[str, ...]
    expect: tuple[str, ...]


def cli_argv(argv, ctx: Context) -> list[str]:
    """Resolve the table output into the benchmark's scratch directory."""
    return [str(ctx.out_dir / a) if a == GRID_CSV else a for a in argv]


def build_cli(seed: int, ctx: Context) -> list[CliCase]:
    # The commands are fixed by the README; the seed only rotates the cycle.
    cases = [CliCase(tuple(argv), expect) for argv, expect in CLI_COMMANDS]
    shift = seed % len(cases)
    return cases[shift:] + cases[:shift]


def cli_op(case: CliCase, ctx: Context):
    argv = cli_argv(case.argv, ctx)
    if ctx.tracer is None:
        return subprocess.run([sys.executable, "-c", CONSOLE_SCRIPT, *argv], cwd=ctx.root,
                              capture_output=True, text=True, timeout=120)
    spans_path = ctx.out_dir / "cli-spans.json"
    shim = Path(__file__).with_name("clishim.py")
    proc = subprocess.run([sys.executable, str(shim), str(spans_path), *argv], cwd=ctx.root,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode == 0:
        ctx.tracer.adopt(json.loads(spans_path.read_text(encoding="ascii")))
    return proc


def cli_check(case: CliCase, proc, stats: dict) -> str | None:
    name = case.argv[0]
    if proc.returncode != 0:
        return f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    missing = [e for e in case.expect if e not in proc.stdout]
    if missing:
        return f"{name}: output lacks {missing!r}"
    if "--seed" in case.argv:
        m = _SWAP_LINE.search(proc.stdout)
        lo, hi = SWAP_BAND
        if m is None or not lo <= float(m.group(1)) <= hi:
            return f"reproduce --seed: swap bound outside {SWAP_BAND}"
    return None


# Windows: two passes of the 72-case sweep; 12 experiment cases (the mix
# repeats every 6); one pass of the 180-case certify pool; one cycle of the
# 6 CLI commands. Each window takes 0.25-1 s, of which reference units
# (about 1 ms each) take a fifth or less.
WORKLOADS = {w.name: w for w in (
    Workload("tradeoff_sweep", build_sweep, sweep_op, sweep_check, 2 * 72, 60),
    Workload("experiment_pipeline", build_experiment, experiment_op, experiment_check, 12, 60,
             experiment_gate),
    Workload("certify_records", build_certify, certify_op, certify_check, 180, 60),
    Workload("cli_oneshot", build_cli, cli_op, cli_check, 6, 120),
)}
