"""Workload process: builds one workload's inputs, then runs a closed loop.

Started by ``run.py`` with the BLAS thread variables already set, so numpy
sees them at import. Modes:

- ``setup``: build the inputs and stop; the parent times launch to ready.
- ``e2e``: run whole measurement windows back to back with tracing off, as
  many as fit in ``--seconds`` (at least two; the first is a warm-up), with
  units of reference work (``reference.py``) spread evenly through each.
- ``trace``: alternate untraced and traced whole passes over the input pool
  for ``--seconds``, and time the import and in-process CLI costs.

Once the inputs are ready, every mode runs ``SETUP_REF_UNITS`` reference
units, which gauge the machine's speed for the set-up time. The outcome of
every operation, the reference times and the environment are written as
JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import Reference

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_ERRORS_KEPT = 5
CLI_MAIN_CYCLES = 5
IMPORT_PROBES = 5
SETUP_REF_UNITS = 15


@dataclasses.dataclass
class Tally:
    """Outcomes of the operations of one loop."""

    latencies_ns: list = dataclasses.field(default_factory=list)
    failed: int = 0
    errors: list = dataclasses.field(default_factory=list)
    stats: dict = dataclasses.field(default_factory=dict)

    def run(self, wl, case, ctx) -> None:
        """Time one operation; check its result outside the timed region."""
        t0 = time.perf_counter_ns()
        try:
            result, err = wl.op(case, ctx), None
        except Exception as exc:  # a failed op is counted, not fatal
            result, err = None, f"{type(exc).__name__}: {exc}"
        self.latencies_ns.append(time.perf_counter_ns() - t0)
        if err is None:
            err = wl.check(case, result, self.stats)
        if err is not None:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_KEPT:
                self.errors.append(err)

    def report(self) -> dict:
        return {"attempted": len(self.latencies_ns), "failed": self.failed,
                "errors": self.errors, "stats": self.stats}


def run_timed(wl, pool, ctx, ref: Reference, seconds: float) -> dict:
    tally = Tally()
    ref_ns = []
    ref_pos = []  # per op: how many reference units ran before it
    n, units = wl.window_ops, wl.window_ref_units
    deadline = time.perf_counter() + seconds
    i = windows = 0
    while True:
        start = time.perf_counter()
        for j in range(n):
            ref_pos.append(len(ref_ns))
            tally.run(wl, pool[i % len(pool)], ctx)
            i += 1
            ref_ns.extend(ref.unit() for _ in range((j + 1) * units // n - j * units // n))
        windows += 1
        now = time.perf_counter()
        if windows >= 2 and now + (now - start) > deadline:  # another would overrun
            break
    usage = resource.RUSAGE_CHILDREN if wl.name == "cli_oneshot" else resource.RUSAGE_SELF
    return {**tally.report(), "latencies_ns": tally.latencies_ns, "ref_ns": ref_ns,
            "ref_pos": ref_pos, "window_ops": n,
            "peak_rss_kb": resource.getrusage(usage).ru_maxrss}


def run_traced(wl, pool, ctx, seconds: float, spans_path: Path) -> dict:
    from tracing import Tracer, call_counts, summarize

    tracer = Tracer()
    tally = Tally()
    overheads = []  # per pair of adjacent untraced and traced passes
    pass_counts = []
    traced_ctx = dataclasses.replace(ctx, tracer=tracer)
    deadline = time.perf_counter() + seconds
    while not pass_counts or time.perf_counter() < deadline:
        n = len(tally.latencies_ns)
        for case in pool:
            tally.run(wl, case, ctx)
        untraced_ns = sum(tally.latencies_ns[n:])

        n, first_span = len(tally.latencies_ns), len(tracer.spans)
        with tracer:
            for op_id, case in enumerate(pool, start=len(pool) * len(pass_counts)):
                with tracer.op(op_id):
                    tally.run(wl, case, traced_ctx)
        overheads.append(1.0 - untraced_ns / sum(tally.latencies_ns[n:]))
        pass_counts.append(call_counts(tracer.spans[first_span:]))
    tracer.write(spans_path)
    metrics = summarize(tracer.spans)
    metrics["trace.overhead_frac"] = statistics.median(overheads)
    metrics.update(import_costs(ctx))
    metrics["cli.main_us_per_op"] = cli_main_us(ctx)
    return {**tally.report(), "passes": len(pass_counts), "pool": len(pool),
            "counts_exact": all(c == pass_counts[0] for c in pass_counts),
            "metrics": metrics}


def _child_seconds(ctx, code: str) -> float:
    proc = subprocess.run([sys.executable, "-c", code], cwd=ctx.root,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def import_costs(ctx) -> dict:
    """Medians over fresh interpreters: start-up, numpy import, whichway import."""
    timed_import = ("import time; t = time.perf_counter(); import {}; "
                    "print(time.perf_counter() - t)")
    probes = {"cli.numpy_import_ms": timed_import.format("numpy"),
              "cli.import_ms": timed_import.format("whichway")}
    out = {}
    samples = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ctx.root, timeout=60, check=True)
        samples.append(time.perf_counter() - t0)
    out["cli.interpreter_ms"] = statistics.median(samples) * 1e3
    for name, code in probes.items():
        out[name] = statistics.median(_child_seconds(ctx, code)
                                      for _ in range(IMPORT_PROBES)) * 1e3
    return out


def cli_main_us(ctx) -> float:
    """Mean in-process ``whichway.cli.main(argv)`` time over the README commands."""
    from whichway.cli import main
    from workloads import CLI_COMMANDS, cli_argv

    argvs = [cli_argv(argv, ctx) for argv, _ in CLI_COMMANDS]
    total_ns = 0
    for cycle in range(CLI_MAIN_CYCLES + 1):  # the first cycle warms up
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter_ns()
                rc = main(argv)
                elapsed = time.perf_counter_ns() - t0
            if rc != 0:
                raise RuntimeError(f"whichway {' '.join(argv)} exited {rc}")
            if cycle:
                total_ns += elapsed
    return total_ns / (CLI_MAIN_CYCLES * len(argvs)) / 1e3


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                 if blas.get(k)},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
        "scope": "only the benchmark's own processes are measured; "
                 "other load on the machine is not observed",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "e2e", "trace"), required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(root=args.root, out_dir=args.out.parent)
    pool = wl.build(args.seed, ctx)
    ref = Reference()
    result = {"ready_monotonic": time.monotonic(),
              "setup_ref_ns": [ref.unit() for _ in range(SETUP_REF_UNITS)]}
    if args.mode == "e2e":
        result.update(run_timed(wl, pool, ctx, ref, args.seconds))
    elif args.mode == "trace":
        spans = args.out.parent / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result.update(run_traced(wl, pool, ctx, args.seconds, spans))
    if args.mode != "setup":
        result["environment"] = environment(args.seed)
    args.out.write_text(json.dumps(result), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
