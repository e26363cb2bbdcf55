"""whichway benchmark: four closed-loop workloads, one client each.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the end-to-end metrics are measured with tracing off;
with ``--trace 1`` a separate traced run gives the per-layer metrics. Every
metric is printed by name with its unit, and the last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Run without arguments to measure every workload both ways.

Measurements run in fresh worker processes (``worker.py``) with the BLAS
thread variables pinned to 1 before numpy is imported. Scratch output
(results, spans) goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_SECONDS = 25
# Set-up is timed on this many worker launches per run, half before and half
# after the measuring one; the median is reported.
SETUP_PROBES = 8
# Reference units on each side of an op that gauge the slowdown it ran at.
NEAR_UNITS = 10
WORKER_GRACE_S = 60  # beyond its --seconds before a worker is killed
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def per_layer_units() -> dict[str, str]:
    from tracing import LAYERS, SPAN_NAMES

    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls_per_op"] = "count"
        units[f"{name}.self_us_per_op"] = "us"
    for layer in LAYERS:
        units[f"{layer}.self_frac"] = "fraction"
        units[f"{layer}.incl_frac"] = "fraction"
    units.update({"cli.interpreter_ms": "ms", "cli.numpy_import_ms": "ms",
                  "cli.import_ms": "ms", "cli.main_us_per_op": "us",
                  "trace.overhead_frac": "fraction"})
    return units


def launch(workload: str, seed: int, seconds: float, mode: str) -> dict:
    """Run one worker process; return its result with ``setup_s`` added."""
    out = OUT / f"worker-{workload}-{mode}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--root", str(ROOT), "--out", str(out)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} {mode} worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}:\n{err[-3000:]}")
    result = json.loads(out.read_text(encoding="ascii"))
    out.unlink()
    result["setup_s"] = result["ready_monotonic"] - t0
    return result


def nearest_rank(sorted_values, q: float) -> tuple[float, int]:
    """Nearest-rank quantile and the number of samples beyond it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def latency_stats(latencies_ns) -> dict:
    lat = sorted(latencies_ns)
    return {"ops_per_s": len(lat) / (sum(lat) / 1e9),
            "op_p50_ms": statistics.median(lat) / 1e6,
            "op_p90_ms": nearest_rank(lat, 0.9)[0] / 1e6}


def rescaled_latencies(raw: dict) -> tuple[list[float], list[float]]:
    """Each timed op's latency divided by the slowdown gauged around it.

    The slowdown of an op is that of the ``NEAR_UNITS`` reference units run
    just before it and as many just after. The first window is a warm-up and
    is left out.
    """
    from reference import slowdown

    ref = raw["ref_ns"]
    first = raw["window_ops"]
    slowdowns = [slowdown(ref[max(0, p - NEAR_UNITS):p + NEAR_UNITS])
                 for p in raw["ref_pos"][first:]]
    return [x / s for x, s in zip(raw["latencies_ns"][first:], slowdowns)], slowdowns


def measure_e2e(workload: str, seed: int, seconds: float):
    from reference import slowdown

    def probes():
        return [launch(workload, seed, 0, "setup") for _ in range(SETUP_PROBES // 2)]

    launches = probes()
    raw = launch(workload, seed, seconds, "e2e")
    launches += [raw] + probes()
    setups = [r["setup_s"] / slowdown(r["setup_ref_ns"]) for r in launches]
    rescaled, slowdowns = rescaled_latencies(raw)
    scaled = latency_stats(rescaled)
    _, beyond = nearest_rank(rescaled, 0.9)
    metrics = {
        "setup_s": statistics.median(setups),
        **scaled,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024,
    }
    wall = latency_stats(raw["latencies_ns"][raw["window_ops"]:])
    notes = {
        "setup_s": f"median of {len(setups)} worker launches; "
                   f"wall {statistics.median(r['setup_s'] for r in launches):.6g}",
        "ops_per_s": f"{len(rescaled)} ops after a warm-up of {raw['window_ops']}; "
                     f"wall {wall['ops_per_s']:.6g}",
        "op_p50_ms": f"wall {wall['op_p50_ms']:.6g}",
        "op_p90_ms": f"nearest rank, {beyond} of {len(rescaled)} beyond; "
                     f"wall {wall['op_p90_ms']:.6g}",
        "peak_rss_mb": ("largest whichway process" if workload == "cli_oneshot"
                        else "worker process"),
    }
    result = {**raw, "setup_samples_s": setups, "wall": wall,
              "machine_slowdown": statistics.median(slowdowns)}
    return metrics, E2E_UNITS, notes, result


def measure_traced(workload: str, seed: int, seconds: float):
    raw = launch(workload, seed, seconds, "trace")
    units = per_layer_units()
    layer = raw.pop("metrics")
    metrics = {name: layer[name] for name in units}
    notes = {"trace.overhead_frac": f"{raw['passes']} paired passes of {raw['pool']} ops"}
    if not raw["counts_exact"]:
        raw["errors"].append("calls_per_op differ between traced passes")
    return metrics, units, notes, raw


def run_one(wl, seed: int, seconds: float, trace: int) -> dict:
    measure = measure_traced if trace else measure_e2e
    metrics, units, notes, result = measure(wl.name, seed, seconds)
    gate_ok, gate = wl.gate(result["stats"])
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and gate_ok and result.get("counts_exact", True)
    print(f"== {wl.name} seed={seed} trace={trace}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print(f"attempted {attempted}, failed {failed}, "
          f"failed_ops_frac {failed / max(attempted, 1):.6f}")
    if gate:
        print("gate " + json.dumps(gate, sort_keys=True) + (" ok" if gate_ok else " FAILED"))
    for err in result["errors"]:
        print(f"failure: {err}")
    if "machine_slowdown" in result:
        print(f"machine slowdown {result['machine_slowdown']:.4g} (median reference unit / "
              "nominal); times below are rescaled by it, wall-clock values beside")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {units[name]}{note}")
    record = {"workload": wl.name, "seed": seed, "trace": trace, "correct": correct,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
              "gate": gate, **result}
    (OUT / f"result-{wl.name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1), encoding="ascii")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": record["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    args = parser.parse_args(argv)

    if not (SRC / "whichway" / "__init__.py").is_file():
        print(f"error: whichway sources not found under {SRC}", file=sys.stderr)
        return 2
    # Set before numpy is first imported, here and in every child process.
    os.environ.update({v: "1" for v in THREAD_VARS})
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC),
                                                             os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(BENCH, quiet=1)
    OUT.mkdir(exist_ok=True)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.trace is None else (args.trace,)
    runs = []
    try:
        for name in names:
            for trace in traces:
                runs.append((name, run_one(workloads.WORKLOADS[name], args.seed,
                                           args.seconds, trace)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(runs) == 1:
        summary = runs[0][1]
    else:
        summary = {
            "correct": all(r["correct"] for _, r in runs),
            "attempted": sum(r["attempted"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "metrics": {f"{n}/{k}": v for n, r in runs for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
