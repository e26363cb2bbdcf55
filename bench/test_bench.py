"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest -q bench
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import whichway as ww
import run
import worker
import workloads
import reference
from tracing import OP, Span, Tracer, call_counts, self_times, summarize, whichway_modules

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def ctx(tmp_path):
    return workloads.Context(root=ROOT, out_dir=tmp_path)


def function_bindings():
    return {(m.__name__, attr): value
            for m in whichway_modules()
            for attr, value in vars(m).items() if callable(value)}


def traced_pass(wl, cases, ctx, tracer):
    with tracer:
        for op_id, case in enumerate(cases):
            with tracer.op(op_id):
                wl.check(case, wl.op(case, ctx), {})


def test_wrapper_catches_cross_module_calls():
    # duality binds block_choi and matrix_sqrt by name at import time
    ch = ww.random_path_channel(2, 2, 5)
    prep = ww.Preparation.completely_mixed(2)
    tracer = Tracer()
    with tracer, tracer.op(0):
        ww.verify_inequality(ch, prep)
    edges = {(s.name, tracer.spans[s.parent].name) for s in tracer.spans if s.parent >= 0}
    assert ("channels.block_choi", "duality.visibility_operator") in edges
    assert ("linalg.matrix_sqrt", "duality.visibility_operator") in edges
    assert ("channels.dilate", "duality.verify_inequality") in edges


def test_self_time_within_inclusive_and_spans_nest_by_op(ctx):
    tracer = Tracer()
    for name, n in (("tradeoff_sweep", 8), ("certify_records", 8), ("experiment_pipeline", 2)):
        wl = workloads.WORKLOADS[name]
        traced_pass(wl, wl.build(3, ctx)[:n], ctx, tracer)
    spans = tracer.spans
    own = self_times(spans)
    for s, t in zip(spans, own):
        assert 0 <= t <= s.end_ns - s.start_ns
        if s.name == OP:
            assert s.parent == -1
        else:
            parent = spans[s.parent]
            assert parent.start_ns <= s.start_ns <= s.end_ns <= parent.end_ns
            assert parent.op == s.op


def test_summarize_self_and_inclusive_shares():
    spans = [
        Span(OP, 0, 100, -1, 0),
        Span("bounds.swap_certificate", 10, 60, 0, 0),
        Span("bounds.verify_alpha_constraint", 20, 40, 1, 0),
        Span("linalg.matrix_sqrt", 25, 30, 2, 0),
    ]
    assert self_times(spans) == [50, 30, 15, 5]
    m = summarize(spans)
    assert m["bounds.swap_certificate.calls_per_op"] == 1
    assert m["bounds.verify_alpha_constraint.self_us_per_op"] == 15 / 1e3
    assert m["bounds.self_frac"] == pytest.approx(0.45)
    assert m["bounds.incl_frac"] == pytest.approx(0.5)
    assert m["linalg.incl_frac"] == pytest.approx(0.05)


def test_untraced_and_finished_traced_runs_leave_original_bindings(ctx):
    before = function_bindings()
    wl = workloads.WORKLOADS["tradeoff_sweep"]
    pool = wl.build(4, ctx)[:6]
    worker.run_timed(wl, pool, ctx, reference.Reference(), seconds=0.05)
    assert all(function_bindings()[key] is value for key, value in before.items())
    tracer = Tracer()
    traced_pass(wl, pool, ctx, tracer)
    after = function_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_calls_per_op_repeat_exactly_at_one_seed(ctx):
    for name, n in (("tradeoff_sweep", 12), ("certify_records", 12), ("experiment_pipeline", 3)):
        wl = workloads.WORKLOADS[name]
        counts = []
        for _ in range(2):
            tracer = Tracer()
            traced_pass(wl, wl.build(7, ctx)[:n], ctx, tracer)
            counts.append(call_counts(tracer.spans))
        assert counts[0] == counts[1]
        assert sum(counts[0].values()) > 0


def test_rescaling_removes_a_machine_slowdown():
    # 8 ops per window, one reference unit after each op; from op 16 on, the
    # machine runs twice as slow, and ops and reference units slow alike.
    nominal = reference.NOMINAL_UNIT_NS
    slow = [1 if i < 16 else 2 for i in range(48)]
    raw = {"window_ops": 8, "latencies_ns": [3_000_000 * s for s in slow],
           "ref_pos": list(range(48)), "ref_ns": [nominal * s for s in slow]}
    rescaled, slowdowns = run.rescaled_latencies(raw)
    assert len(rescaled) == 40  # the first window is a warm-up
    assert slowdowns[0] == 1 and slowdowns[-1] == 2
    edge = {i for i in range(8, 48) if abs(i - 16) <= run.NEAR_UNITS}
    for i, x in zip(range(8, 48), rescaled):
        if i not in edge:
            assert x == 3_000_000


def test_reference_unit_does_not_load_whichway():
    # A change to the program must not be able to move the reference.
    code = ("import sys, reference; assert reference.Reference().unit() > 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'whichway'))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "bench",
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def mix_key(case):
    if isinstance(case, workloads.SweepCase):
        return case.ch.spin_dim, case.ch.n_kraus, case.prep.is_pure, case.expected_vg
    if isinstance(case, workloads.ExperimentCase):
        return case.contrast, len(set(case.efficiencies))
    if isinstance(case, workloads.CertifyCase):
        return case.ch.spin_dim, case.ch.n_kraus
    return case.argv


def test_every_window_holds_the_same_input_mix(ctx):
    for wl in workloads.WORKLOADS.values():
        pool = wl.build(5, ctx)
        cycled = [mix_key(pool[i % len(pool)]) for i in range(3 * wl.window_ops)]
        windows = [sorted(map(repr, cycled[i:i + wl.window_ops]))
                   for i in range(0, len(cycled), wl.window_ops)]
        assert windows[0] == windows[1] == windows[2], wl.name


def test_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tradeoff_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
