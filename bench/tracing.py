"""Outside-in tracing of whichway's public functions.

A :class:`Tracer` wraps each function listed in ``TARGETS`` and rebinds the
wrapper under every name that holds the original function in the package
root and in each ``whichway.*`` module namespace. Rebinding every name
matters: ``duality`` does ``from .channels import block_choi``, so patching
``whichway.channels`` alone would miss the calls made from ``duality``.

Each call records a span (name, start, end, parent, op id) in memory; the
harness opens one root span named ``op`` per benchmark operation. Nothing in
the library changes, and uninstalling restores the original objects.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from typing import NamedTuple

TARGETS = {
    "linalg": ("trace_norm", "matrix_sqrt", "partial_trace"),
    "channels": ("block_choi", "block_map", "dilate"),
    "duality": (
        "verify_inequality",
        "generalized_visibility",
        "visibility_operator",
        "environment_states",
        "distinguishability",
    ),
    "bounds": (
        "fractional_visibility",
        "verify_alpha_constraint",
        "swap_certificate",
        "single_preparation_certificate",
        "bound_from_visibilities",
        "read_records_csv",
    ),
    "interferometer": (
        "run_experiment",
        "simulate_fringes",
        "fit_fringes",
        "binomial_resample",
    ),
}
LAYERS = tuple(TARGETS)
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns)
OP = "op"


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span, -1 for none
    op: int


def whichway_modules():
    """The package root and every loaded ``whichway.*`` submodule."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "whichway" or name.startswith("whichway."))]


class Tracer:
    """Records spans for calls into the ``TARGETS`` functions while installed."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.op_id)

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, fns in TARGETS.items():
            module = importlib.import_module(f"whichway.{layer}")
            for fn in fns:
                original = getattr(module, fn)
                wrappers[id(original)] = (original, self._wrap(f"{layer}.{fn}", original))
        for module in whichway_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    @contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark operation; library spans nest under it."""
        self.op_id = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = Span(OP, start, end, -1, op_id)

    def adopt(self, spans) -> None:
        """Append spans recorded in another process under the open span.

        Both processes read CLOCK_MONOTONIC through ``perf_counter_ns``, so
        the timestamps share one time base.
        """
        parent = self._stack[-1]
        base = len(self.spans)
        for s in map(Span._make, spans):
            self.spans.append(s._replace(
                parent=parent if s.parent < 0 else base + s.parent, op=self.op_id))

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct child spans cover.

    Calls are synchronous, so the children of one span never overlap.
    """
    out = [s.end_ns - s.start_ns for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end_ns - s.start_ns
    return out


def call_counts(spans) -> dict[str, int]:
    counts = dict.fromkeys(SPAN_NAMES, 0)
    for s in spans:
        if s.name in counts:
            counts[s.name] += 1
    return counts


def summarize(spans) -> dict[str, float]:
    """Per-function calls and self time per op, and per-layer time shares.

    ``<layer>.self_frac`` is the layer's self time over total op time;
    ``<layer>.incl_frac`` counts each outermost span of the layer with its
    children, i.e. the share of op time spent inside some call into it.
    """
    n_ops = sum(1 for s in spans if s.name == OP)
    if n_ops == 0:
        raise ValueError("no op spans recorded")
    op_ns = sum(s.end_ns - s.start_ns for s in spans if s.name == OP)
    own = self_times(spans)
    calls = call_counts(spans)
    self_ns = dict.fromkeys(SPAN_NAMES, 0)
    layer_self = dict.fromkeys(LAYERS, 0)
    layer_incl = dict.fromkeys(LAYERS, 0)
    for i, s in enumerate(spans):
        if s.name not in self_ns:
            continue
        layer = s.name.split(".", 1)[0]
        self_ns[s.name] += own[i]
        layer_self[layer] += own[i]
        p = s.parent
        while p >= 0 and not spans[p].name.startswith(layer + "."):
            p = spans[p].parent
        if p < 0:
            layer_incl[layer] += s.end_ns - s.start_ns
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls_per_op"] = calls[name] / n_ops
        metrics[f"{name}.self_us_per_op"] = self_ns[name] / n_ops / 1e3
    for layer in LAYERS:
        metrics[f"{layer}.self_frac"] = layer_self[layer] / op_ns
        metrics[f"{layer}.incl_frac"] = layer_incl[layer] / op_ns
    return metrics
