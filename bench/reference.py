"""Reference work that gauges how fast the machine runs at the moment.

The benchmark shares its host with other load that can slow every process by
up to about 2x for minutes at a time; CPU time slows as much as wall time, so
no statistic over the program's own timings removes it. The worker therefore
interleaves short units of fixed reference work with the operations it times,
and ``run.py`` rescales each measured time by ``NOMINAL_UNIT_NS / unit time``,
where the unit time is the median of the units run alongside it. The
reported times are what the program takes when the machine runs the reference
at its nominal speed.

The unit uses neither whichway nor anything it loads besides numpy, so no
change to the program moves it: a slower program still reports slower. It
mixes the kinds of work the workloads do: interpreter-bound Python, small
numpy calls and dense complex linear algebra up to 64x64.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the median unit time when the machine described in bench/README.md
# runs quiet, so rescaled times read close to wall times on a quiet machine.
NOMINAL_UNIT_NS = 1_100_000


class Reference:
    """Fixed inputs for the reference unit, built once per process."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20131101)
        self.mats = []
        for n in (2, 4, 8, 16, 64):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            self.mats.append(a + a.conj().T)
        self.probs = rng.uniform(0.1, 0.9, size=64)
        self.words = [f"k{i}" for i in range(64)]

    def unit(self) -> int:
        """Run one unit of reference work; return its wall time in ns."""
        t0 = time.perf_counter_ns()
        total = 0.0
        for m in self.mats:
            w, v = np.linalg.eigh(m)
            total += float(np.abs(v.conj().T @ m @ v).trace()) + float(w[-1])
        rng = np.random.default_rng(7)
        for _ in range(8):
            total += float(rng.binomial(1000, self.probs).sum())
            total += float(np.sqrt(np.clip(self.probs, 0.2, 0.8)).mean())
        table: dict[str, float] = {}
        for rep in range(12):
            for i, word in enumerate(self.words):
                table[word] = table.get(word, 0.0) + i * rep % 7
        total += sum(table.values())
        if not np.isfinite(total):
            raise ArithmeticError("reference unit gave a non-finite total")
        return time.perf_counter_ns() - t0


def slowdown(unit_times_ns) -> float:
    """How much slower than nominal the machine ran these reference units."""
    return statistics.median(unit_times_ns) / NOMINAL_UNIT_NS
