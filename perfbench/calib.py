"""Host-speed calibration for the benchmark's timings.

On a shared host the same CPU-bound call can run up to twice as slow for
seconds to minutes at a time, with CPU time equal to wall time, so neither
longer runs nor CPU clocks remove the drift.  The workers therefore time a
fixed pure-Python task beside the items (before an item whenever SPACING_S
has passed since the last sample, and after the last item) and report each
time in reference milliseconds: the measured time multiplied by
REF_MS / (the median of the NEAREST samples taken closest to it).

The task mixes what cantorspec spends its time on (dict and set work, sorting,
big-integer and Fraction arithmetic, integer polynomial products), because
a slow phase of the host slows code with a larger working set more than a
tight loop.  It does not touch cantorspec and runs with the garbage collector
off, so a change to the program moves the item times and not the factors.
Items that are whole CLI processes are calibrated by starting a bare
interpreter instead (spawn_ms): process start-up follows the host's
slow phases differently from in-process work.
"""

from __future__ import annotations

import gc
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# Reference times on an unloaded 2-vCPU x86-64 host, CPython 3.11.
REF_MS = 3.0  # task_ms
SPAWN_REF_MS = 50.0  # spawn_ms
SPACING_S = 0.05
SPAWN_SPACING_S = 0.25
NEAREST = 5

_rng = random.Random(0)
_PERM = list(range(4000))
_rng.shuffle(_PERM)
_GRAPH = {v: set() for v in range(200)}
for _ in range(3000):
    _a, _b = _rng.randrange(200), _rng.randrange(200)
    if _a != _b:
        _GRAPH[_a].add(_b)
        _GRAPH[_b].add(_a)


def _task() -> None:
    table = {}
    for i in range(1500):
        table[(i * 7919) % 10007] = i
    sorted(_PERM[:2000])
    x = 3**2000
    for _ in range(20):
        x = (x * 12345678911) % (7**2500)
    f = Fraction(0)
    for i in range(1, 80):
        f += Fraction(1, i)
    for v in range(0, 200, 4):  # greedy clique growth
        candidates = set(_GRAPH[v])
        while candidates:
            u = min(candidates, key=lambda y: len(_GRAPH[y] & candidates))
            candidates &= _GRAPH[u]
    p = [1]
    for k in range(1, 30):  # products of 1 - x^(k mod 7 + 1)
        q = [1] + [0] * (k % 7) + [-1]
        r = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            if a:
                for j, b in enumerate(q):
                    r[i + j] += a * b
        p = r[:200]


def task_ms() -> float:
    """Wall time of the fixed task, in milliseconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _task()
        return (time.perf_counter() - start) * 1e3
    finally:
        if enabled:
            gc.enable()


def spawn_ms() -> float:
    """Wall time of starting and ending a bare interpreter, in milliseconds."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return (time.perf_counter() - start) * 1e3


def factor(samples, ref_ms: float = REF_MS) -> float:
    """The reference time over the median of some measured times."""
    return ref_ms / statistics.median(samples)


class Sampler:
    """Calibration times taken beside a closed loop of items: task_ms, or
    spawn_ms for items that are whole processes."""

    def __init__(self, spawn: bool = False):
        self.measure, self.ref_ms, self.spacing_s = (
            (spawn_ms, SPAWN_REF_MS, SPAWN_SPACING_S) if spawn else (task_ms, REF_MS, SPACING_S)
        )
        self.times: list[float] = []
        self.values: list[float] = []

    def sample(self, force: bool = False) -> None:
        """Take a sample, unless the last one is under spacing_s old."""
        now = time.perf_counter()
        if force or not self.times or now - self.times[-1] >= self.spacing_s:
            self.values.append(self.measure())
            self.times.append(now)

    def factor_at(self, when: float) -> float:
        """The factor from the NEAREST samples closest in time to `when`."""
        nearest = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - when))[:NEAREST]
        return factor([self.values[i] for i in nearest], self.ref_ms)
