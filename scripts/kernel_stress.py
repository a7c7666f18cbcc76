#!/usr/bin/env python3
"""Time the float Q kernel on named stress cases.

Each case runs REPEATS times in this process and prints one
`case,seconds,answer` CSV row: the least wall time of the call alone (no
interpreter start or import; single runs of 0.1-2 ms move by more than a
third between identical runs) and its result, Q to 12 significant digits,
so that two checkouts whose kernels differ only in rounding give the same
answer.  The transfer case answers with whether the recursion defect stays
below 1e-14.  Every repeat starts from an empty memo of slice closures, so
each row times the closure's build too.  With no arguments every case
runs, in the order listed below; arguments pick cases by name.

The cases are the five pairs of the benchmark's qgrid workload at their
depths, the N = 8 pair at depth 2 (its whole slice is one polynomial), an
asymmetric domain (N = -5, S = {0, 7} at depth 4, where P_1 closes
prefixes that P_2 leaves open), wide digits (a digit spread of 2000),
three candidates far outside the window (4^20, congruent to 0 mod 4, so
that the slice takes its points, 4^20 + 2 and 3^600, whose slice closures
have empty domains and build no series), a candidate with two elements
congruent mod N (its slice points coincide, 4 + 0 = 0 + 4), two
transfer recursions (one with s = 4^20 + 2, whose inner points (xi + s)/N
have an integer part past 2^53), and a sweep of 24 grid points over [0, 1) on one pair
(6, {0,1,2}, S = {0,2,4} at depth 7), which builds the pair's closure once
and answers with the sum of the 24 Q values, and 100 points over [0, 1)
on the same pair, each from fresh records equal in value, so that all but
the first find the closure by the memo's key (the sum of the 100 values
again).  `wide-2000`, the `far-*`
cases and `collision-4` get no P_1 to P_4, only the tail series P_0, so
every slice point takes factors past the slice until P_0 closes it (the
leaf rows); every other case closes its prefixes with P_1 to P_4 (the
qgrid pairs all theirs with P_4, four digits before the slice ends).

Example:
    PYTHONPATH=src python scripts/kernel_stress.py qgrid-8 collision-4
"""

import math
import sys
import time

from cantorspec import (
    ScaleDigitSystem,
    SpectrumCandidate,
    TruncationPolicy,
    q_eval_with_bound,
    transfer_residual,
)
from cantorspec import kernel

XI = 0.3
REPEATS = 5


def q(scale, digits, elements, depth):
    value, _ = q_eval_with_bound(
        ScaleDigitSystem(scale, digits), SpectrumCandidate(elements), XI, TruncationPolicy(depth=depth)
    )
    return f"{value:.12g}"


def sweep(scale, digits, elements, depth, grid):
    system, candidate = ScaleDigitSystem(scale, digits), SpectrumCandidate(elements)
    policy = TruncationPolicy(depth=depth)
    total = math.fsum(q_eval_with_bound(system, candidate, i / grid, policy)[0] for i in range(grid))
    return f"{total:.12g}"


def warm_points(scale, digits, elements, depth, count):
    total = math.fsum(
        q_eval_with_bound(
            ScaleDigitSystem(scale, digits), SpectrumCandidate(elements), i / count, TruncationPolicy(depth=depth)
        )[0]
        for i in range(count)
    )
    return f"{total:.12g}"


def transfer(scale, digits, elements, depth):
    residual = transfer_residual(ScaleDigitSystem(scale, digits), SpectrumCandidate(elements), XI, depth)
    return "below-1e-14" if residual < 1e-14 else f"residual-{residual:.1e}"


CASES = {
    "qgrid-4": lambda: q(4, (0, 1), (0, 2), 8),
    "qgrid-minus-4": lambda: q(-4, (0, 1), (0, 2), 8),
    "qgrid-6": lambda: q(6, (0, 1, 2), (0, 2, 4), 7),
    "qgrid-9": lambda: q(9, (0, 1, 2), (0, 3, 6), 7),
    "qgrid-8": lambda: q(8, (0, 1, 2, 3), (0, 2, 4, 6), 6),
    "depth-2-8": lambda: q(8, (0, 1, 2, 3), (0, 2, 4, 6), 2),
    "asym-5": lambda: q(-5, (0, 1), (0, 7), 4),
    "wide-2000": lambda: q(3, (0, 2000), (0, 1), 8),
    "far-4-20": lambda: q(4, (0, 1), (0, 4**20), 3),
    "far-4-20-plus-2": lambda: q(4, (0, 1), (0, 4**20 + 2), 3),
    "far-3-600": lambda: q(2, (0, 1), (0, 3**600), 3),
    "collision-4": lambda: q(4, (0, 1), (0, 1, 4), 8),
    "transfer-6": lambda: transfer(6, (0, 1, 2), (0, 2, 4), 5),
    "transfer-far-4-20": lambda: transfer(4, (0, 1), (0, 4**20 + 2), 2),
    "sweep-6-24": lambda: sweep(6, (0, 1, 2), (0, 2, 4), 7, 24),
    "warm-points-6": lambda: warm_points(6, (0, 1, 2), (0, 2, 4), 7, 100),
}


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in CASES]
    if unknown:
        print(f"unknown case(s): {', '.join(unknown)}; known: {', '.join(CASES)}", file=sys.stderr)
        return 2
    print("case,seconds,answer")
    for name in names or CASES:
        best = float("inf")
        for _ in range(REPEATS):
            kernel._closure_memo.cache_clear()
            start = time.perf_counter()
            answer = CASES[name]()
            best = min(best, time.perf_counter() - start)
        print(f"{name},{best:.6f},{answer}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
