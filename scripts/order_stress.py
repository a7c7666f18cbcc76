#!/usr/bin/env python3
"""Time the exact layers on named stress cases.

Each case runs once in this process and prints one `case,seconds,answer`
CSV row: the wall time of the call alone (no interpreter start or import)
and a short form of its result.  A CLI case answers with its exit code and
the first 12 hex digits of the SHA-1 of its stdout, so two checkouts give
the same answer exactly when their output is byte-identical.  With no
arguments every case runs, in the order listed below; arguments pick cases
by name.

The cases are the recorded cliffs (wide digits at a large prime scale, a
prime shared by the scale and a digit difference, which the construction
and the pair power never ask about, the power 1.6 * 10^7 of the point
masses at N = 3, answered without forming its N^k of 2.5 * 10^7 bits, the
power 8 of {0, 1} and {0, N/2} at N = 10^400, answered from its two slices
with no re-check of the 32,640 pairs of S_8, the depth-13 slice of {0, 1}
at N = 10^239, refused by the 64-bit words of its points before it is
built, a large prime in both orders that one check asks, 2,000 digits,
the complement of {0, 13} at 192, 384 and 768, which a backtracking
search took seconds to find or refused, a complement
of 2^21 elements refused before it is built, the complement of 1,000
digits at L = 10^7, refused before its counting check walks L sums, the
window search at |N| = 2 * 10^8, answered at g = 2 and refused at g = |N|,
the report and the decision of {0, 1} at N = -2 * 10^2199, whose attractor
bounds over N^2 - 1 pass the interpreter's digit limit and exit 2,
the dense window search at |N| = 10^5, refused by its clique walk's work
budget, the cycle search on a non-spectral pair with |S| = |N|, whose
cylinders cover a hull of 6.7 * 10^4 integers, and on two pairs with
|S| < |N|, whose cylinders and residue filter leave little of their hulls:
|N| = 100 with a hull of 10^6 integers and |N| = 8, |S| = 4 with one of
10^5, and the same |N| = 8 pair with S's nonzero elements clustered 4
apart in a hull of 10^8 integers, whose cylinders overlap, |N| = 4 with
|S| = 2 over a hull of 6.7 * 10^6 integers, and Laba-Wang's window of
|S| = 32 at |N| = 64, lifted to a hull of 10^6 integers), 500 cycle
searches on small hulls (the compatible window pairs of the benchmark's
cycles workload, each lifted to a seeded hull of 30-100 integers, where
the search's fixed costs weigh most, answered with the number of
spectral verdicts) and the many-prime
orders: a batch and single questions with hundreds of digits at a
primorial, and a pair of digits at the product of the first 20 primes.
The last two cases record the cost of questions past lcm(1..|D|), one
memo of 300 wide digits asked every b <= 1000 that lcm(1..300) does not
cover, and of a batch after a single question on one memo: {0, q}, with
q = 10^14 + 31 prime, asked 2q and then every order at 2q, which must not
factorise 2q again.  Three more record the digit set's memo, which systems
share across scales: a sweep of 10^5 scales with one digit set and then
one question at a new scale, timed together, since what the memo keeps
per scale asked would slow every question of the sweep and not only the
last; the (T1) sweep of the smallest tiling modulus of {0, 1} at the
2,000 scales 2^k, answered with the number of answers its memo keeps,
which asks only the powers of 2 inside the reach 2 of each; and one more
1,000-digit wide set than the memo cache holds, each with its
differences built, answered with the MB the cache retains.  The next
reports the same 1,000 wide digits at |N| = 2 * (10^12 + 39) and then at
-N, answered with the status and the milliseconds of the second report
alone: the reach of |N| is short of |N|, and the second report must not
walk the differences again.  The next builds the tiling construction's S
for a mixed-radix tile of 432 digits at N = 2^8 * 3^6 and then decides it,
answered with the verdict, |S| and L: the decision's compatibility
precondition must not walk again the 93,096 pairs of S that the
construction certified.  The last constructs and decides 500 seeded
mixed-radix tiles of 2-9 digits at |N| from 24 to 8,640, the construct
workload's sizes, answered with the number of spectral verdicts: most of
their hulls lie inside (-1, 1), where the decision runs no cycle search.
Every case starts with no memo, so that its time does not depend on the
cases run before it.

Example:
    PYTHONPATH=src python scripts/order_stress.py compat-primorial-20 single-300-at-19
"""

import contextlib
import hashlib
import io
import math
import random
import sys
import time

from cantorspec import (
    ScaleDigitSystem,
    SpectrumCandidate,
    construct_spectrum_set,
    cyclotomic,
    decide_spectrum,
    find_modulus_l,
    is_compatible,
    is_complementing,
    order_vanishes,
    pair_power,
    report_measure_spectrality,
)
from cantorspec.cli import main as cli_main
from cantorspec.cyclotomic import OrderTest

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]
PRIMORIAL_8, PRIMORIAL_12, PRIMORIAL_20 = (math.prod(PRIMES[:k]) for k in (8, 12, 20))
PAST_LCM_300 = [b for b in range(2, 1001) if math.lcm(*range(1, 301)) % b]
SWEPT = (0, 1, 3, 7)  # the digit set swept over 10^5 scales
WINDOW_PAIRS = (  # the compatible window pairs of the benchmark's cycles workload
    (4, (0, 1), ((-2, 0), (0, 2))),
    (-4, (0, 1), ((-2, 0), (0, 2))),
    (6, (0, 1, 2), ((-4, -2, 0), (-4, 0, 4), (-2, 0, 2), (0, 2, 4))),
    (8, (0, 1, 4, 5), ((-5, -1, 0, 4), (-4, -3, 0, 1), (-4, 0, 1, 5), (-3, 0, 1, 4), (0, 1, 4, 5))),
    (9, (0, 1, 2), ((-6, -3, 0), (-6, 0, 6), (-3, 0, 3), (0, 3, 6))),
)


def wide_digits(count: int, seed: int) -> list[int]:
    """0 and count - 1 seeded digits below 4 * 10^12, so that the span
    reaches every divisor of the 12-prime primorial (phi of it is about
    1.1 * 10^12)."""
    return [0, *random.Random(seed).sample(range(1, 4 * 10**12), count - 1)]


def laba_wang_lift(size: int, scale: int, reach: int, seed: int) -> str:
    """Laba-Wang's window (|N|/|S|) * {0, ..., |S| - 1}, compatible with
    D = {0, ..., |S| - 1}, with each nonzero element moved by a seeded
    multiple of |N| up to `reach`, over a hull of about 2 * reach integers."""
    rng, m = random.Random(seed), abs(scale)
    return ",".join(["0", *(str(s + m * rng.randint(-reach, reach)) for s in range(m // size, m, m // size))])


def small_hulls(count: int) -> str:
    """`count` decisions on WINDOW_PAIRS, each nonzero element moved away
    from 0 by a multiple of |N| (its residue kept, so the pair stays
    compatible) until the hull holds a seeded 30-100 integers."""
    rng, spectral = random.Random(45), 0
    for i in range(count):
        scale, digits, windows = WINDOW_PAIRS[i % len(WINDOW_PAIRS)]
        window, m = rng.choice(windows), abs(scale)
        share = rng.randint(30, 100) * (m - 1) // (1 if 0 in (window[0], window[-1]) else 2)
        elements = [s + (1 if s > 0 else -1) * m * max(0, (share - abs(s)) // m) if s else 0 for s in window]
        spectral += decide_spectrum(ScaleDigitSystem(scale, digits), SpectrumCandidate(elements)).spectral
    return f"{spectral} spectral"


def cli(*argv: str):
    """Run `python -m cantorspec` in this process; (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(list(argv))
    return f"{code}:{hashlib.sha1(out.getvalue().encode()).hexdigest()[:12]}"


def single_point_power(scale: int, k: int) -> str:
    """The power-k pair of the point masses D = S = {0} at N, which forms no
    power of N: the sizes of D_k and S_k."""
    digits_k, elements_k = pair_power(ScaleDigitSystem(scale, (0,)), SpectrumCandidate((0,)), k)
    return f"{len(digits_k)} and {len(elements_k)} points"


def orders(found) -> str:
    return f"{len(found)} orders"


def batch_after_single(q: int) -> str:
    """One memo of {0, q} asked the order 2q, then every order at 2q."""
    test = OrderTest((0, q))
    test(2 * q)
    return orders(test.all_orders(2 * q))


def question_after_sweep() -> bool:
    """The vanishing orders of SWEPT at every scale 3 <= |N| < 10^5 + 3, then
    one order past Mann's lcm for SWEPT, the most the sweep can leave g:
    10^5 + 3 is prime, so it costs one pass over the 6 differences."""
    for n in range(3, 10**5 + 3):
        ScaleDigitSystem(n, SWEPT).vanishing_orders
    return ScaleDigitSystem(2 * (10**5 + 3), SWEPT).is_vanishing_order(10**5 + 3)


def t1_sweep() -> str:
    """The smallest tiling modulus of (0, 1) at every scale 2^k, 1 <= k <= 2000,
    answered with the number of answers the memo of (0, 1) keeps."""
    for k in range(1, 2001):
        find_modulus_l(ScaleDigitSystem(2**k, (0, 1)))
    return f"memo keeps {len(cyclotomic._order_memo((0, 1)).known)}"


def memo_bytes(memo: OrderTest) -> int:
    """The bytes of a memo and of its fields, with the items of its tuples,
    lists and dicts."""
    total = sys.getsizeof(memo)
    for name in OrderTest.__slots__:
        value = getattr(memo, name)
        items = [*value, *value.values()] if isinstance(value, dict) else value
        total += sys.getsizeof(value)
        if isinstance(items, (list, tuple)):
            total += sum(map(sys.getsizeof, items))
    return total


def wide_memos_retained() -> str:
    """The memos the cache keeps, and their MB, after one more wide 1,000-digit
    set than it holds, each asked the prime order 1009, past lcm(1..1000),
    so that it builds its differences."""
    keys = [tuple(sorted(wide_digits(1000, seed))) for seed in range(cyclotomic._order_memo.cache_info().maxsize + 1)]
    for key in keys:
        cyclotomic._order_memo(key)(1009)
    kept = [cyclotomic._order_memo(key) for key in keys[1:]]  # the first is the one evicted
    return f"{len(kept)} memos {sum(map(memo_bytes, kept)) / 1e6:.0f} MB"


def mixed_radix(primes, gaps) -> tuple[int, ...]:
    """The tile of every sum a_i * c_i, 0 <= a_i < p_i, over the steps
    c_1 = 1 and c_{i+1} = c_i * p_i * g_i."""
    digits, step = [0], 1
    for i, p in enumerate(primes):
        if i:
            step *= primes[i - 1] * gaps[i - 1]
        digits = [d + a * step for d in digits for a in range(p)]
    return tuple(sorted(digits))


def construct_and_decide(scale: int, digits):
    """The tiling construction of (N, D), and then the verdict on its S."""
    system = ScaleDigitSystem(scale, digits)
    construction = construct_spectrum_set(system)
    return construction, decide_spectrum(system, SpectrumCandidate(construction.result_s))


def construct_decide(scale: int, digits) -> str:
    construction, verdict = construct_and_decide(scale, digits)
    return f"spectral {verdict.spectral} |S| = {len(construction.result_s)} L = {construction.modulus_l}"


def construct_decides(count: int) -> str:
    """`count` seeded tiles of `mixed_radix` of 2-9 digits, each at a seeded
    divisor 24 <= |N| <= 8640 of 8640 that its period L divides, constructed
    and decided, answered with the number of spectral verdicts."""
    rng, spectral = random.Random(47), 0
    moduli = [m for m in range(24, 8641) if 8640 % m == 0]
    radices = ((2,), (3,), (2, 2), (2, 3), (3, 2), (2, 2, 2), (3, 3))
    for _ in range(count):
        m = rng.choice(moduli)
        fitting = [primes for primes in radices if m % math.prod(primes) == 0]
        while True:  # gaps of 1 give L = |D|, which divides |N|
            primes = rng.choice(fitting)
            gaps = [rng.choice((1, p)) for p in primes[1:]]
            steps = [math.prod(p * g for p, g in zip(primes[:i], gaps)) for i in range(len(primes))]
            # L is the lcm of p * (the power of p in its step) over the tile's primes
            if m % math.lcm(*(p * math.gcd(c, p ** (2 * len(primes))) for p, c in zip(primes, steps))) == 0:
                break
        spectral += construct_and_decide(m * rng.choice((1, -1)), mixed_radix(primes, gaps))[1].spectral
    return f"{spectral} spectral"


def report_twice() -> str:
    """The report of 1,000 wide digits at N = 2 * (10^12 + 39), then at -N,
    answered with the second report's status and milliseconds."""
    digits = wide_digits(1000, 37)
    report_measure_spectrality(ScaleDigitSystem(2 * (10**12 + 39), digits))
    start = time.perf_counter()
    second = report_measure_spectrality(ScaleDigitSystem(-2 * (10**12 + 39), digits))
    return f"{second.status} second in {1e3 * (time.perf_counter() - start):.1f} ms"


CASES = {
    "compat-prime-1e14": lambda: cli(
        "compat", "check", "--n", "100000000000031", "--digits", "0,10000000", "--s", "0,1"
    ),
    "compat-prime-1e16": lambda: cli(
        "compat", "check", "--n", "10000000000000061", "--digits", "0,100000000", "--s", "0,1"
    ),
    "compat-shared-prime-1e14": lambda: cli(
        "compat", "check", "--n", "200000000000062", "--digits", "0,100000000000031", "--s", "0,1"
    ),
    "compat-shared-prime-4q": lambda: cli(
        "compat", "check", "--n", "4000000000156",
        "--digits", "0,1000000000039,2000000000078,3000000000117", "--s", "0,1,2,3",
    ),
    "construct-shared-prime-1e14": lambda: cli(
        "tiling", "construct", "--n", "200000000000062", "--digits", "0,100000000000031"
    ),
    "power-shared-prime-1e14": lambda: cli(
        "compat", "power", "--n", "200000000000062", "--digits", "0,100000000000031",
        "--s", "0,100000000000031", "--k", "1",
    ),
    "power-single-point-3-1.6e7": lambda: single_point_power(3, 16 * 10**6),
    "power-2-at-1e400-k8": lambda: cli(
        "compat", "power", "--n", str(10**400), "--digits", "0,1", "--s", f"0,{5 * 10**399}", "--k", "8"
    ),
    "lambda-2-at-1e239-depth-13": lambda: cli("measure", "lambda", "--n", str(10**239), "--s", "0,1", "--depth", "13"),
    "report-2e8": lambda: cli("spectrum", "report", "--n", "200000000", "--digits", "0,1"),
    "report-negative-2e2199": lambda: cli("spectrum", "report", f"--n={-2 * 10**2199}", "--digits", "0,1"),
    "decide-negative-2e2199": lambda: cli(
        "spectrum", "decide", f"--n={-2 * 10**2199}", "--digits", "0,1", "--s", f"0,{10**2199}"
    ),
    "search-dense-2e8": lambda: cli(
        "compat", "search", "--n", "200000000", "--digits", "0,1,100000000,100000001"
    ),
    "search-dense-1e5": lambda: cli("compat", "search", "--n", "100000", "--digits", "0,1,50000,50001"),
    "decide-tile-6e4": lambda: cli(
        "spectrum", "decide", "--n", "4", "--digits", "0,1,2,3", "--s", "0,120001,-79998,20003"
    ),
    "decide-wide-100": lambda: cli("spectrum", "decide", "--n", "100", "--digits", "0,1", "--s", "0,100000050"),
    "decide-lifted-8-1e5": lambda: cli(
        "spectrum", "decide", "--n", "8", "--digits", "0,1,4,5", "--s", "0,1,4,700005"
    ),
    "decide-clustered-8-1e8": lambda: cli(
        "spectrum", "decide", "--n", "8", "--digits", "0,1,4,5", "--s", "0,700000001,700000004,700000005"
    ),
    "decide-hull-4-2e7": lambda: cli("spectrum", "decide", "--n", "4", "--digits", "0,1", "--s", "0,20000002"),
    "decide-laba-wang-64-1e6": lambda: cli(
        "spectrum", "decide", "--n", "64", "--digits", ",".join(map(str, range(32))),
        "--s", laba_wang_lift(32, 64, 5 * 10**5, 64),
    ),
    "decide-small-hulls": lambda: small_hulls(500),
    "compat-primorial-20": lambda: cli(
        "compat", "check", "--n", str(PRIMORIAL_20), "--digits", f"0,{PRIMORIAL_20 // 2}", "--s", "0,1"
    ),
    "order-test-2000-at-4000": lambda: orders(OrderTest(range(2000)).all_orders(4000)),
    "order-test-2000-at-2x10007": lambda: orders(OrderTest(range(2000)).all_orders(2 * 10007)),
    "compatible-2000": lambda: is_compatible(
        ScaleDigitSystem(4000, tuple(range(2000))), SpectrumCandidate(tuple(range(0, 4000, 2)))
    )
    is not None,
    "complementing-2000": lambda: is_complementing(range(2000), 8000) is not None,
    "tiling-13-192": lambda: cli("tiling", "check", "--digits", "0,13", "--modulus", "192"),
    "tiling-13-384": lambda: cli("tiling", "check", "--digits", "0,13", "--modulus", "384"),
    "check-13-at-768": lambda: cli("tiling", "check", "--digits", "0,13", "--modulus", "768"),
    "construct-complement-2^22": lambda: cli("tiling", "construct", "--n", "4194304", "--digits", "0,2097152"),
    "complement-1000-at-1e7": lambda: cli(
        "tiling", "check", "--digits", ",".join(map(str, range(1000))), "--modulus", "10000000"
    ),
    "batch-1000-at-37": lambda: orders(OrderTest(wide_digits(1000, 37)).all_orders(PRIMORIAL_12)),
    "single-1000-at-37": lambda: order_vanishes(wide_digits(1000, 37), PRIMORIAL_12),
    "single-300-at-19": lambda: order_vanishes(wide_digits(300, 19), PRIMORIAL_8),
    "any-order-300-to-1000": lambda: orders(list(filter(OrderTest(wide_digits(300, 19)), PAST_LCM_300))),
    "batch-after-single-1e14": lambda: batch_after_single(10**14 + 31),
    "question-after-1e5-scales": question_after_sweep,
    "t1-sweep-2^2000": t1_sweep,
    "wide-memos-past-the-cache": wide_memos_retained,
    "report-twice-1000-wide": report_twice,
    "construct-decide-wide": lambda: construct_decide(
        2**8 * 3**6, mixed_radix((2, 3, 2, 3, 2, 3, 2), (1, 2, 1, 1, 3, 1))
    ),
    "construct-decide-500": lambda: construct_decides(500),
}


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in CASES]
    if unknown:
        print(f"unknown case(s): {', '.join(unknown)}; known: {', '.join(CASES)}", file=sys.stderr)
        return 2
    print("case,seconds,answer")
    for name in names or CASES:
        cyclotomic._order_memo.cache_clear()
        start = time.perf_counter()
        answer = CASES[name]()
        print(f"{name},{time.perf_counter() - start:.4f},{answer}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
