"""Seeded inputs, timed operations and independent output checks.

Each workload is split into rounds.  A round is one seeded batch of items
that a fresh worker process runs one at a time (closed loop, one caller), so
every round starts with cold program caches, exactly like a new CLI call or
a new sweep.  The inputs of round r depend only on (workload, seed, r), and
each round draws its items from fixed strata.  Where an item sits inside
its stratum depends on the round: the R rounds of a run visit R evenly
spaced cells of every stratum, in an order seeded per run (see
stratum_positions), so that runs of different seeds carry the same work.

The checks never trust the code under test: certificates are re-checked
with floating-point unitarity, witnesses with plain integer arithmetic, Q
values against Bessel's inequality, and CLI output against the library.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import cantorspec as cs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

UNITARITY_TOL = 1e-9


MAX_STRATA = 64


def round_rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def stratum_positions(workload: str, seed: int, round_index: int, rounds: int) -> list[float]:
    """Positions in [0, 1) inside each of MAX_STRATA strata for round
    `round_index` of a run of `rounds` rounds.  The rounds visit the cell
    centres of the strata once each, in an order seeded per run; cell c of
    stratum k is shifted by k cells, so that one round does not sit at the
    same end of every stratum."""
    order = random.Random(f"{workload}:{seed}:{rounds}:positions").sample(range(rounds), rounds)
    cell = order[round_index % rounds]
    return [((cell + k) % rounds + 0.5) / rounds for k in range(MAX_STRATA)]


# --------------------------------------------------------------------------
# Shared independent checks


def unitarity_error(scale: int, digits, elements) -> float:
    """max |(M M*)_{ij} - delta_ij| for M = [e(d*s/N)]/sqrt(q), in floats."""
    q = len(digits)
    rows = [[cmath.exp(2j * math.pi * d * s / scale) / math.sqrt(q) for s in elements] for d in digits]
    worst = 0.0
    for i in range(q):
        for k in range(q):
            acc = sum(rows[i][j] * rows[k][j].conjugate() for j in range(len(elements)))
            worst = max(worst, abs(acc - (1.0 if i == k else 0.0)))
    return worst


def certificate_ok(cert, scale: int, digits, elements) -> bool:
    """The certificate names this pair, covers every difference with the right
    cyclotomic order, and the pair passes the float unitarity check."""
    if cert is None or cert.system.scale != scale or tuple(cert.system.digits) != tuple(digits):
        return False
    if tuple(cert.candidate.elements) != tuple(elements) or len(elements) != len(digits):
        return False
    m = abs(scale)
    expected = [
        (a, b, m // math.gcd(b - a, m))
        for i, a in enumerate(elements)
        for b in elements[i + 1 :]
    ]
    if [tuple(e) for e in cert.zero_differences] != expected:
        return False
    return unitarity_error(scale, digits, elements) < UNITARITY_TOL


def cycle_ok(scale: int, elements, witness) -> bool:
    """eta_j + s_j = N * eta_{j+1} cyclically, eta_j nonzero, s_j in S."""
    if not witness:
        return False
    allowed = set(elements)
    for j, (eta, s) in enumerate(witness):
        if eta == 0 or s not in allowed:
            return False
        if eta + s != scale * witness[(j + 1) % len(witness)][0]:
            return False
    return True


def attractor_hull(scale: int, elements) -> tuple[Fraction, Fraction]:
    """The exact convex hull of the attractor of x -> (x+s)/N, s in S."""
    a, b = min(elements), max(elements)
    if scale > 0:
        return Fraction(a, scale - 1), Fraction(b, scale - 1)
    den = scale * scale - 1
    return Fraction(a + scale * b, den), Fraction(b + scale * a, den)


def searched_ok(verdict, scale: int, elements) -> bool:
    """The verdict's enclosure is the exact attractor hull of x -> (x+s)/N."""
    lo, hi = attractor_hull(scale, elements)
    return (verdict.bounds.lo, verdict.bounds.hi) == (lo, hi) and tuple(verdict.searched) == (
        math.ceil(lo),
        math.floor(hi),
    )


def has_nonzero_cycle(scale: int, elements) -> bool:
    """Whether some cycle eta -> (eta + s)/N of nonzero integers exists.

    Every such cycle lies in the attractor hull, so this peels off, over the
    nonzero hull integers, every node that no edge enters until none is
    left (no cycle) or only nodes on or leading into cycles remain."""
    lo, hi = attractor_hull(scale, elements)
    first, last = math.ceil(lo), math.floor(hi)
    nodes = [eta for eta in range(first, last + 1) if eta]
    succ = {}
    indegree = dict.fromkeys(nodes, 0)
    for eta in nodes:
        succ[eta] = [(eta + s) // scale for s in elements if (eta + s) % scale == 0]
        succ[eta] = [nxt for nxt in succ[eta] if nxt in indegree]
        for nxt in succ[eta]:
            indegree[nxt] += 1
    stack = [eta for eta in nodes if indegree[eta] == 0]
    removed = 0
    while stack:
        eta = stack.pop()
        removed += 1
        for nxt in succ[eta]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                stack.append(nxt)
    return removed < len(nodes)


# --------------------------------------------------------------------------
# census: the measure-level report over a seeded population of systems

CENSUS_MAX_N = 400
CENSUS_STRATA = 16


def census_round(rng: random.Random, positions) -> list:
    """Two systems per |N| stratum of [3, 400]: one Łaba–Wang type (q | |N|,
    D a complete residue set mod q) and one random digit set of size 2-5.
    The clique search cost grows with |D| and |N|, so q and the random size
    cycle over the strata instead of being drawn, and |N| sits at the
    stratum's position.  About a quarter of the systems get a negative
    scale: a Łaba–Wang system in the first quarter of its stratum, a random
    one in the third, so every seed has the same signs at the same |N|."""
    items = []
    width = (CENSUS_MAX_N - 2) / CENSUS_STRATA
    for k in range(CENSUS_STRATA):
        lo, hi = 3 + math.ceil(k * width), 2 + math.floor((k + 1) * width)
        quarter = int(positions[k] * 4)
        q = 2 + k % 5
        multiples = range(max(1, -(-lo // q)), hi // q + 1)
        m = q * multiples[int(positions[k] * len(multiples))]
        items.append(((-m if quarter == 0 else m), tuple(sorted({r + q * rng.randint(-3, 3) for r in range(q)}))))
        size = 2 + k % 4
        items.append(((-m if quarter == 2 else m), tuple(sorted([0] + rng.sample(range(1, 2 * m), size - 1)))))
    rng.shuffle(items)
    return items


def census_run(item):
    return cs.report_measure_spectrality(cs.ScaleDigitSystem(*item))


def laba_wang(scale: int, digits) -> bool:
    """q = |D| divides |N| and D is a complete residue set mod q.  Then the
    window candidate (|N|/q)*{0, ..., q-1} is compatible and its hull holds
    only 0, so the measure is spectral and the report must say so."""
    q = len(digits)
    return scale % q == 0 and len({d % q for d in digits}) == q


def census_check(item, report) -> bool:
    scale, digits = item
    canon = report.canonical
    if [canon.offset + canon.scale_factor * d for d in canon.reduced_digits] != sorted(digits):
        return False
    if laba_wang(scale, digits) and report.status != cs.STATUS_SPECTRAL:
        return False
    if report.status == cs.STATUS_SPECTRAL:
        elements = report.candidate.elements
        return (
            0 in elements
            and report.verdict.spectral
            and searched_ok(report.verdict, scale, elements)
            and certificate_ok(report.certificate, scale, canon.reduced_digits, elements)
        )
    return report.status == cs.STATUS_UNKNOWN and report.candidate is None


# --------------------------------------------------------------------------
# construct: tiling construction plus the cycle verdict of the built S

# |N| values of one round, swept in increasing order.  They share many
# divisors, so later items reuse cyclotomic polynomials that earlier items
# built; the fixed order makes each item's share of that work the same in
# every round, while the digit set and the sign of N are seeded.  Item cost
# grows with |N| (4320 and 8640, which carry the prime 5, cost the most), so
# with 25 items a round the median falls in the middle of the |N| = 864
# items, whose costs overlap those of 648 and 1152, and the 90th percentile
# in the middle of the 7776 items, below the 4320 and 8640 ones.
CONSTRUCT_MODULI = (
    24, 48, 72, 96, 108, 144, 162, 216, 288, 432, 576, 648, 864,
    1152, 1296, 1728, 2304, 2592, 3456, 4320, 4608, 5184, 6912, 7776, 8640,
)
CONSTRUCT_SIZES = {2: (2,), 3: (3,), 4: (2, 2), 6: (2, 3), 8: (2, 2, 2), 9: (3, 3)}
# Known cliff: above CYCLOTOMIC_CACHE_LIMIT every residue rebuilds Phi_N.
CONSTRUCT_CLIFF = ((10240, (0, 1)), (12000, (0, 1, 2)))


def mixed_radix(rng: random.Random, primes) -> tuple[tuple[int, ...], int]:
    """Digits sum_i a_i c_i (0 <= a_i < p_i) with c_1 = 1 and
    c_i = c_{i-1} p_{i-1} g_i, g_i in {1, p_i}; returns (digits, period).

    Such a set tiles Z_L for L the product of the prime powers
    p_i^(v_p(c_i)+1), which are exactly the prime powers s with
    Phi_s | D(x) (Coven-Meyerowitz)."""
    order = list(primes)
    rng.shuffle(order)
    digits = [0]
    step = 1
    powers: dict[int, int] = {}
    for i, p in enumerate(order):
        if i:
            step *= order[i - 1] * (p if rng.random() < 0.5 else 1)
        digits = [d + a * step for d in digits for a in range(p)]
        v = 0
        while step % p ** (v + 1) == 0:
            v += 1
        powers[p] = max(powers.get(p, 1), p ** (v + 1))
    return tuple(sorted(digits)), math.prod(powers.values())


def construct_round(rng: random.Random, positions) -> list:
    """One item per modulus; the digit-set size cycles over the sizes that
    divide it as the stratum position moves, the digit set itself is drawn."""
    items = []
    for k, m in enumerate(CONSTRUCT_MODULI):
        sizes = [q for q in CONSTRUCT_SIZES if m % q == 0]
        size = sizes[int(positions[k] * len(sizes))]
        while True:
            digits, period = mixed_radix(rng, CONSTRUCT_SIZES[size])
            if m % period == 0:
                break
        items.append((m * rng.choice((1, 1, -1)), digits))
    return items


def construct_run(item):
    system = cs.ScaleDigitSystem(*item)
    construction = cs.construct_spectrum_set(system)
    verdict = cs.decide_spectrum(system, cs.SpectrumCandidate(construction.result_s))
    return construction, verdict


def construct_check(item, output) -> bool:
    scale, digits = item
    construction, verdict = output
    elements = construction.result_s
    if not certificate_ok(construction.certificate, scale, digits, elements):
        return False
    if not searched_ok(verdict, scale, elements):
        return False
    return verdict.spectral or cycle_ok(scale, elements, verdict.witness)


# --------------------------------------------------------------------------
# cycles: the integer-cycle search on lifted candidates

# Compatible window pairs (N, D, S).  Lifting the nonzero elements of S by
# multiples of |N| keeps their residues, hence compatibility.
CYCLES_TABLE = (
    (4, (0, 1), ((-2, 0), (0, 2))),
    (-4, (0, 1), ((-2, 0), (0, 2))),
    (6, (0, 1, 2), ((-4, -2, 0), (-4, 0, 4), (-2, 0, 2), (0, 2, 4))),
    (8, (0, 1, 4, 5), ((-5, -1, 0, 4), (-4, -3, 0, 1), (-4, 0, 1, 5), (-3, 0, 1, 4), (0, 1, 4, 5))),
    (9, (0, 1, 2), ((-6, -3, 0), (-6, 0, 6), (-3, 0, 3), (0, 3, 6))),
)
CYCLES_STRATA = 40  # log10 strata of the hull size over [1.5, 5]
CYCLES_RECHECK = 3  # spectral verdicts re-decided per round, two ways
CYCLES_RECHECK_MAX_HULL = 20_000


def lift(elements, m: int, hull: float) -> tuple[int, ...]:
    """Move each nonzero element by a multiple of m so that the attractor
    hull, (max(S) - min(S))/(m - 1) wide, holds about `hull` integers.
    Elements keep their sign and their residue mod m."""
    low, high = min(elements), max(elements)
    spread = hull * (m - 1)
    # One-sided sets put the whole spread on one side of 0; two-sided split it.
    share = spread if low == 0 or high == 0 else spread / 2
    lifted = []
    for s in elements:
        k = max(0, round((share - abs(s)) / m))
        lifted.append(s + k * m if s > 0 else s - k * m if s < 0 else 0)
    return tuple(sorted(lifted))


def cycles_round(rng: random.Random, positions) -> list:
    """One item per hull-size stratum, so the work of a round is the same for
    every seed; lifted magnitudes then range over about 1e2-1e6.  The pair
    and the order are seeded."""
    items = []
    step = 3.5 / CYCLES_STRATA
    for k in range(CYCLES_STRATA):
        scale, digits, pairs = CYCLES_TABLE[k % len(CYCLES_TABLE)]
        hull = 10 ** (1.5 + (k + positions[k]) * step)
        items.append((scale, digits, lift(rng.choice(pairs), abs(scale), hull)))
    rng.shuffle(items)
    return items


def cycles_run(item):
    scale, digits, elements = item
    system = cs.ScaleDigitSystem(scale, digits)
    candidate = cs.SpectrumCandidate(elements)
    verdict = cs.decide_spectrum(system, candidate)
    verified = None if verdict.witness is None else cs.verify_witness(system, candidate, verdict.witness)
    return verdict, verified


def cycles_check(item, output) -> bool:
    scale, digits, elements = item
    verdict, verified = output
    if not searched_ok(verdict, scale, elements):
        return False
    if verdict.spectral:
        return verdict.witness is None
    system = cs.ScaleDigitSystem(scale, digits)
    return (
        verified is True
        and cycle_ok(scale, elements, verdict.witness)
        and cs.verify_witness(system, cs.SpectrumCandidate(elements), verdict.witness)
    )


def cycles_recheck(rng: random.Random, items, outputs) -> list[int]:
    """Indices of a seeded subset of spectral verdicts that flip when
    re-decided with the searched range doubled, or that an independent walk
    of the hull (has_nonzero_cycle) contradicts."""
    spectral = [
        i
        for i, out in enumerate(outputs)
        if out is not None and out[0].spectral and out[0].searched[1] - out[0].searched[0] <= CYCLES_RECHECK_MAX_HULL
    ]
    flipped = []
    for i in rng.sample(spectral, min(CYCLES_RECHECK, len(spectral))):
        scale, digits, elements = items[i]
        again = cs.decide_spectrum(cs.ScaleDigitSystem(scale, digits), cs.SpectrumCandidate(elements), range_factor=2)
        if not again.spectral or has_nonzero_cycle(scale, elements):
            flipped.append(i)
    return flipped


# --------------------------------------------------------------------------
# qgrid: the completeness sum and the recursion defect

QGRID_PAIRS = (
    (4, (0, 1), (0, 2), 8),
    (-4, (0, 1), (0, 2), 8),
    (6, (0, 1, 2), (0, 2, 4), 7),
    (9, (0, 1, 2), (0, 3, 6), 7),
    (8, (0, 1, 2, 3), (0, 2, 4, 6), 6),
)
# Grid points per pair and round: a quarter of the items are cheap (|N| = 4
# and the two transfer points), half cost 40-80 ms (|N| in {6, 9}) and a
# quarter about 100 ms (N = 8), so the median falls mid-way into the middle
# group and the 90th percentile inside the top group, away from the steps
# between groups.
QGRID_POINTS = (2, 2, 6, 6, 6)
QGRID_TRANSFER = ((4, (0, 1), (0, 2), 6), (6, (0, 1, 2), (0, 2, 4), 4))
TRANSFER_TOL = 1e-9
MU_HAT_PROBES = 120
MU_HAT_SLACK = 1e-14


def qgrid_round(rng: random.Random, positions) -> list:
    # xi is stratified over [0, 1) per pair: the cost of a point depends on
    # xi (mu_hat stops early near zeros of the transform).
    where = iter(positions)
    items = [
        ("q", pair, (i + next(where)) / n) for pair, n in zip(QGRID_PAIRS, QGRID_POINTS) for i in range(n)
    ]
    items += [("transfer", pair, rng.random()) for pair in QGRID_TRANSFER]
    rng.shuffle(items)
    return items


def qgrid_run(item):
    kind, (scale, digits, elements, depth), xi = item
    system = cs.ScaleDigitSystem(scale, digits)
    candidate = cs.SpectrumCandidate(elements)
    if kind == "q":
        return cs.q_eval_with_bound(system, candidate, xi, cs.TruncationPolicy(depth=depth))
    return cs.transfer_residual(system, candidate, xi, depth)


def q_within_bessel(value: float, bound: float, terms: int) -> bool:
    """0 <= Q <= 1 + bound + the rounding of a sum of `terms` squares."""
    rounding = 4 * terms * sys.float_info.epsilon
    return -rounding <= value <= 1.0 + bound + rounding


def qgrid_check(item, output) -> bool:
    kind, (scale, digits, elements, depth), xi = item
    if kind == "q":
        value, bound = output
        return q_within_bessel(value, bound, len(elements) ** depth)
    return 0.0 <= output <= TRANSFER_TOL


def mu_hat_oracle(scale: int, digits, xi: float, factors: int) -> complex:
    """prod_{j=1..factors} m_D(xi/N^j) with every phase reduced mod 1 exactly."""
    x = Fraction(xi)
    value = complex(1.0)
    den = 1
    for _ in range(factors):
        den *= scale
        acc = 0j
        for d in digits:
            phase = (d * x / den) % 1
            acc += cmath.exp(-2j * math.pi * float(phase))
        value *= acc / len(digits)
    return value


def mu_hat_probes(rng: random.Random) -> tuple[int, int]:
    """(violations, probes): mu_hat values farther from the exact-phase oracle
    than their claimed error bound, at |xi| log-uniform in [1e3, 2^52]."""
    violations = 0
    for i in range(MU_HAT_PROBES):
        scale, digits, _, _ = QGRID_PAIRS[i % len(QGRID_PAIRS)]
        system = cs.ScaleDigitSystem(scale, digits)
        xi = rng.choice((1, -1)) * 10 ** rng.uniform(3, 52 * math.log10(2))
        result = cs.mu_hat(system, xi)
        # 40 extra factors make the oracle's own truncation negligible.
        exact = mu_hat_oracle(scale, digits, xi, result.factors + 40)
        if abs(result.value - exact) > result.error_bound + MU_HAT_SLACK:
            violations += 1
    return violations, MU_HAT_PROBES


# --------------------------------------------------------------------------
# cli-tour: the README tour, one subprocess per command


def cli_round(rng: random.Random, positions) -> list:
    """The README tour with seeded arguments.  The witness handed to `verify`
    is the fixed point 4j+2 -> (4j+2 + 12j+6)/4 of S = {0, 12j+6}."""
    k = 4 * rng.randint(0, 500) + 2
    j = rng.randint(0, 200)
    n_report = rng.choice((1, -1)) * rng.choice((6, 8, 9, 10, 12, 15, 16, 18, 20, 24))
    q_report = rng.choice([q for q in (2, 3, 4, 5) if n_report % q == 0])
    n_search = rng.choice((1, -1)) * rng.randint(6, 24)
    digits_search = sorted([0] + rng.sample(range(1, 12), rng.randint(1, 3)))
    digits_tiling, period = mixed_radix(rng, CONSTRUCT_SIZES[rng.choice((2, 3, 4, 6))])
    n_tiling = period * rng.randint(1, 6)

    def ints(values):
        return ",".join(str(v) for v in values)

    return [
        ("spectrum", "decide", "--n", "4", "--digits", "0,1", "--s", f"0,{k}"),
        ("spectrum", "verify", "--n", "4", "--digits", "0,1", "--s", f"0,{12 * j + 6}",
         "--witness", json.dumps([[4 * j + 2, 12 * j + 6]])),
        ("spectrum", "report", "--n", str(n_report), "--digits", ints(range(q_report))),
        ("compat", "search", "--n", str(n_search), "--digits", ints(digits_search)),
        ("tiling", "construct", "--n", str(n_tiling), "--digits", ints(digits_tiling)),
        ("measure", "qgrid", "--n", "4", "--digits", "0,1", "--s", "0,2",
         "--grid", "12", "--format", "json"),
    ]


def _cli(cmd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT)
    return proc.returncode, proc.stdout, proc.stderr


def cli_run(item):
    return _cli([sys.executable, "-m", "cantorspec", *item])


def cli_run_traced(item):
    """The same command through cli_traced.py, which reports its spans on stderr."""
    return _cli([sys.executable, str(Path(__file__).with_name("cli_traced.py")), *item])


def _library_payload(argv) -> dict:
    """What the CLI must print for argv, rebuilt from library results."""
    opts = dict(zip(argv[2::2], argv[3::2]))
    group, action = argv[0], argv[1]

    def ints(text):
        return tuple(int(v) for v in text.split(","))

    if "--n" in opts and "--digits" in opts:
        system = cs.ScaleDigitSystem(int(opts["--n"]), ints(opts["--digits"]))

    def verdict_fields(v):
        return {
            "verdict": "spectral" if v.spectral else "not-spectral",
            "witness": None if v.witness is None else [list(p) for p in v.witness],
            "searched_integers": list(v.searched),
            "attractor_bounds": [str(v.bounds.lo), str(v.bounds.hi)],
        }

    if (group, action) == ("spectrum", "decide"):
        return verdict_fields(cs.decide_spectrum(system, cs.SpectrumCandidate(ints(opts["--s"]))))
    if (group, action) == ("spectrum", "verify"):
        witness = [tuple(p) for p in json.loads(opts["--witness"])]
        return {"valid": cs.verify_witness(system, cs.SpectrumCandidate(ints(opts["--s"])), witness)}
    if (group, action) == ("spectrum", "report"):
        report = cs.report_measure_spectrality(system)
        cert = report.certificate
        return {
            "status": report.status,
            "candidate": None if report.candidate is None else list(report.candidate.elements),
            "certificate": None if cert is None else {
                "scale": cert.system.scale,
                "digits": list(cert.system.digits),
                "candidate": list(cert.candidate.elements),
                "zero_differences": [list(e) for e in cert.zero_differences],
            },
            "verdict": None if report.verdict is None else verdict_fields(report.verdict),
        }
    if (group, action) == ("compat", "search"):
        return {"candidates": [list(c.elements) for c in cs.search_candidate_s(system)]}
    if (group, action) == ("tiling", "construct"):
        c = cs.construct_spectrum_set(system)
        return {
            "modulus_l": c.modulus_l,
            "complement": list(c.complement_e0),
            "p_powers": list(c.p_powers),
            "q_powers": list(c.q_powers),
            "fractional_e": [str(f) for f in c.fractional_e],
            "s": list(c.result_s),
        }
    if (group, action) == ("measure", "qgrid"):
        grid = int(opts["--grid"])
        candidate = cs.SpectrumCandidate(ints(opts["--s"]))
        rows = []
        for i in range(grid):
            value, bound = cs.q_eval_with_bound(system, candidate, i / grid, cs.TruncationPolicy())
            rows.append([i / grid, value, bound])
        return {"grid": rows}
    raise ValueError(f"no library equivalent for {argv!r}")


def cli_check(item, output) -> bool:
    code, stdout, _ = output
    if code != 0:
        return False
    try:
        printed = json.loads(stdout)
    except json.JSONDecodeError:
        return False
    if not isinstance(printed, dict):
        return False
    expected = _library_payload(item)
    return all(printed.get(key) == value for key, value in expected.items())


# --------------------------------------------------------------------------
# Registry


class Workload:
    """A workload's seeded rounds, its timed operation and its output check.

    `run_traced` is set for workloads whose items run in a child process:
    the traced run uses it to collect the child's spans instead of wrapping
    functions in the worker."""

    def __init__(self, name, make_round, run, check, limit_s, run_traced=None):
        self.name = name
        self.make_round = make_round
        self.run = run
        self.check = check
        self.limit_s = limit_s  # per-item time limit, far above normal items
        self.run_traced = run_traced
        self.in_children = run_traced is not None  # each item is a child process

    def inputs(self, seed: int, round_index: int, rounds: int = 8) -> list:
        """Round `round_index` of a run of `rounds` rounds."""
        return self.make_round(round_rng(self.name, seed, round_index),
                               stratum_positions(self.name, seed, round_index, rounds))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("census", census_round, census_run, census_check, 5.0),
        Workload("construct", construct_round, construct_run, construct_check, 10.0),
        Workload("cycles", cycles_round, cycles_run, cycles_check, 10.0),
        Workload("qgrid", qgrid_round, qgrid_run, qgrid_check, 5.0),
        Workload("cli-tour", cli_round, cli_run, cli_check, 20.0, run_traced=cli_run_traced),
    )
}
