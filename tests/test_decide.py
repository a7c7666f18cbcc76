import importlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from cantorspec import (
    BudgetExceededError,
    ConsistencyError,
    PreconditionError,
    RationalInterval,
    STATUS_SPECTRAL,
    STATUS_UNIT_INTERVAL,
    STATUS_UNKNOWN,
    ScaleDigitSystem,
    SpectralityReport,
    SpectrumCandidate,
    SpectrumVerdict,
    TruncationPolicy,
    attractor_bounds,
    canonicalize_digits,
    construct_spectrum_set,
    decide_spectrum,
    is_compatible,
    q_eval_with_bound,
    reduce_s,
    report_measure_spectrality,
    search_candidate_s,
    verify_witness,
)
from oracles import small_digit_spectral

compat_module = importlib.import_module("cantorspec.compat")
decide_module = importlib.import_module("cantorspec.decide")
systems_module = importlib.import_module("cantorspec.systems")

SPECTRAL_CASES = [
    (4, (0, 1), (0, 2)),
    (6, (0, 1, 2), (0, 4, 8)),
    (6, (0, 1, 2), (0, 2, 4)),
    (5, (0, 2, -2, 11, -11), (0, 1, -1, 2, -2)),
    (10, (0, 2, -2, 11, -11), (0, 2, 4, 6, 8)),
]


def test_canonicalize_examples():
    form = canonicalize_digits((2, 6))
    assert (form.reduced_digits, form.offset, form.scale_factor) == ((0, 1), 2, 4)
    form = canonicalize_digits((0, 1))
    assert (form.reduced_digits, form.offset, form.scale_factor) == ((0, 1), 0, 1)
    form = canonicalize_digits((0, 2, -2, 11, -11))
    assert form.reduced_digits == (0, 9, 11, 13, 22)
    assert (form.offset, form.scale_factor) == (-11, 1)
    form = canonicalize_digits((3,))
    assert (form.reduced_digits, form.offset, form.scale_factor) == ((0,), 3, 1)


def test_canonicalize_reconstruction_identity():
    for digits in [(2, 6), (0, 1), (0, 2, -2, 11, -11), (-9, -3), (5, 10, 20)]:
        form = canonicalize_digits(digits)
        rebuilt = tuple(form.offset + form.scale_factor * d for d in form.reduced_digits)
        assert rebuilt == tuple(sorted(digits))
        assert 0 in form.reduced_digits
        assert math.gcd(*form.reduced_digits) in (0, 1)


def test_successor_examples():
    assert successor(4, SpectrumCandidate((0, 6)), 2) == (2, 6)
    assert successor(4, SpectrumCandidate((0, 2)), 1) is None
    assert successor(2, SpectrumCandidate((0, 1)), 1) == (1, 1)
    assert successor(-4, SpectrumCandidate((0, 1)), 3) == (-1, 1)


def test_successor_is_single_valued():
    candidate = SpectrumCandidate((0, 2, 4))
    for eta in range(-30, 31):
        if eta == 0:
            continue
        hits = [s for s in candidate.elements if (eta + s) % 6 == 0]
        assert len(hits) <= 1
        step = successor(6, candidate, eta)
        assert (step is not None) == bool(hits)


def test_successor_single_valued_over_searched_ranges():
    for scale, _, elements in SPECTRAL_CASES:
        candidate = SpectrumCandidate(elements)
        modulus = abs(scale)
        bounds = attractor_bounds(scale, elements)
        for eta in range(math.ceil(bounds.lo), math.floor(bounds.hi) + 1):
            if eta == 0:
                continue
            hits = [s for s in elements if (eta + s) % scale == 0]
            assert len(hits) <= 1
            step = successor(scale, candidate, eta)
            assert (step is None) == (not hits)
            if step is not None:
                assert (eta + step[1]) == scale * step[0]


def test_successor_preconditions():
    with pytest.raises(PreconditionError):
        successor(4, SpectrumCandidate((0, 4)), 1)  # repeated residues
    with pytest.raises(PreconditionError):
        successor(4, SpectrumCandidate((0, 2)), 0)  # eta must be nonzero


@pytest.mark.parametrize("scale,digits,candidate", SPECTRAL_CASES)
def test_decide_spectral_cases(scale, digits, candidate):
    verdict = decide_spectrum(ScaleDigitSystem(scale, digits), SpectrumCandidate(candidate))
    assert verdict.spectral
    assert verdict.witness is None


def test_decide_not_spectral_with_witness():
    verdict = decide_spectrum(ScaleDigitSystem(4, (0, 1)), SpectrumCandidate((0, 6)))
    assert not verdict.spectral
    assert verdict.witness == ((2, 6),)
    verdict = decide_spectrum(ScaleDigitSystem(2, (0, 1)), SpectrumCandidate((0, 1)))
    assert not verdict.spectral
    assert verdict.witness == ((1, 1),)


def test_decide_preconditions_name_the_hypothesis():
    with pytest.raises(PreconditionError, match="0 in D"):
        decide_spectrum(ScaleDigitSystem(4, (1, 2)), SpectrumCandidate((0, 2)))
    with pytest.raises(PreconditionError, match="gcd"):
        decide_spectrum(ScaleDigitSystem(4, (0, 2)), SpectrumCandidate((0, 2)))
    with pytest.raises(PreconditionError, match="0 in S"):
        decide_spectrum(ScaleDigitSystem(4, (0, 1)), SpectrumCandidate((2, 6)))
    with pytest.raises(PreconditionError, match="compatible"):
        decide_spectrum(ScaleDigitSystem(4, (0, 1)), SpectrumCandidate((0, 1)))


def test_decide_admits_point_mass():
    verdict = decide_spectrum(ScaleDigitSystem(4, (0,)), SpectrumCandidate((0,)))
    assert verdict.spectral


def test_every_witness_verifies():
    for scale, digits, candidate in [(4, (0, 1), (0, 6)), (2, (0, 1), (0, 1))]:
        system = ScaleDigitSystem(scale, digits)
        cand = SpectrumCandidate(candidate)
        verdict = decide_spectrum(system, cand)
        assert not verdict.spectral
        assert verify_witness(system, cand, verdict.witness)
        for eta, _ in verdict.witness:
            assert verdict.bounds.lo <= eta <= verdict.bounds.hi
            assert eta != 0


def test_verify_witness_examples():
    assert verify_witness(
        ScaleDigitSystem(4, (0, 1)), SpectrumCandidate((0, 6)), [(2, 6)]
    )
    assert verify_witness(
        ScaleDigitSystem(2, (0, 1)), SpectrumCandidate((0, 1)), [(1, 1)]
    )
    assert not verify_witness(
        ScaleDigitSystem(4, (0, 1)), SpectrumCandidate((0, 2)), [(1, 0)]
    )
    assert not verify_witness(ScaleDigitSystem(4, (0, 1)), SpectrumCandidate((0, 2)), [])
    # zero eta and foreign s are both rejected
    assert not verify_witness(
        ScaleDigitSystem(4, (0, 1)), SpectrumCandidate((0, 6)), [(0, 6)]
    )
    assert not verify_witness(
        ScaleDigitSystem(4, (0, 1)), SpectrumCandidate((0, 6)), [(2, 5)]
    )
    # anything but pairs of integers is False, never an error: [(1, 1)] is a
    # cycle here, so a bool or float standing for 1 must not pass as one
    system, candidate = ScaleDigitSystem(2, (0, 1)), SpectrumCandidate((0, 1))
    for witness in ([5], [(1, [2])], [(1, True)], [(True, 1)], [(1, 1.0)], [(1.0, 1)], [(1, 1, 1)], 5):
        assert not verify_witness(system, candidate, witness), witness


def test_two_step_cycle_found_and_verified():
    # 1 -> (1+7)/4 = 2 -> (2+2)/4 = 1: a genuine 2-cycle
    system = ScaleDigitSystem(4, (0, 1, 2, 3))
    candidate = SpectrumCandidate((0, 2, 5, 7))
    verdict = decide_spectrum(system, candidate)
    assert not verdict.spectral
    assert verdict.witness == ((1, 7), (2, 2))
    assert verify_witness(system, candidate, verdict.witness)
    # rotating the cycle still verifies; breaking an eta does not
    assert verify_witness(system, candidate, [(2, 2), (1, 7)])
    assert not verify_witness(system, candidate, [(1, 7), (3, 2)])


def test_doubling_the_range_never_flips_spectral():
    for scale, digits, candidate in SPECTRAL_CASES:
        system = ScaleDigitSystem(scale, digits)
        cand = SpectrumCandidate(candidate)
        assert decide_spectrum(system, cand, range_factor=2).spectral


def test_reduction_preserves_the_verdict():
    for scale, digits, candidate in SPECTRAL_CASES:
        if 0 not in candidate:
            continue
        system = ScaleDigitSystem(scale, digits)
        reduced = reduce_s(scale, SpectrumCandidate(candidate))
        assert decide_spectrum(system, reduced).spectral


def test_not_spectral_corroborated_by_q():
    system = ScaleDigitSystem(4, (0, 1))
    candidate = SpectrumCandidate((0, 6))
    verdict = decide_spectrum(system, candidate)
    eta0 = verdict.witness[0][0]
    policy = TruncationPolicy(depth=8, product_epsilon=1e-12)
    assert q_eval_with_bound(system, candidate, float(eta0), policy)[0] < 1e-6


def test_spectral_corroborated_by_q():
    policy = TruncationPolicy(depth=4, product_epsilon=1e-12)
    for scale, digits, candidate in SPECTRAL_CASES[:3]:
        system = ScaleDigitSystem(scale, digits)
        cand = SpectrumCandidate(candidate)
        for k in range(20):
            assert q_eval_with_bound(system, cand, k / 20, policy)[0] <= 1 + 1e-9


def test_randomized_residue_shifts_stay_sound():
    # residue shifts preserve compatibility but can break spectrality; every
    # negative verdict must come with a verifiable cycle and a vanishing Q,
    # every positive one must survive an enlarged search range
    import random

    from cantorspec import is_compatible, search_candidate_s

    rng = random.Random(2024)
    bases = [
        ScaleDigitSystem(4, (0, 1)),
        ScaleDigitSystem(6, (0, 1, 2)),
        ScaleDigitSystem(8, (0, 1, 2, 3)),
    ]
    policy = TruncationPolicy(depth=6, product_epsilon=1e-12)
    negatives = 0
    for system in bases:
        for window_candidate in search_candidate_s(system):
            for _ in range(6):
                shifted = tuple(
                    s + system.scale * rng.randint(-3, 3) if s != 0 else 0
                    for s in window_candidate.elements
                )
                if len(set(shifted)) != len(shifted):
                    continue
                candidate = SpectrumCandidate(shifted)
                assert is_compatible(system, candidate) is not None
                verdict = decide_spectrum(system, candidate)
                if verdict.spectral:
                    assert decide_spectrum(system, candidate, range_factor=2).spectral
                else:
                    negatives += 1
                    assert verify_witness(system, candidate, verdict.witness)
                    eta0 = verdict.witness[0][0]
                    assert q_eval_with_bound(system, candidate, float(eta0), policy)[0] < 1e-6
    assert negatives > 0  # the scan must actually exercise the negative path


def test_report_spectral_with_certificate():
    report = report_measure_spectrality(ScaleDigitSystem(4, (0, 1)))
    assert report.status == STATUS_SPECTRAL
    assert report.candidate.elements == (-2, 0)  # first candidate in order
    assert report.certificate is not None
    assert report.verdict.spectral
    assert report.canonical.reduced_digits == (0, 1)


def test_report_unit_interval_cases():
    for digits in [(0, 1), (0, -1), (0, 2), (4, 6)]:
        report = report_measure_spectrality(ScaleDigitSystem(2, digits))
        assert report.status == STATUS_UNIT_INTERVAL
    report = report_measure_spectrality(ScaleDigitSystem(-2, (0, 1)))
    assert report.status == STATUS_UNIT_INTERVAL


def test_report_undecided_cases():
    assert report_measure_spectrality(ScaleDigitSystem(3, (0, 2))).status == STATUS_UNKNOWN
    # pigeonhole: three digits cannot be distinct mod 2
    assert report_measure_spectrality(ScaleDigitSystem(2, (0, 1, 2))).status == STATUS_UNKNOWN


def test_report_handles_point_mass():
    report = report_measure_spectrality(ScaleDigitSystem(2, (5,)))
    assert report.status == STATUS_SPECTRAL
    assert report.candidate.elements == (0,)
    report = report_measure_spectrality(ScaleDigitSystem(7, (3,)))
    assert report.status == STATUS_SPECTRAL


def test_report_scaled_digits_keep_certificates():
    # digits 2,6 canonicalize to {0,1} at scale 4 and stay spectral
    report = report_measure_spectrality(ScaleDigitSystem(4, (2, 6)))
    assert report.status == STATUS_SPECTRAL
    assert report.canonical.scale_factor == 4
    assert report.canonical.offset == 2


# Differential checks against a reference that knows nothing of cylinders:
# walk from every nonzero integer of the (dilated) hull, stepping with
# `successor`; the integers whose walk comes back to them are the cycle
# points, and the witness goes round from the smallest in (|eta|, eta) order.


def successor(scale, candidate, eta):
    """The unique step (eta', s) with eta' = (eta + s)/N exact, if any.

    At most one candidate element can qualify because the elements are
    required to be distinct modulo N; without that the map would be
    multivalued, so the condition is checked.
    """
    if eta == 0:
        raise PreconditionError("successor is defined for nonzero integers only")
    m = abs(scale)
    elems = candidate.elements
    if len({s % m for s in elems}) != len(elems):
        raise PreconditionError("successor is single-valued only when S is distinct modulo N")
    for s in elems:
        quot, rem = divmod(eta + s, scale)
        if rem == 0:
            return quot, s
    return None


def reference_decide(system, candidate, range_factor=1):
    bounds = attractor_bounds(system.scale, candidate.elements)
    lo = math.ceil(bounds.lo * range_factor)
    hi = math.floor(bounds.hi * range_factor)
    on_cycle, settled = set(), set()
    for start in range(lo, hi + 1):
        # a walk ends at 0 (also standing for "no step"), outside the range,
        # at an integer an earlier walk settled, or back on its own path
        path, position, cur = [], {}, start
        while cur and lo <= cur <= hi and cur not in settled and cur not in position:
            position[cur] = len(path)
            path.append(cur)
            step = successor(system.scale, candidate, cur)
            cur = step[0] if step else 0
        if cur in position:
            on_cycle.update(path[position[cur] :])
        settled.update(path)
    if not on_cycle:
        return SpectrumVerdict(True, None, (lo, hi), bounds)
    first = min(on_cycle, key=lambda e: (abs(e), e))
    witness, eta = [], first
    while not witness or eta != first:
        eta_next, s = successor(system.scale, candidate, eta)
        witness.append((eta, s))
        eta = eta_next
    return SpectrumVerdict(False, tuple(witness), (lo, hi), bounds)


def attractor_integers(scale, elements):
    """The integers of the attractor K, from K = union of (K + s)/N alone: the
    hull's integers with an endless chain of predecessors N*eta - s in it.
    Integers left with no predecessor are peeled off until none is."""
    bounds = attractor_bounds(scale, elements)
    hull = range(math.ceil(bounds.lo), math.floor(bounds.hi) + 1)
    count = {eta: sum(scale * eta - s in hull for s in elements) for eta in hull}
    peel = [eta for eta, c in count.items() if not c]
    while peel:
        y = peel.pop()
        for s in elements:  # y is a predecessor of (y + s)/N where that is an integer
            eta, rest = divmod(y + s, scale)
            if not rest and eta in count:
                count[eta] -= 1
                if not count[eta]:
                    peel.append(eta)
    return {eta for eta, c in count.items() if c}


def lifted_window_pairs(scale, max_digit, sizes, lifts, common=False):
    """Each system (scale, D) with 0 in D, gcd(D) = 1 and D in [0, max_digit],
    with each window candidate's nonzero elements moved by every choice of
    multiples of |N| from `lifts` (residues, hence compatibility, kept).
    With `common`, they all move by one multiple, so they cluster."""
    m = abs(scale)
    for size in sizes:
        for rest in itertools.combinations(range(1, max_digit + 1), size - 1):
            if math.gcd(*rest) != 1:
                continue
            system = ScaleDigitSystem(scale, (0, *rest))
            for window in search_candidate_s(system):
                nonzero = [s for s in window.elements if s]
                repeat = len(nonzero)
                for shifts in [(k,) * repeat for k in lifts] if common else itertools.product(lifts, repeat=repeat):
                    elements = {0, *(s + k * m for s, k in zip(nonzero, shifts))}
                    if len(elements) == window.size:
                        yield system, SpectrumCandidate(tuple(elements))


def test_decide_matches_reference_exhaustively():
    scales = [n for k in range(3, 10) for n in (k, -k)] + [10, 12, -12]
    compared = negatives = 0
    for scale in scales:
        for system, candidate in lifted_window_pairs(scale, 7, (2, 3, 4), (-2, 0, 3)):
            witnesses = set()
            for range_factor in (1, 2, 3):
                expected = reference_decide(system, candidate, range_factor)
                assert decide_spectrum(system, candidate, range_factor) == expected, (
                    system,
                    candidate,
                    range_factor,
                )
                compared += 1
                negatives += not expected.spectral
                witnesses.add(expected.witness)
            assert len(witnesses) == 1, (system, candidate)  # a function of (N, S) alone
            (witness,) = witnesses
            if witness is not None:
                first = min(attractor_integers(scale, candidate.elements) - {0}, key=lambda e: (abs(e), e))
                assert witness[0][0] == first, (system, candidate)
    assert compared > 30_000 and negatives > 9_000


@pytest.mark.parametrize("scale", [4, -4])
def test_large_hull_matches_reference(scale):
    system = ScaleDigitSystem(scale, (0, 1))
    for elements in [(0, 2 * 10**5 + 2), (0, 12 * 10**3 + 6), (-(12 * 10**3 + 6), 0)]:
        candidate = SpectrumCandidate(elements)
        assert decide_spectrum(system, candidate) == reference_decide(system, candidate)


@pytest.mark.parametrize(
    "scale,searched", [(4, (0, 6_666_667)), (-4, (-5_333_333, 1_333_333))]
)
def test_large_hull_spectral(scale, searched):
    # 6.7 million hull integers; the former walk over all of them took tens of seconds
    system = ScaleDigitSystem(scale, (0, 1))
    verdict = decide_spectrum(system, SpectrumCandidate((0, 2 * 10**7 + 2)))
    assert verdict.spectral and verdict.witness is None
    assert verdict.searched == searched


def test_cycle_search_budget_is_read_at_call_time(monkeypatch):
    # test_large_hull_spectral's pair: 2^11 cylinders of at most 2 integers
    system = ScaleDigitSystem(4, (0, 1))
    candidate = SpectrumCandidate((0, 2 * 10**7 + 2))
    monkeypatch.setattr(systems_module, "LAMBDA_BUDGET", 4096)
    assert decide_spectrum(system, candidate).spectral
    monkeypatch.setattr(systems_module, "LAMBDA_BUDGET", 4095)
    message = "|S|^depth * integers per cylinder = 2^11 * 2 = 4096 exceeds the enumeration budget 4095"
    with pytest.raises(BudgetExceededError) as excinfo:
        decide_spectrum(system, candidate)
    assert str(excinfo.value) == message


def test_the_budget_counts_overlapping_cylinders_in_full():
    # S's nonzero elements lie 4 apart in a hull of 10^10 integers: the level's
    # 4^11 cylinders of 2 integers overlap, and the budget counts every
    # integer of each, though the search would scan the joined ones once
    system = ScaleDigitSystem(8, (0, 1, 4, 5))
    candidate = SpectrumCandidate((0, 70000000001, 70000000004, 70000000005))
    message = "|S|^depth * integers per cylinder = 4^11 * 2 = 8388608 exceeds the enumeration budget 1000000"
    with pytest.raises(BudgetExceededError) as excinfo:
        decide_spectrum(system, candidate)
    assert str(excinfo.value) == message


def cost_model_budget_level(scale, size, bounds):
    """The level and integers per cylinder that the budget read before the
    search met in the middle: first the level where a cylinder worth 4
    integers stopped paying, then on from there while a split still shrank
    the integers."""
    m, cost = abs(scale), 4
    den = math.lcm(bounds.lo.denominator, bounds.hi.denominator)
    low = bounds.lo.numerator * (den // bounds.lo.denominator)
    span = bounds.hi.numerator * (den // bounds.hi.denominator) - low
    level, q = 0, den
    while size * ((cost + 1) * q * m + span) < ((cost + 1) * q + span) * m:
        level, q = level + 1, q * m
    while span * (m - size) > q * m * (size - 1):
        level, q = level + 1, q * m
    return level, span // q + 1


class BudgetRead(Exception):
    """Raised by a budget spy to stop the search once it has read the budget."""


def test_the_budget_is_read_at_the_level_the_cost_model_read_it(monkeypatch):
    # the budget's level is now found from level 0 alone; it is the level
    # the former two loops reached, so no refusal point moves
    def budget(size, depth, grid=1, unit=""):
        raise BudgetRead(size, depth, grid)

    monkeypatch.setattr(decide_module, "_check_slice_budget", budget)
    rng = random.Random(42)
    scales = [n for k in range(3, 10) for n in (k, -k)] + [10, 12, -12]
    pairs = [p for scale in scales for p in lifted_window_pairs(scale, 7, (2, 3, 4), (-2, 0, 3))]
    pairs += [p for scale in scales for p in lifted_window_pairs(scale, 7, (2, 3, 4), (-60, 60), common=True)]
    pairs += [(ScaleDigitSystem(scale, (0, 1, 2, 3)), SpectrumCandidate(elements)) for scale, elements in TILE_PAIRS]
    pairs += [(ScaleDigitSystem(scale, digits), SpectrumCandidate(elements)) for scale, digits, elements in WIDE_RATIO_PAIRS]
    pairs += [
        (ScaleDigitSystem(scale, (0, 1)), SpectrumCandidate((0, 2 * p + 2))) for scale in (4, -4) for p in (10**7, 5**20)
    ]
    pairs += [(ScaleDigitSystem(8, (0, 1, 4, 5)), SpectrumCandidate((0, 70000000001, 70000000004, 70000000005)))]
    pairs += list(laba_wang_lifts(rng, (10**3, 10**6, 10**12)))
    large = 0
    for system, candidate in pairs:
        bounds = attractor_bounds(system.scale, candidate.elements)
        with pytest.raises(BudgetRead) as read:
            cycles_of(system, candidate)
        level, grid = cost_model_budget_level(system.scale, candidate.size, bounds)
        assert read.value.args == (candidate.size, level, grid), (system, candidate)
        large += bounds.hi - bounds.lo > 10**4
    assert len(pairs) > 11_000 and large > 30


def laba_wang_lifts(rng, reaches):
    """|S| = 16 of N = +-32 and |S| = 32 of N = +-64 with D = {0, ..., |S| - 1}:
    Laba-Wang's window S = (|N|/|S|)*{0, ..., |S| - 1}, compatible, with each
    nonzero element moved by a seeded multiple of |N| up to each reach, so
    that the hull holds up to about twice the reach in integers."""
    for scale, size in ((-32, 16), (32, 16), (64, 32), (-64, 32)):
        m, system = abs(scale), ScaleDigitSystem(scale, tuple(range(size)))
        for reach in reaches:
            for _ in range(3):
                elements = {0, *(s + m * rng.randint(-reach, reach) for s in range(m // size, m, m // size))}
                if len(elements) == size:
                    yield system, SpectrumCandidate(tuple(elements))


def test_laba_wang_lifts_match_reference(monkeypatch):
    # |S| = |N|/2 with |S| = 16 and 32: the table of the full split would
    # hold up to |S|^k residues, more than the integers it filters at small
    # hulls, so the search stops it early there; the verdicts match the
    # reference either way
    work = spy_on_the_search(monkeypatch)
    trimmed = full = spectral = 0
    for system, candidate in laba_wang_lifts(random.Random(7), (15, 100, 3000)):
        work.clear()
        verdict = decide_spectrum(system, candidate)
        assert verdict == reference_decide(system, candidate), (system, candidate)
        depth = work["depth"]
        steps = depth + 2 - (depth + 2) // 2 if depth else 0
        trimmed += work["mod"] < system.modulus**steps
        full += 1 < work["mod"] == system.modulus**steps
        spectral += verdict.spectral
    assert trimmed > 10 and full > 3 and 10 < spectral < 30


def test_large_hull_fixed_point_witness():
    # 4j + 2 -> (4j + 2 + 12j + 6)/4 = 4j + 2, the only integer whose walk
    # never dies, at the top of a hull of 4j + 3 integers
    j = 10**6
    system = ScaleDigitSystem(4, (0, 1))
    candidate = SpectrumCandidate((0, 12 * j + 6))
    verdict = decide_spectrum(system, candidate)
    assert not verdict.spectral
    assert verdict.witness == ((4 * j + 2, 12 * j + 6),)
    assert verdict.searched == (0, 4 * j + 2)
    assert verify_witness(system, candidate, verdict.witness)


TILE_PAIRS = [  # S against D = {0, 1, 2, 3}
    (4, (-2, -1, 0, 1)),
    (4, (0, 1, 2, 3)),
    (4, (0, 5, -6, 7)),
    (4, (0, -3, 14, -37)),
    (4, (0, 41, -30, 123)),
    (-4, (-11, -5, 0, 2)),  # a cycle through the top of the hull, 3
    (-4, (-10, -5, 0, 9)),
    (4, (0, 120001, -79998, 20003)),  # hulls of about 6 * 10^4 integers
    (-4, (0, 120001, -79998, 20003)),
]


@pytest.mark.parametrize("scale,elements", TILE_PAIRS)
def test_tile_pairs_match_reference(scale, elements):
    # |S| = |N|: the cylinders of each level tile the hull and touch, so no
    # refinement shrinks the integers to walk
    system = ScaleDigitSystem(scale, (0, 1, 2, 3))
    candidate = SpectrumCandidate(elements)
    for range_factor in (1, 2):
        expected = reference_decide(system, candidate, range_factor)
        assert decide_spectrum(system, candidate, range_factor) == expected
    if expected.witness is not None:
        first = min(attractor_integers(scale, elements) - {0}, key=lambda e: (abs(e), e))
        assert expected.witness[0][0] == first


WIDE_RATIO_PAIRS = [  # |S| far below |N|: the cylinders of each level leave most of the hull
    (100, (0, 1), (0, 50 + 100 * 10**6)),
    (-100, (0, 1), (0, 50 + 100 * 10**6)),
    (30, (0, 1, 2), (0, 10 + 30 * 10**5, 20 - 30 * 10**5)),
    (-30, (0, 1, 2), (0, 10 + 30 * 10**4, 20 + 30 * 10**5)),
]


def takes_steps(scale, candidate, eta, k):
    """Whether eta takes k successive steps of the successor map (0 steps to 0)."""
    for _ in range(k):
        step = successor(scale, candidate, eta) if eta else (0, 0)
        if step is None:
            return False
        eta = step[0]
    return True


def residues_taking_steps(scale, candidate, k):
    """The residues mod |N|^k of the integers that take k steps, found
    breadth-first from the successor map alone: a residue mod |N|^j that
    takes j steps lifts one mod |N|^(j-1) that takes j - 1."""
    m, found = abs(scale), {0}
    for j in range(1, k + 1):
        found = {y for t in found for y in range(t, m**j, m ** (j - 1)) if takes_steps(scale, candidate, y, j)}
    return found


def cylinder_integers(scale, candidate, bounds, levels):
    """The integers of the level-`levels` cylinders (H + lam)/N^levels, each
    once, and the count of integer slots, one per cylinder holding it."""
    slots, covered = 0, set()
    for lam in compat_module.lambda_enumerate(scale, candidate, levels) if levels else (0,):
        ends = sorted(((bounds.lo + lam) / scale**levels, (bounds.hi + lam) / scale**levels))
        slots += math.floor(ends[1]) - math.ceil(ends[0]) + 1
        covered.update(range(math.ceil(ends[0]), math.floor(ends[1]) + 1))
    return covered, slots


def cycles_of(system, candidate):
    """`_cycles` on the pair, given the integers of its hull."""
    hull = decide_module._hull(system.scale, candidate.elements[0], candidate.elements[-1])
    return decide_module._cycles(system, candidate, *hull)


def cycle_search_pairs():
    """The tile, wide-ratio and exhaustive lifted window pairs, and apart from
    them the clustered ones: S's nonzero elements far closer together than the
    hull is wide, so that the cylinders of a level overlap, most of them
    several deep."""
    pairs = [(ScaleDigitSystem(scale, (0, 1, 2, 3)), SpectrumCandidate(elements)) for scale, elements in TILE_PAIRS]
    pairs += [(ScaleDigitSystem(scale, digits), SpectrumCandidate(elements)) for scale, digits, elements in WIDE_RATIO_PAIRS]
    scales = [n for k in range(3, 10) for n in (k, -k)] + [10, 12, -12]
    for scale in scales:
        pairs += lifted_window_pairs(scale, 7, (2, 3, 4), (-2, 0, 3))
    clustered = [p for scale in scales for p in lifted_window_pairs(scale, 7, (2, 3, 4), (-60, 60), common=True)]
    return pairs, clustered


def spy_on_the_search(monkeypatch):
    """Record what `_cycles` hands its helpers and gets back: the budget's
    arguments, the sorted cylinder numerators with span and q, the joined
    ranges and their integer count, and the residue table, its modulus and
    a copy of the survivors `_admitted` builds, before the walk takes them."""
    work = {}
    merged_ranges, admitted = decide_module._merged_ranges, decide_module._admitted

    def budget(size, depth, grid=1, unit=""):
        work.update(size=size, depth=depth, estimate=size**depth * grid)
        systems_module._check_slice_budget(size, depth, grid, unit)

    def merged(numerators, span, q):
        ranges, integers = merged_ranges(numerators, span, q)
        work.update(cylinders=len(numerators), q=q, ranges=list(ranges), integers=integers, mod=1)
        return ranges, integers

    def admitting(ranges, residues, mod):
        survivors = admitted(ranges, residues, mod)
        work.update(residues=list(residues), mod=mod, survivors=set(survivors))
        return survivors

    monkeypatch.setattr(decide_module, "_check_slice_budget", budget)
    monkeypatch.setattr(decide_module, "_merged_ranges", merged)
    monkeypatch.setattr(decide_module, "_admitted", admitting)
    return work


def survivors_of(work):
    """Every survivor `_admitted` built, or all the ranges' integers on the k = 0 path."""
    return work["survivors"] if work["mod"] > 1 else [y for r in work["ranges"] for y in r]


def split_of(work, system, candidate):
    """The (L, k) the search took: q = den * |N|^L, den the hull's from `_hull`, and the table's modulus |N|^k."""
    m, (den, _, _) = system.modulus, decide_module._hull(system.scale, candidate.elements[0], candidate.elements[-1])
    levels = steps = 0
    while den * m**levels < work["q"]:
        levels += 1
    while m**steps < work["mod"]:
        steps += 1
    assert (den * m**levels, m**steps) == (work["q"], work["mod"])
    return levels, steps


def test_cycle_points_are_the_attractor_integers(monkeypatch):
    # all of K's integers, 0 included, not only the smallest nonzero one; each
    # cycle checks out as a witness on its own, starts at its least point in
    # (|eta|, eta) order, and the cycles come sorted by that point; and the
    # survivors, read by spies on the search's helpers, are exactly the
    # nonzero integers of the level-L cylinders whose residue mod |N|^k lies
    # in the table of an independent k-step search, and the joined ranges
    # count each integer of the cylinders once; the cylinders, the residues
    # and the survivors together stay within 3 times the estimate that the
    # budget check sees (2.5 times at most here, on estimates of 2; within
    # 1.02 times on estimates of 20 and more)
    work = spy_on_the_search(monkeypatch)
    pairs, clustered = cycle_search_pairs()
    cycling = overlapping = filtered = cycles_seen = multiple = 0
    tables = {}
    for system, candidate in pairs + clustered:
        work.clear()
        scale = system.scale
        bounds = attractor_bounds(scale, candidate.elements)
        cycles = cycles_of(system, candidate)
        firsts = []
        for cycle in cycles:
            assert verify_witness(system, candidate, cycle), (system, candidate, cycle)
            etas = [eta for eta, _ in cycle]
            assert etas[0] == min(etas, key=lambda e: (abs(e), e)), (system, candidate, cycle)
            firsts.append((abs(etas[0]), etas[0]))
        assert firsts == sorted(firsts), (system, candidate)
        points = sorted([0, *(eta for cycle in cycles for eta, _ in cycle)])
        assert points == sorted(attractor_integers(scale, candidate.elements)), (system, candidate)
        levels, steps = split_of(work, system, candidate)
        key = (scale, candidate.elements, steps)
        if key not in tables:
            tables[key] = residues_taking_steps(scale, candidate, steps)
        table = tables[key]
        if steps:
            assert work["residues"] == sorted(table), (system, candidate)
        ranges = work["ranges"]
        assert all(a.stop <= b.start for a, b in zip(ranges, ranges[1:])), (system, candidate, ranges)
        covered, slots = cylinder_integers(scale, candidate, bounds, levels)
        assert {y for r in ranges for y in r} == covered, (system, candidate)
        survivors = survivors_of(work)
        assert len(survivors) == len(set(survivors)) and work["integers"] == len(covered), (system, candidate)
        assert set(survivors) - {0} == {y for y in covered if y and y % work["mod"] in table}, (system, candidate)
        cost = work["cylinders"] + (len(table) if steps else 0) + len(survivors)
        assert cost <= 3 * work["estimate"], (system, candidate, work)
        cycling += points != [0]
        overlapping += slots > len(covered)
        filtered += steps > 0
        cycles_seen += len(cycles)
        multiple += len(cycles) > 1
    assert len(pairs) > 10_000 and cycling > 3_000 and len(clustered) > 900 and overlapping > len(clustered) / 2
    assert filtered > 800 and cycles_seen > 3_000 and multiple > 100


def test_the_residues_taking_k_steps_are_minus_the_slice():
    # the search's residue table reads -Lambda_k mod |N|^k: an integer that
    # takes k steps is N^k * eta' - lam with lam in Lambda_k.  Checked against
    # the breadth-first search of the successor map up to k = 6, deeper than
    # the tables the cycle-search tests reach, on seeded lifted window pairs
    # (|N| = 5 and 7 have no window of 2-4 elements)
    rng = random.Random(43)
    checked = 0
    for scale in [n for k in (3, 4, 6, 8, 9) for n in (k, -k)]:
        for size in (2, 3, 4):
            pairs = list(lifted_window_pairs(scale, 7, (size,), (-2, 0, 3)))
            for system, candidate in rng.sample(pairs, min(2, len(pairs))):
                m = system.modulus
                for k in range(1, 7):
                    table = sorted(-lam % m**k for lam in compat_module.lambda_enumerate(scale, candidate, k))
                    assert table == sorted(residues_taking_steps(scale, candidate, k)), (scale, candidate.elements, k)
                checked += 1
    assert checked == 32  # two of each size: 3 at |N| = 3 and 9, 2 and 4 at 4 and 8, 2 and 3 at 6


FIXED_POINT_128 = 64 + 128 * 3**64  # eta = (eta + 127 eta)/128
FIXED_POINT_M1000 = 500 + 1000 * 7**52  # eta = (eta - 1001 eta)/(-1000)
DEEP_PAIRS = [  # |N| >= 128 at budget levels 8-19: level-L cylinders up to 1.5 * 10^24 integers wide
    (1000, (0, 1), (0, 15 * 10**56 + 500)),
    (128, (0, 1), (0, 127 * FIXED_POINT_128)),
    (-1000, (0, 1), (-1001 * FIXED_POINT_M1000, 0)),
    (256, (0, 1), (0, 128 + 256 * 5**54)),
    (-128, (0, 1), (0, 64 + 128 * 10**38)),
    (-128, (0, 1, 2, 3), (0, 32 + 128 * 10**17, 64 - 128 * 10**16, 96 + 128 * 3 * 10**17)),
    (1000, (0, 1, 2, 3), (0, 250 - 1000 * 10**25, 500 + 1000 * 10**26, 750 + 1000 * 7 * 10**25)),
    (1000, (0, 1), (0, 500 + 1000 * 10**25)),  # a table mod 1000^3 would leave 4 times the estimate
    (-1000, (0, 1), (0, 500 - 1000 * 10**25)),
]


def test_deep_pairs_of_large_scales_stay_within_the_estimate(monkeypatch):
    # the split takes about half of depth + 2 steps as cylinder levels, so a
    # deep budget level leaves cylinders far wider than the level the budget
    # reads: the search counts their integers without len(), filters them by
    # residues of up to |N|^10, and its cylinders, residues and survivors
    # stay within the estimate; each survivor takes k steps, and each
    # witness is the known fixed point and checks out
    work = spy_on_the_search(monkeypatch)
    deep = wide = 0
    for scale, digits, elements in DEEP_PAIRS:
        work.clear()
        system, candidate = ScaleDigitSystem(scale, digits), SpectrumCandidate(elements)
        verdict = decide_spectrum(system, candidate)
        if verdict.witness is not None:
            assert verify_witness(system, candidate, verdict.witness), (system, candidate)
        fixed = [eta for eta in (FIXED_POINT_128, FIXED_POINT_M1000) if eta * (scale - 1) in elements]
        assert verdict.witness == (((fixed[0], fixed[0] * (scale - 1)),) if fixed else None), (system, candidate)
        levels, steps = split_of(work, system, candidate)
        survivors = survivors_of(work)
        assert steps > 0 and len(survivors) == len(set(survivors)), (system, candidate, levels, steps)
        assert work["integers"] == sum(r.stop - r.start for r in work["ranges"]), (system, candidate)
        assert all(any(y in r for r in work["ranges"]) and takes_steps(scale, candidate, y, steps) for y in survivors)
        assert len(work["residues"]) <= candidate.size**steps
        cost = work["cylinders"] + len(work["residues"]) + len(survivors)
        assert cost <= work["estimate"], (system, candidate, work["depth"], levels, steps, cost)
        deep += work["depth"] >= 15
        wide += max(r.stop - r.start for r in work["ranges"]) > 2**63  # past len()'s reach
    assert deep == 5 and wide == 2


@pytest.mark.parametrize("scale", [4, -4])
def test_the_cycle_search_holds_only_its_survivors(scale):
    # |S| = |N|: the survivors are the hull's 6.7 * 10^4 nonzero integers, and
    # the walk keeps no map of them beside their set
    system = ScaleDigitSystem(scale, (0, 1, 2, 3))
    candidate = SpectrumCandidate((0, 120001, -79998, 20003))
    bounds = attractor_bounds(scale, candidate.elements)
    assert not decide_spectrum(system, candidate).spectral  # the system's memos are built outside the trace
    peaks = []
    for build in (lambda: {y for y in range(math.ceil(bounds.lo), math.floor(bounds.hi) + 1) if y},
                  lambda: decide_spectrum(system, candidate)):
        tracemalloc.start()
        try:
            build()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


@pytest.mark.parametrize("scale", [4, -4])
def test_the_cycle_search_keeps_only_integers_that_take_seven_steps(scale, monkeypatch):
    # |S| < |N|: test_large_hull_spectral's pair, whose budget level is 11.
    # The search takes 13 steps: the 2^6 cylinders (H + lam)/N^6, which hold
    # 10^5 integers, and a table mod 4^7 that keeps the 2^-7 of them whose
    # residue takes seven steps; it holds those, the table and the cylinders'
    # numerators and ranges, nothing the size of the rest
    system = ScaleDigitSystem(scale, (0, 1))
    candidate = SpectrumCandidate((0, 2 * 10**7 + 2))
    bounds = attractor_bounds(scale, candidate.elements)
    covered, _ = cylinder_integers(scale, candidate, bounds, 6)
    table = residues_taking_steps(scale, candidate, 7)
    kept = sum(1 for eta in covered if eta and eta % 4**7 in table)
    assert len(table) == 2**7 and len(covered) > 10**5 and kept < len(covered) / 100
    work = spy_on_the_search(monkeypatch)
    assert decide_spectrum(system, candidate).spectral  # the system's memos are built outside the trace
    assert split_of(work, system, candidate) == (6, 7) and work["depth"] == 11 and len(set(work["survivors"]) - {0}) == kept
    monkeypatch.undo()
    peaks = []
    cylinders = [10**13 + i for i in range(2**6)]
    for build in (lambda: ({y for y in range(10**6, 10**6 + kept)}, {y + 10**6 for y in table},
                           cylinders[:], [range(u, u + 10**6) for u in cylinders]),
                  lambda: decide_spectrum(system, candidate)):
        tracemalloc.start()
        try:
            build()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_witness_starts_at_the_smallest_nonzero_integer_of_the_attractor():
    # the hull is [-3.6, 3.4] and -1's predecessors 4 - s all leave it, so -1
    # is not in K, though a walk from -1 reaches the cycle [(2, -10)]
    system = ScaleDigitSystem(-4, (0, 1, 2, 3))
    candidate = SpectrumCandidate((-10, -7, 0, 11))
    verdict = decide_spectrum(system, candidate)
    assert verdict.witness == ((1, 11), (-3, 11), (-2, -10), (3, -7))
    assert verify_witness(system, candidate, verdict.witness)
    assert attractor_integers(-4, candidate.elements) == {-3, -2, 0, 1, 2, 3}
    assert decide_spectrum(system, candidate, range_factor=3).witness == verdict.witness


def eager_report(system):
    """The report as formerly built: every window candidate first, then
    each one validated and decided in turn."""
    canon = canonicalize_digits(system.digits)
    reduced = ScaleDigitSystem(system.scale, canon.reduced_digits)
    if system.modulus == 2:
        if canon.reduced_digits == (0, 1):
            return SpectralityReport(STATUS_UNIT_INTERVAL, system.scale, canon)
        if canon.reduced_digits != (0,):
            return SpectralityReport(STATUS_UNKNOWN, system.scale, canon)
        candidates = [SpectrumCandidate((0,))]
    else:
        candidates = search_candidate_s(reduced)
    for cand in candidates:
        verdict = decide_spectrum(reduced, cand)
        if verdict.spectral:
            certificate = is_compatible(reduced, cand)
            return SpectralityReport(
                STATUS_SPECTRAL, system.scale, canon, cand, certificate, verdict
            )
    return SpectralityReport(STATUS_UNKNOWN, system.scale, canon)


def test_report_matches_eager_report():
    statuses = set()
    for modulus in range(2, 11):
        for scale in (modulus, -modulus):
            for size in range(1, 5):
                for digits in itertools.combinations(range(-2, 6), size):
                    system = ScaleDigitSystem(scale, digits)
                    report = report_measure_spectrality(system)
                    assert report == eager_report(system), system
                    assert decide_module._canonical(system.digits) == canonicalize_digits(system.digits), system
                    statuses.add(report.status)
    assert statuses == {STATUS_SPECTRAL, STATUS_UNIT_INTERVAL, STATUS_UNKNOWN}


def test_every_window_candidate_is_spectral():
    # Laba-Wang's window condition: with 0 in S inside [2-|N|, |N|-2] the
    # attractor's hull lies strictly inside (-1, 1) for either sign of N,
    # so the report need decide only the first candidate
    decided = 0
    for modulus in range(2, 17):
        for scale in (modulus, -modulus):
            for size in range(4):
                for rest in itertools.combinations(range(1, 13), size):
                    if math.gcd(*rest) > 1:
                        continue
                    system = ScaleDigitSystem(scale, (0, *rest))
                    for cand in compat_module._window_candidates(system):
                        assert cand == SpectrumCandidate(cand.elements), (system, cand)
                        bounds = attractor_bounds(scale, cand.elements)
                        assert -1 < bounds.lo <= bounds.hi < 1, (system, cand)
                        assert decide_spectrum(system, cand).spectral, (system, cand)
                        decided += 1
    assert decided > 2000


def test_the_search_runs_only_where_the_hull_holds_a_nonzero_integer(monkeypatch):
    # a hull strictly inside (-1, 1) holds no nonzero integer, so the pair is
    # decided spectral from the hull and never searched, as every window
    # candidate is; any other hull holds -1 or 1, since 0 lies in it, and is
    # searched: tiling constructions come in both kinds, lifted pairs too
    searched, search = [], decide_module._cycles

    def searching(system, candidate, *hull):
        searched.append((system, candidate))
        return search(system, candidate, *hull)

    monkeypatch.setattr(decide_module, "_cycles", searching)
    windows, constructions, lifted = [], [], []
    for modulus in range(2, 17):
        for scale in (modulus, -modulus):
            for size in range(4):
                for rest in itertools.combinations(range(1, 13), size):
                    if math.gcd(*rest) <= 1:  # gcd() = 0: the point mass D = {0}
                        system = ScaleDigitSystem(scale, (0, *rest))
                        windows += [(system, cand) for cand in compat_module._window_candidates(system)]
    digit_sets = [digits for size in (1, 2, 3, 4, 6) for digits in itertools.combinations(range(-2, 8), size)]
    for modulus in (4, 6, 8, 9, 12, 16, 18, 24, 72):
        for scale in (modulus, -modulus):
            for digits in digit_sets:
                if 0 in digits and (math.gcd(*digits) == 1 or digits == (0,)):
                    system = ScaleDigitSystem(scale, digits)
                    try:
                        constructions.append((system, SpectrumCandidate(construct_spectrum_set(system).result_s)))
                    except PreconditionError:
                        continue
    for scale in [n for k in range(3, 10) for n in (k, -k)] + [10, 12, -12]:
        lifted += lifted_window_pairs(scale, 7, (2, 3, 4), (-2, 0, 3))
    holding = {}
    for name, pairs in [("windows", windows), ("constructions", constructions), ("lifted", lifted)]:
        holding[name] = [0, 0]
        for system, candidate in pairs:
            bounds = attractor_bounds(system.scale, candidate.elements)
            holds = bounds.lo <= -1 or bounds.hi >= 1
            holding[name][holds] += 1
            for range_factor in (1, 2, 3):
                searched.clear()
                verdict = decide_spectrum(system, candidate, range_factor)
                assert searched == [(system, candidate)] * holds, (system, candidate, range_factor)
                assert verdict == reference_decide(system, candidate, range_factor), (system, candidate, range_factor)
    assert holding["windows"][0] > 2000 and holding["windows"][1] == 0
    assert holding["constructions"][0] > 400 and holding["constructions"][1] > 90
    assert holding["lifted"][0] > 400 and holding["lifted"][1] > 9000


def test_the_report_follows_the_closed_form_for_up_to_three_digits():
    # every measure with at most three digits is spectral or not as the
    # closed form says: the report certifies each spectral one (|N| = 2 with
    # two digits as the unit interval) and finds no pair for the rest
    statuses = {}
    for modulus in range(2, 25):
        for scale in (modulus, -modulus):
            for size in (0, 1, 2):
                for rest in itertools.combinations(range(1, 21), size):
                    digits = (0, *rest)
                    if modulus == 2 and size == 1:
                        expected = STATUS_UNIT_INTERVAL
                    else:
                        expected = STATUS_SPECTRAL if small_digit_spectral(scale, digits) else STATUS_UNKNOWN
                    status = report_measure_spectrality(ScaleDigitSystem(scale, digits)).status
                    assert status == expected, (scale, digits)
                    statuses[status] = statuses.get(status, 0) + 1
    assert sum(statuses.values()) == 9_706 and len(statuses) == 3, statuses


def test_the_unchecked_hull_matches_attractor_bounds():
    # the hull the report and the cycle search build unchecked, from the
    # least and greatest elements, against the public enclosure; a Fraction
    # is fixed by its reduced numerator and denominator, which compare faster
    def exactly(hull):
        assert type(hull) is RationalInterval and type(hull.lo) is type(hull.hi) is Fraction
        return hull.lo.numerator, hull.lo.denominator, hull.hi.numerator, hull.hi.denominator

    pairs = [(a, b) for a in range(-60, 61) for b in range(a, 61)]
    for modulus in range(2, 41):
        for scale in (modulus, -modulus):
            hulls = [exactly(decide_module._interval(*decide_module._hull(scale, a, b))) for a, b in pairs]
            assert hulls == [exactly(attractor_bounds(scale, pair)) for pair in pairs], scale


def test_report_refuses_a_window_candidate_with_a_cycle(monkeypatch):
    # S = {0, 6} is compatible with (4, {0, 1}) but lies outside the window:
    # its hull [0, 2] leaves (-1, 1) and holds the cycle 2 -> (2 + 6)/4 = 2.
    # A window search that yielded it must make the report raise, not
    # certify it from the window condition
    system = ScaleDigitSystem(4, (0, 1))
    cand = SpectrumCandidate((0, 6))
    assert decide_spectrum(system, cand).witness == ((2, 6),)
    monkeypatch.setattr(decide_module, "_window_candidates", lambda reduced: iter([cand]))
    with pytest.raises(ConsistencyError, match=r"outside \(-1, 1\)"):
        report_measure_spectrality(system)


def test_report_builds_and_certifies_only_what_it_decides(monkeypatch):
    built = []
    certified = []
    build = SpectrumCandidate._of

    def counting_candidate(elements):
        built.append(elements)
        return build(elements)

    def counting_certificate(system, candidate):
        certified.append(candidate)
        return is_compatible(system, candidate)

    monkeypatch.setattr(SpectrumCandidate, "_of", counting_candidate)
    monkeypatch.setattr(decide_module, "is_compatible", counting_certificate)
    system = ScaleDigitSystem(72, (0, 1, 24, 25, 48, 49))  # 4232 window candidates
    report = report_measure_spectrality(system)
    assert report.status == STATUS_SPECTRAL
    assert len(built) == 1 and certified == [report.candidate]
    assert report.candidate == search_candidate_s(system)[0]
