import copy
import dataclasses
import gc
import itertools
import math
import pickle
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cantorspec import (
    BudgetExceededError,
    PreconditionError,
    ScaleDigitSystem,
    SpectrumCandidate,
    compat,
    construct_spectrum_set,
    decide_spectrum,
    is_compatible,
    pair_power,
    reduce_s,
    report_measure_spectrality,
    search_candidate_s,
)
from cantorspec import cyclotomic
from cantorspec.cyclotomic import factorize
from oracles import divisors, symbol_eval, zero_residues

CERTIFIED_PAIRS = [
    (4, (0, 1), (0, 2)),
    (4, (0, 1), (-2, 0)),
    (4, (0, 1), (0, 6)),
    (6, (0, 1, 2), (0, 2, 4)),
    (6, (0, 1, 2), (0, -2, 2)),
    (6, (0, 1, 2), (0, 4, 8)),
    (5, (0, 2, -2, 11, -11), (0, 1, -1, 2, -2)),
    (10, (0, 2, -2, 11, -11), (0, 2, 4, 6, 8)),
    (2, (0, 1), (0, 1)),
    (4, (0, 2), (0, 1)),
]

REJECTED_PAIRS = [
    (3, (0, 2), (0, 1)),
    (4, (0, 1), (0, 1)),
    (6, (0, 1, 2), (0, 1, 2)),
]


def unitarity_defect(scale, digits, candidate):
    """max |M M* - I| for M = (1/sqrt(q)) [e(d*s/N)] -- the numeric oracle."""
    q = len(digits)
    matrix = np.exp(2j * np.pi * np.outer(digits, candidate) / scale) / np.sqrt(q)
    return np.abs(matrix @ matrix.conj().T - np.eye(q)).max()


@pytest.mark.parametrize("scale,digits,candidate", CERTIFIED_PAIRS)
def test_certified_pairs(scale, digits, candidate):
    system = ScaleDigitSystem(scale, digits)
    cert = is_compatible(system, SpectrumCandidate(candidate))
    assert cert is not None
    assert unitarity_defect(scale, digits, candidate) < 1e-10
    # certificate covers every unordered pair, orders divide |N|
    assert len(cert.zero_differences) == len(candidate) * (len(candidate) - 1) // 2
    for _, _, order in cert.zero_differences:
        assert abs(scale) % order == 0
    # elements distinct modulo N on both sides
    assert len({d % abs(scale) for d in digits}) == len(digits)
    assert len({s % abs(scale) for s in candidate}) == len(candidate)


@pytest.mark.parametrize("scale,digits,candidate", REJECTED_PAIRS)
def test_rejected_pairs(scale, digits, candidate):
    system = ScaleDigitSystem(scale, digits)
    assert is_compatible(system, SpectrumCandidate(candidate)) is None
    assert unitarity_defect(scale, digits, candidate) > 1e-6


def test_compatibility_requires_matching_sizes():
    with pytest.raises(PreconditionError):
        is_compatible(ScaleDigitSystem(4, (0, 1)), SpectrumCandidate((0,)))


# Former cliff: the residue mask of these systems held N/2 residues (about
# 10^8 for the second), though one order decides the pair.
@pytest.mark.parametrize("n", [9699690, 223092870])
def test_compatible_at_a_primorial_scale(n):
    cert = is_compatible(ScaleDigitSystem(n, (0, n // 2)), SpectrumCandidate((0, 1)))
    assert cert is not None
    assert cert.zero_differences == ((0, 1, n),)


def test_zero_pattern_sets_exactly_the_zero_residues():
    systems = [
        ScaleDigitSystem(m, digits)
        for m in range(2, 33)
        for size in range(1, 9)
        for digits in itertools.combinations(range(8), size)
    ]
    # orders 2 and 4 share the multiples of 100: writing the units of one
    # order must not clear the residues of the other
    systems.append(ScaleDigitSystem(400, (0, 100, 200, 300)))
    for system in systems:
        m = system.modulus
        zeros = zero_residues(system)
        expected = sum(1 << t for t in range(2 * m) if t % m in zeros)
        assert compat._zero_pattern(system._order_test.all_orders(m), m) == expected, system
    # any map {b: primes of b} at any multiple m of its orders, such as a
    # subset of a system's orders at a multiple of g, or orders made up
    # here: bit t is set exactly when m / gcd(t, m) is one of them
    rng = random.Random(17)
    for system in rng.sample(systems, 300):
        g = system._order_test.reach(system.modulus)
        orders = {b: primes for b, primes in system._order_test.all_orders(system.modulus).items() if rng.random() < 0.5}
        made = {b: sorted(factorize(b)) for b in divisors(g * 6)[1:] if rng.random() < 0.3}
        for chosen, m in ((orders, g * rng.randint(1, 4)), (made, g * 6)):
            expected = sum(1 << t for t in range(2 * m) if m // math.gcd(t, m) in chosen)
            assert compat._zero_pattern(chosen, m) == expected, (system, chosen, m)


def test_clique_walk_matches_combinations_in_order():
    # the walk against brute force on seeded patterns: every `size` bits of
    # the vertices joined pairwise, x < y when bit y - x of the pattern is
    # set, in the lexicographic order of `itertools.combinations`
    rng = random.Random(23)
    for _ in range(200):
        period = rng.randint(1, 24)
        zeros = [t for t in range(period) if rng.random() < 0.6]
        period_bits = sum(1 << t for t in zeros)
        pattern = period_bits << period | period_bits
        width = rng.randint(1, 2 * period)
        vertices = sum(1 << x for x in range(width) if rng.random() < 0.7)
        bits = [x for x in range(width) if vertices >> x & 1]
        for size in range(5):
            expected = [
                combo for combo in itertools.combinations(bits, size)
                if all(pattern >> (y - x) & 1 for x, y in itertools.combinations(combo, 2))
            ]
            assert list(compat._cliques(vertices, pattern, size)) == expected, (pattern, vertices, size)


def test_sum_of_squares_identity():
    # compatible pairs make sum_s |m_{D/N}(xi+s)|^2 identically 1;
    # rejected pairs must violate it somewhere by a visible margin
    rng = random.Random(5)
    for scale, digits, candidate in CERTIFIED_PAIRS:
        for _ in range(25):
            xi = rng.random()
            total = sum(
                abs(symbol_eval(digits, (xi + s) / scale)) ** 2 for s in candidate
            )
            assert abs(total - 1) < 1e-9
    for scale, digits, candidate in REJECTED_PAIRS:
        worst = 0.0
        for k in range(50):
            xi = k / 50
            total = sum(
                abs(symbol_eval(digits, (xi + s) / scale)) ** 2 for s in candidate
            )
            worst = max(worst, abs(total - 1))
        assert worst > 1e-6


def brute_force_window_candidates(system):
    """Independent numeric search: all window subsets passing unitarity."""
    m = system.modulus
    window = range(2 - m, m - 1)
    out = []
    for combo in itertools.combinations(window, system.size):
        if 0 not in combo:
            continue
        if unitarity_defect(system.scale, system.digits, combo) < 1e-8:
            out.append(tuple(combo))
    return out


@pytest.mark.parametrize(
    "scale,digits",
    [
        (4, (0, 1)),
        (3, (0, 2)),
        (6, (0, 1, 2)),
        (5, (0, 1, 2, 3, 4)),
        (-4, (0, 1)),
        (8, (0, 1, 4, 5)),
        (9, (0, 1, 2)),
        (-6, (0, 1, 2)),
        (12, (0, 1, 2)),
        (7, (3,)),  # |D| = 1: only {0}
        (3, (0, 1, 2, 3)),  # |D| > 2|N| - 3: the window is too small
    ],
)
def test_search_matches_brute_force(scale, digits):
    system = ScaleDigitSystem(scale, digits)
    found = [cand.elements for cand in search_candidate_s(system)]
    assert found == brute_force_window_candidates(system)


def test_search_examples():
    assert [c.elements for c in search_candidate_s(ScaleDigitSystem(4, (0, 1)))] == [
        (-2, 0),
        (0, 2),
    ]
    assert search_candidate_s(ScaleDigitSystem(3, (0, 2))) == []
    found = [c.elements for c in search_candidate_s(ScaleDigitSystem(6, (0, 1, 2)))]
    # lexicographic order; contains both named spectra plus the dilated
    # window set (-4, 0, 4), which the numeric oracle certifies as well
    assert found == [(-4, -2, 0), (-4, 0, 4), (-2, 0, 2), (0, 2, 4)]
    assert (0, 2, 4) in found and (0, -2, 2) not in found  # -2 < 0 sorts first
    assert search_candidate_s(ScaleDigitSystem(7, (3,))) == [SpectrumCandidate((0,))]
    assert search_candidate_s(ScaleDigitSystem(3, (0, 1, 2, 3))) == []


# Differential check against the former search, kept here as the
# reference: extend partial sets over all 2|N|-3 window integers in
# ascending order, re-testing each new element against every chosen one.


def reference_search(system):
    m = system.modulus
    zeros = zero_residues(system)
    window = list(range(2 - m, m - 1))
    want = system.size
    found = []

    def extend(partial, start):
        if len(partial) == want:
            if 0 in partial:
                found.append(SpectrumCandidate(tuple(partial)))
            return
        for k in range(start, len(window)):
            if len(window) - k < want - len(partial):
                break
            e = window[k]
            if e > 0 and 0 not in partial:
                break  # elements ascend, so 0 can no longer be added
            if all((e - p) % m in zeros for p in partial):
                partial.append(e)
                extend(partial, k + 1)
                partial.pop()

    extend([], 0)
    return found


def test_search_matches_reference_exhaustively():
    small_digit_sets = [
        digits for size in range(1, 9) for digits in itertools.combinations(range(8), size)
    ]
    for modulus in range(3, 17):
        for scale in (modulus, -modulus):
            for digits in small_digit_sets:
                system = ScaleDigitSystem(scale, digits)
                assert search_candidate_s(system) == reference_search(system), (scale, digits)


@pytest.mark.parametrize(
    "scale,digits",
    [
        (360, (0, 3, 5, 7, 14, 22)),  # Łaba–Wang: a complete residue set mod 6
        (-384, (-5, 1, 8)),  # Łaba–Wang: a complete residue set mod 3
        (396, (0, 5, 10, 15)),  # Łaba–Wang: a complete residue set mod 4
        (330, (0, 17, 250, 411)),  # random digits
        (720, (0, 1)),  # g = 2: every zero a multiple of |N|/g = 360
        (-384, (0, 1, 2)),  # g = 12, |N|/g = 32
        (512, (0, 1, 2, 3)),  # g = 8, |N|/g = 64: a complete residue set mod 4
    ],
)
def test_search_matches_reference_census_sized(scale, digits):
    system = ScaleDigitSystem(scale, digits)
    found = search_candidate_s(system)
    assert found == reference_search(system)
    if abs(scale) % len(digits) == 0 and len({d % len(digits) for d in digits}) == len(digits):
        step = abs(scale) // len(digits)
        assert SpectrumCandidate(tuple(step * j for j in range(len(digits)))) in found


def test_search_budget_stops_one_result_past(monkeypatch):
    system = ScaleDigitSystem(6, (0, 1, 2))
    found = search_candidate_s(system)
    assert len(found) == 4
    monkeypatch.setattr(compat, "SEARCH_BUDGET", 4)
    assert search_candidate_s(system) == found
    monkeypatch.setattr(compat, "SEARCH_BUDGET", 3)
    with pytest.raises(BudgetExceededError):
        search_candidate_s(system)
    # the report streams candidates lazily and has no result budget
    monkeypatch.setattr(compat, "SEARCH_BUDGET", 0)
    assert report_measure_spectrality(system).candidate == found[0]


def test_search_budget_fails_fast_on_a_huge_window():
    # S = {0, a, b, c} with a, b, c in the three nonzero classes mod 4 of the
    # window: 200 * 199 * 199 = 7,920,200 candidates, gigabytes if materialised
    assert compat.SEARCH_BUDGET < 7_920_200
    with pytest.raises(BudgetExceededError):
        search_candidate_s(ScaleDigitSystem(400, (0, 100, 200, 300)))


def test_window_search_keys_its_zero_pattern_to_g_and_refuses_past_its_budget(monkeypatch):
    built = []
    build = compat._zero_pattern

    def recording(orders, g):
        built.append(g)
        return build(orders, g) if g < 1000 else 0  # no zeros past that: nothing of size g is built

    monkeypatch.setattr(compat, "_zero_pattern", recording)
    # g = 2: the window's zeros are the multiples of |N|/2, found on a 2-residue pattern
    system = ScaleDigitSystem(-(10**12), (0, 1))
    half = 10**12 // 2
    assert search_candidate_s(system) == [SpectrumCandidate((-half, 0)), SpectrumCandidate((0, half))]
    assert report_measure_spectrality(system).candidate == SpectrumCandidate((-half, 0))
    assert built == [2, 2]
    # D = {0, 1, |N|/2, |N|/2 + 1} has the difference |N|/2, so g = |N|
    dense = [ScaleDigitSystem(scale, (0, 1, abs(scale) // 2, abs(scale) // 2 + 1))
             for scale in (10**7, -(10**8), 11 * 10**7, -(10**9))]
    assert [system._order_test.reach(system.modulus) for system in dense] == [10**7, 10**8, 11 * 10**7, 10**9]
    for system in dense[:2]:
        assert search_candidate_s(system) == []
    assert built == [2, 2, 10**7, 10**8]
    for system in dense[2:]:
        for search in (search_candidate_s, report_measure_spectrality):
            with pytest.raises(BudgetExceededError) as caught:
                search(system)
            g = system.modulus
            assert f"zero pattern of period g = {g}, about {g + g // 4} bytes" in str(caught.value)
    assert built == [2, 2, 10**7, 10**8]


def test_window_search_refuses_past_its_work_budget(monkeypatch):
    # D = {0, 1, |N|/2, |N|/2 + 1}: g = |N| and the zeros are dense, so the
    # walk's work, about (2g + x)/8 bytes per node, grows with |N|^2.  At a
    # pattern budget of 2^12 bytes the walk may touch 2^15: |N| = 100
    # touches 20,342 bytes over 506 nodes and |N| = 200 about 84,000
    dense = {n: ScaleDigitSystem(n, (0, 1, n // 2, n // 2 + 1)) for n in (100, 200)}
    found = search_candidate_s(dense[100])
    assert len(found) == 192
    monkeypatch.setattr(compat, "_PATTERN_BUDGET", 1 << 12)
    assert search_candidate_s(dense[100]) == found
    with pytest.raises(BudgetExceededError) as caught:
        search_candidate_s(dense[200])
    assert str(caught.value) == (
        "the window search at |N| = 200, on zeros of period g = 200: the clique search touched 32835 bytes "
        "of its pattern in 432 nodes, over its work budget of 32768 bytes"
    )


def count_order_questions(monkeypatch):
    """Record each order asked of a system and each divisor whose class sum
    is taken."""
    asked, summed = [], []
    ask, squares = ScaleDigitSystem.is_vanishing_order, cyclotomic._class_squares

    def asking(system, b):
        asked.append(b)
        return ask(system, b)

    def summing(exponents, d):
        summed.append(d)
        return squares(exponents, d)

    monkeypatch.setattr(ScaleDigitSystem, "is_vanishing_order", asking)
    monkeypatch.setattr(cyclotomic, "_class_squares", summing)
    return asked, summed


def test_is_compatible_asks_each_distinct_order_once(monkeypatch):
    # S = 15 * {0, ..., 5} mod 90: its 15 differences have the orders 6, 3
    # and 2 only (differences 15 and 75, 30 and 60, 45).  The first, 6,
    # sums F(6), F(3) and F(2), which then answer 3 and 2 too
    asked, summed = count_order_questions(monkeypatch)
    system = ScaleDigitSystem(90, tuple(range(6)))
    cert = is_compatible(system, SpectrumCandidate(tuple(range(0, 90, 15))))
    assert cert is not None and len(cert.zero_differences) == 15
    assert sorted(asked) == [2, 3, 6] and sorted(summed) == [2, 3, 6]
    assert is_compatible(system, SpectrumCandidate(tuple(range(0, 90, 15)))) == cert
    assert len(summed) == 3  # the same system answers from its memo
    # the window search's batch sums only the divisors in reach (phi <= 5)
    # not summed yet
    assert system.vanishing_orders == frozenset({2, 3, 6})
    assert sorted(summed) == [2, 3, 5, 6, 10]
    # the same digits at |N| = 30 share the memo: S = 5 * {0, ..., 5} asks
    # the orders 6, 3 and 2 again, and the batch at 30 the same reach, so a
    # second system sums nothing the first summed
    other = ScaleDigitSystem(30, tuple(range(6)))
    assert other._order_test is system._order_test
    assert is_compatible(other, SpectrumCandidate(tuple(range(0, 30, 5)))) is not None
    assert other.vanishing_orders == frozenset({2, 3, 6})
    assert sorted(summed) == [2, 3, 5, 6, 10]


def spy_pair_walks(monkeypatch):
    """Record the elements of each walk over a candidate's pairs."""
    walks, walk = [], compat._zero_differences

    def walking(system, elems):
        walks.append(elems)
        return walk(system, elems)

    monkeypatch.setattr(compat, "_zero_differences", walking)
    return walks


def spy_certificates(monkeypatch):
    """Record the candidate of each certificate built."""
    built, init = [], compat.CompatibilityCertificate.__init__

    def building(self, system, candidate, zero_differences):
        built.append(candidate)
        init(self, system, candidate, zero_differences)

    monkeypatch.setattr(compat.CompatibilityCertificate, "__init__", building)
    return built


def test_construct_then_decide_walks_the_pairs_once(monkeypatch):
    walks, built = spy_pair_walks(monkeypatch), spy_certificates(monkeypatch)
    system = ScaleDigitSystem(-48, (0, 1, 2, 3, 8, 9, 10, 11))
    construction = construct_spectrum_set(system)
    assert built == [SpectrumCandidate(construction.result_s)]  # the construction's own certificate
    verdict = decide_spectrum(system, SpectrumCandidate(construction.result_s))
    assert verdict.spectral and walks == [construction.result_s]
    assert len(built) == 1  # the decision reads the slot's answer and builds no certificate
    # the report's certificate of a window candidate, then its decision
    report = report_measure_spectrality(ScaleDigitSystem(6, (0, 1, 2)))
    decide_spectrum(report.certificate.system, report.candidate)
    assert walks[1:] == [report.candidate.elements] and built[1:] == [report.candidate]


def test_the_certificate_slot_walks_again_only_for_new_elements_or_systems(monkeypatch):
    walks = spy_pair_walks(monkeypatch)
    system = ScaleDigitSystem(6, (0, 1, 2))
    first, other, apart = SpectrumCandidate((0, 2, 4)), SpectrumCandidate((-2, 0, 2)), SpectrumCandidate((0, 1, 2))
    cert = is_compatible(system, first)
    twin = SpectrumCandidate((0, 2, 4))
    again = is_compatible(system, twin)
    assert again == cert and again.system is system and again.candidate is twin and len(walks) == 1
    assert is_compatible(system, other) is not None and len(walks) == 2
    assert is_compatible(system, first) == cert and len(walks) == 3  # `other` took the slot
    assert is_compatible(ScaleDigitSystem(6, (0, 1, 2)), first) == cert and len(walks) == 4  # equal, not the same
    assert is_compatible(system, apart) is None and is_compatible(system, apart) is None and len(walks) == 5
    assert walks == [first.elements, other.elements, first.elements, first.elements, apart.elements]
    with pytest.raises(PreconditionError, match="compatible pairs only"):
        decide_spectrum(system, apart)  # the slot's None answers
    # the size check comes before the slot, filled or not, in both calls
    for filled in (first, apart):
        is_compatible(system, filled)
        with pytest.raises(PreconditionError, match=r"\|S\| = 2, \|D\| = 3"):
            is_compatible(system, SpectrumCandidate((0, 2)))
        with pytest.raises(PreconditionError, match=r"\|S\| = 4, \|D\| = 3"):
            decide_spectrum(system, SpectrumCandidate((0, 2, 4, 6)))
    assert len(walks) == 7


# decide_spectrum's refusals in the order it checks them: each case breaks
# its own precondition and every later one that it can, so a refusal moved
# after a later check would answer with the later text
DECIDE_REFUSALS = [
    ((6, (1, 2, 3)), (1, 2), 0, "cycle criterion requires 0 in D; canonicalize the digits first"),
    ((6, (0, 2, 4)), (1, 2), 0, "cycle criterion requires gcd(D) = 1, got gcd = 2"),
    ((6, (0, 1, 2)), (1, 2), 0, "cycle criterion requires 0 in S"),
    ((6, (0, 1, 2)), (0, 1), 0, "compatible pairs require |S| = |D|, got |S| = 2, |D| = 3"),
    ((6, (0, 1, 2)), (0, 1, 2), 0, "cycle criterion applies to compatible pairs only"),
    ((6, (0, 1, 2)), (0, 2, 4), 0, "range_factor must be a positive integer, got 0"),
    ((-6, (0, 1, 2)), (-2, 0, 2), True, "range_factor must be a positive integer, got True"),
]


@pytest.mark.parametrize("fill", ["empty", "the pair", "another pair"])
@pytest.mark.parametrize("system_args,elements,range_factor,text", DECIDE_REFUSALS)
def test_decide_keeps_its_refusals_and_builds_no_certificate(monkeypatch, system_args, elements, range_factor,
                                                              text, fill):
    system, candidate = ScaleDigitSystem(*system_args), SpectrumCandidate(elements)
    if fill == "the pair" and len(elements) == system.size:
        is_compatible(system, candidate)
    elif fill == "another pair":
        is_compatible(system, SpectrumCandidate(range(0, 2 * system.size, 2)))
    built = spy_certificates(monkeypatch)
    with pytest.raises(PreconditionError) as refusal:
        decide_spectrum(system, candidate, range_factor)
    assert str(refusal.value) == text and built == []
    if text.startswith("range_factor"):  # a compatible pair: at range_factor 1 it is decided, still with none
        assert decide_spectrum(system, candidate).spectral and built == []


def test_the_certificate_slot_leaves_value_semantics_alone():
    system, candidate = ScaleDigitSystem(6, (0, 1, 2)), SpectrumCandidate((0, 2, 4))
    cert = is_compatible(system, candidate)
    fresh = ScaleDigitSystem(6, (0, 1, 2))
    assert system == fresh and hash(system) == hash(fresh) and repr(system) == repr(fresh)
    assert dataclasses.asdict(system) == {"scale": 6, "digits": (0, 1, 2)}
    assert dataclasses.replace(system) == system
    assert dataclasses.replace(system, digits=(0, 1, 3)) == ScaleDigitSystem(6, (0, 1, 3))
    assert is_compatible(dataclasses.replace(system, digits=(0, 1, 3)), candidate) is None
    for clone in (pickle.loads(pickle.dumps(system)), copy.copy(system), copy.deepcopy(system)):
        assert clone == system and hash(clone) == hash(system) and repr(clone) == repr(system)
        assert is_compatible(clone, candidate) == cert and is_compatible(clone, candidate).system is clone
    for record in (cert, pickle.loads(pickle.dumps(cert)), copy.deepcopy(cert)):
        assert record == is_compatible(fresh, candidate) and repr(record) == repr(is_compatible(fresh, candidate))


def test_a_construction_and_its_verdict_leave_no_reference_cycle():
    # the slot holds ints and tuples, never the certificate that points back
    # at the system, so dropping the results frees the system on the spot
    enabled = gc.isenabled()
    gc.disable()
    try:
        system = ScaleDigitSystem(12, (0, 1, 2, 3, 4, 5))
        construction = construct_spectrum_set(system)
        verdict = decide_spectrum(system, SpectrumCandidate(construction.result_s))
        alive = weakref.ref(system)
        del construction, verdict, system
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


def test_one_system_answers_every_candidate_as_a_fresh_one_does():
    # each system of the exhaustive search is asked its window candidates and
    # a few other sets, one after another and each twice, and then the whole
    # sequence again, so a stale slot would answer for the wrong elements
    rng, answers = random.Random(46), {True: 0, False: 0}
    digit_sets = [digits for size in range(1, 9) for digits in itertools.combinations(range(8), size)]
    for modulus in range(3, 17):
        for scale in (modulus, -modulus):
            for digits in digit_sets:
                system = ScaleDigitSystem(scale, digits)
                size, window = len(digits), range(2 - modulus, modulus - 1)
                sequence = search_candidate_s(system)
                if size <= len(window):
                    sequence += [SpectrumCandidate(rng.sample(window, size)) for _ in range(3)]
                if size > 1:
                    sequence.append(SpectrumCandidate(range(size)))
                for candidate in sequence + sequence:
                    expected = is_compatible(ScaleDigitSystem(scale, digits), candidate)
                    assert is_compatible(system, candidate) == expected, (scale, digits, candidate)
                    assert is_compatible(system, candidate) == expected, (scale, digits, candidate)
                    answers[expected is not None] += 1
    assert answers[True] > 9_000 and answers[False] > 9_000


def test_search_answers_the_degenerate_window():
    # at |N| = 2 the window is {0}: the point mass has (0,), larger digit sets nothing
    for scale in (2, -2):
        for digits, expected in [((0,), [(0,)]), ((5,), [(0,)]), ((0, 1), []), ((0, 3), []), ((0, 1, 2), [])]:
            found = search_candidate_s(ScaleDigitSystem(scale, digits))
            assert [candidate.elements for candidate in found] == expected, (scale, digits)


def test_reduce_examples():
    assert reduce_s(6, SpectrumCandidate((0, 4, 8))).elements == (0, 2, 4)
    assert reduce_s(4, SpectrumCandidate((0, 6))).elements == (0, 2)
    assert reduce_s(9, SpectrumCandidate((0,))).elements == (0,)


def test_reduce_errors():
    with pytest.raises(PreconditionError):
        reduce_s(4, SpectrumCandidate((0, 4)))  # repeated residue
    with pytest.raises(PreconditionError):
        reduce_s(4, SpectrumCandidate((1, 2)))  # 0 not in S
    with pytest.raises(PreconditionError):
        reduce_s(2, SpectrumCandidate((0, 1)))  # degenerate window


def test_reduce_preserves_compatibility():
    for scale, digits, candidate in CERTIFIED_PAIRS:
        if abs(scale) < 3 or 0 not in candidate:
            continue
        system = ScaleDigitSystem(scale, digits)
        reduced = reduce_s(scale, SpectrumCandidate(candidate))
        assert is_compatible(system, reduced) is not None
        assert all(2 - abs(scale) <= r <= abs(scale) - 2 for r in reduced.elements)
        assert {r % abs(scale) for r in reduced.elements} == {
            s % abs(scale) for s in candidate
        }
        assert unitarity_defect(scale, digits, reduced.elements) < 1e-10


def test_pair_power_identity_and_examples():
    system = ScaleDigitSystem(4, (0, 1))
    candidate = SpectrumCandidate((0, 2))
    assert pair_power(system, candidate, 1) == ((0, 1), (0, 2))
    assert pair_power(system, candidate, 2) == ((0, 1, 4, 5), (0, 2, 8, 10))

    def expansion_oracle(base, scale, k):
        return tuple(
            sorted(
                {
                    sum(c * scale**j for j, c in enumerate(combo))
                    for combo in itertools.product(base, repeat=k)
                }
            )
        )

    system6 = ScaleDigitSystem(6, (0, 1, 2))
    cand6 = SpectrumCandidate((0, 2, 4))
    digits_2, elements_2 = pair_power(system6, cand6, 2)
    assert digits_2 == expansion_oracle((0, 1, 2), 6, 2)
    assert elements_2 == expansion_oracle((0, 2, 4), 6, 2)
    assert digits_2 == (0, 1, 2, 6, 7, 8, 12, 13, 14)
    assert elements_2 == (0, 2, 4, 12, 14, 16, 24, 26, 28)


def test_pair_power_certified_at_powered_scale():
    # the power is not re-checked at run time: here the first six certified
    # pairs and every window candidate of every D in [0, 5] at 3 <= |N| <= 12
    # are, at k = 2 and 3, certified at N^k, and the halves of each power
    # are lambda_enumerate's slices
    pairs = [(ScaleDigitSystem(n, digits), SpectrumCandidate(cand)) for n, digits, cand in CERTIFIED_PAIRS[:6]]
    for size in range(1, 7):
        for digits in itertools.combinations(range(6), size):
            for scale in (*range(3, 13), *range(-12, -2)):
                system = ScaleDigitSystem(scale, digits)
                pairs += [(system, candidate) for candidate in search_candidate_s(system)]
    assert len(pairs) == 6 + 1048
    for system, candidate in pairs:
        for k in (2, 3):
            digits_k, elements_k = pair_power(system, candidate, k)
            powered = ScaleDigitSystem(system.scale**k, digits_k)
            assert is_compatible(powered, SpectrumCandidate(elements_k)) is not None, (system, candidate, k)
            assert digits_k == compat.lambda_enumerate(system.scale, SpectrumCandidate(system.digits), k)
            assert elements_k == compat.lambda_enumerate(system.scale, candidate, k)


def test_pair_power_checks_only_its_input_pair(monkeypatch):
    # the power walks the pairs of S alone and draws no order memo of D_k,
    # which in a full cache would evict one that the process was using
    walked = []
    zero_differences = compat._zero_differences

    def spying(system, elems):
        walked.append((system, elems))
        return zero_differences(system, elems)

    monkeypatch.setattr(compat, "_zero_differences", spying)
    system, candidate = ScaleDigitSystem(4, (0, 1)), SpectrumCandidate((0, 2))
    cyclotomic._order_memo(system.digits)
    assert cyclotomic._order_memo.cache_info().currsize == 1
    assert len(pair_power(system, candidate, 5)[1]) == 32
    assert walked == [(system, (0, 2))]
    assert cyclotomic._order_memo.cache_info().currsize == 1


def test_pair_power_factorizes_only_the_orders_it_asks(monkeypatch):
    # former cliff: every divisor 2^j of 4^k was factorised by trial division
    calls = []
    factorize = cyclotomic.factorize

    def counting(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(cyclotomic, "factorize", counting)
    k = 300
    digits_k, elements_k = pair_power(ScaleDigitSystem(4, (0,)), SpectrumCandidate((5,)), k)
    assert digits_k == (0,) and elements_k == (5 * (4**k - 1) // 3,)
    # a one-element pair has no difference, so no order is asked
    assert calls == []
    # each memo trial-divides each prime once, and never its scale or g.
    # The base pair asks 2, once for both powers; the powered pairs are not
    # re-checked, so their orders 8 and 32 are never asked
    calls.clear()
    system, candidate = ScaleDigitSystem(4, (0, 1)), SpectrumCandidate((0, 2))
    for k in (2, 3):
        pair_power(system, candidate, k)
    assert calls == [2]
    # a new system with the same digits draws the same memo, which has found the prime
    pair_power(ScaleDigitSystem(4, (0, 1)), candidate, 3)
    assert calls == [2]


def test_orders_sharing_a_large_prime_trial_divide_it_once(monkeypatch):
    # q = 10^12 + 39 is prime; S = {0, 1, 2, 3} asks the orders 4q and 2q
    # of (4q, {0, q, 2q, 3q}).  The second reads q from the primes the
    # first found, so q is trial-divided once
    q = 10**12 + 39
    calls = []
    factorize = cyclotomic.factorize

    def counting(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(cyclotomic, "factorize", counting)
    system = ScaleDigitSystem(4 * q, (0, q, 2 * q, 3 * q))
    assert is_compatible(system, SpectrumCandidate((0, 1, 2, 3))) is not None
    assert system._order_test.known == {4 * q: True, 2 * q: True}
    assert [n for n in calls if n % q == 0] == [4 * q]


def test_pair_power_preconditions():
    with pytest.raises(PreconditionError):
        pair_power(ScaleDigitSystem(3, (0, 2)), SpectrumCandidate((0, 1)), 2)
    # no pair of the power is re-checked, so only the slices' points bound it:
    # 2^19 one-word points pass, 2^20 > 10^6 do not
    assert len(pair_power(ScaleDigitSystem(4, (0, 1)), SpectrumCandidate((0, 2)), 11)[1]) == 2048
    assert len(pair_power(ScaleDigitSystem(4, (0, 1)), SpectrumCandidate((0, 2)), 19)[0]) == 2**19
    with pytest.raises(BudgetExceededError, match=r"\|S\|\^depth = 2\^20 exceeds the enumeration budget 1000000"):
        pair_power(ScaleDigitSystem(4, (0, 1)), SpectrumCandidate((0, 2)), 20)
    with pytest.raises(BudgetExceededError):
        pair_power(ScaleDigitSystem(4, (0, 1)), SpectrumCandidate((0, 2)), 10**9)
    assert pair_power(ScaleDigitSystem(4, (0,)), SpectrumCandidate((5,)), 60)[0] == (0,)


def test_pair_power_checks_its_budget_once(monkeypatch):
    # the power builds both slices itself after its own checks, so one call
    # reads the slice guard once, for the larger slice, not once more per
    # slice, and its slices are those of lambda_enumerate
    calls = []
    check = compat._check_slice

    def counting(*args):
        calls.append(args)
        check(*args)

    monkeypatch.setattr(compat, "_check_slice", counting)
    for scale, digits, candidate in CERTIFIED_PAIRS:
        system, cand = ScaleDigitSystem(scale, digits), SpectrumCandidate(candidate)
        largest = max(map(abs, digits + candidate))
        for k in (1, 2, 3):
            calls.clear()
            digits_k, elements_k = pair_power(system, cand, k)
            assert calls == [(scale, len(digits), largest, k)], (scale, digits, candidate, k)
            assert digits_k == compat.lambda_enumerate(scale, SpectrumCandidate(digits), k)
            assert elements_k == compat.lambda_enumerate(scale, cand, k)


@pytest.mark.parametrize("scale", [3, -3])
def test_single_point_powers_are_refused_past_the_bit_budget(scale):
    # N^k for the point masses {0} was formed with no estimate: 5.5 s at
    # N = 3, k = 1.6 * 10^7.  A one-point slice with s != 0 is refused past
    # LAMBDA_BUDGET bits before N^k is formed; the slices of {0} need no power
    k = 16 * 10**6
    assert pair_power(ScaleDigitSystem(scale, (0,)), SpectrumCandidate((0,)), k) == ((0,), (0,))
    with pytest.raises(BudgetExceededError, match=r"N\^16000000 has about 25359400 bits, over the budget 1000000"):
        pair_power(ScaleDigitSystem(scale, (1,)), SpectrumCandidate((5,)), k)
    with pytest.raises(BudgetExceededError, match=r"N\^16000000 has about 25359400 bits"):
        pair_power(ScaleDigitSystem(scale, (0,)), SpectrumCandidate((5,)), k)
    with pytest.raises(BudgetExceededError, match="25359400 bits"):
        compat.lambda_enumerate(scale, SpectrumCandidate((5,)), k)
    assert compat.lambda_enumerate(scale, SpectrumCandidate((0,)), k) == (0,)


def test_the_bit_budget_admits_powers_up_to_it(monkeypatch):
    # 2^100 has 101 bits: the estimate k * log2|N| = 100 stays within a
    # budget of 100 and 101 does not
    monkeypatch.setattr(compat.systems, "LAMBDA_BUDGET", 100)
    assert compat.lambda_enumerate(2, SpectrumCandidate((1,)), 100) == (2**100 - 1,)
    assert pair_power(ScaleDigitSystem(-2, (0,)), SpectrumCandidate((3,)), 100) == ((0,), (-(2**100 - 1),))
    with pytest.raises(BudgetExceededError, match=r"N\^101 has about 101 bits"):
        compat.lambda_enumerate(2, SpectrumCandidate((1,)), 101)
    with pytest.raises(BudgetExceededError, match=r"N\^101 has about 101 bits"):
        pair_power(ScaleDigitSystem(-2, (0,)), SpectrumCandidate((3,)), 101)


def test_big_integer_slices_are_bounded_by_their_words():
    # a point of the depth-13 slice of {0, 1} at N = 10^239, of 794 bits,
    # may take 1 + (1 + 12 * 794) // 64 = 149 words: 2^13 * 149 points
    # and words pass the budget, while depth 12 holds 2^12 * 137
    scale, candidate = 10**239, SpectrumCandidate((0, 1))
    assert len(compat.lambda_enumerate(scale, candidate, 12)) == 2**12
    with pytest.raises(BudgetExceededError, match=r"2\^13 \* 149 = 1220608 exceeds the enumeration budget 1000000"):
        compat.lambda_enumerate(scale, candidate, 13)
    # at N = 10^400, of 1329 bits, with S = {0, N/2}: k = 11 takes 2^11 * 229,
    # k = 12 would take 2^12 * 250
    system, candidate = ScaleDigitSystem(10**400, (0, 1)), SpectrumCandidate((0, 5 * 10**399))
    digits_k, elements_k = pair_power(system, candidate, 11)
    assert digits_k[-1] == (10**4400 - 1) // (10**400 - 1) and elements_k[-1] == 5 * 10**399 * digits_k[-1]
    assert len(digits_k) == len(elements_k) == 2**11
    with pytest.raises(BudgetExceededError, match=r"2\^12 \* 250 = 1024000 exceeds"):
        pair_power(system, candidate, 12)


@given(
    shift_d=st.integers(-3, 3),
    shift_s=st.integers(-7, 7),
    pair=st.sampled_from(CERTIFIED_PAIRS + REJECTED_PAIRS),
)
def test_translation_invariance(shift_d, shift_s, pair):
    scale, digits, candidate = pair
    system = ScaleDigitSystem(scale, digits)
    base = is_compatible(system, SpectrumCandidate(candidate)) is not None
    moved_system = ScaleDigitSystem(scale, tuple(d + scale * shift_d for d in digits))
    moved_candidate = SpectrumCandidate(tuple(s + shift_s for s in candidate))
    assert (is_compatible(moved_system, moved_candidate) is not None) == base


@given(
    index=st.integers(0, 5),
    step=st.integers(-4, 4),
    pair=st.sampled_from(CERTIFIED_PAIRS + REJECTED_PAIRS),
)
def test_residue_invariance(index, step, pair):
    scale, digits, candidate = pair
    elems = list(candidate)
    i = index % len(elems)
    elems[i] += scale * step
    if len(set(elems)) != len(elems):
        return
    system = ScaleDigitSystem(scale, digits)
    base = is_compatible(system, SpectrumCandidate(candidate)) is not None
    assert (is_compatible(system, SpectrumCandidate(tuple(elems))) is not None) == base
