import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cantorspec import (
    BudgetExceededError,
    PreconditionError,
    ScaleDigitSystem,
    SpectrumCandidate,
    compat,
    is_compatible,
    pair_power,
    reduce_s,
    report_measure_spectrality,
    search_candidate_s,
)
from cantorspec import cyclotomic
from oracles import symbol_eval, zero_residues

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
        assert compat._zero_pattern(system._order_test, m) == expected, system


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


def test_window_search_refuses_an_oversized_zero_pattern_before_building_it(monkeypatch):
    built = []

    def recording(orders, m):
        built.append(m)
        return 0  # no zeros, so no candidates: nothing of size |N| is built

    monkeypatch.setattr(compat, "_zero_pattern", recording)
    for scale in (10**7, -(10**8)):
        assert search_candidate_s(ScaleDigitSystem(scale, (0, 1))) == []
    assert built == [10**7, 10**8]
    for scale in (11 * 10**7, -(10**9)):
        system = ScaleDigitSystem(scale, (0, 1))
        for search in (search_candidate_s, report_measure_spectrality):
            with pytest.raises(BudgetExceededError) as caught:
                search(system)
            estimate = abs(scale) + abs(scale) // 4
            assert f"zero pattern of about {estimate} bytes" in str(caught.value)
    assert built == [10**7, 10**8]


def count_order_questions(monkeypatch):
    """Record each order asked of a system and each order tested exactly."""
    asked, tested = [], []
    ask, divides = ScaleDigitSystem.is_vanishing_order, cyclotomic._order_divides

    def asking(system, b):
        asked.append(b)
        return ask(system, b)

    def testing(terms, b, primes):
        tested.append(b)
        return divides(terms, b, primes)

    monkeypatch.setattr(ScaleDigitSystem, "is_vanishing_order", asking)
    monkeypatch.setattr(cyclotomic, "_order_divides", testing)
    return asked, tested


def test_is_compatible_asks_each_distinct_order_once(monkeypatch):
    # S = 15 * {0, ..., 5} mod 90: its 15 differences have the orders 6, 3
    # and 2 only (differences 15 and 75, 30 and 60, 45)
    asked, tested = count_order_questions(monkeypatch)
    system = ScaleDigitSystem(90, tuple(range(6)))
    cert = is_compatible(system, SpectrumCandidate(tuple(range(0, 90, 15))))
    assert cert is not None and len(cert.zero_differences) == 15
    assert sorted(asked) == [2, 3, 6] and sorted(tested) == [2, 3, 6]
    assert is_compatible(system, SpectrumCandidate(tuple(range(0, 90, 15)))) == cert
    assert len(tested) == 3  # the same system answers from its memo
    # the window search's batch tests only the orders in reach (phi <= 5)
    # not yet asked
    assert system.vanishing_orders == frozenset({2, 3, 6})
    assert sorted(tested) == [2, 3, 5, 6, 10]


def test_search_rejects_degenerate_window():
    with pytest.raises(PreconditionError):
        search_candidate_s(ScaleDigitSystem(2, (0, 1)))


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
    for scale, digits, candidate in CERTIFIED_PAIRS[:6]:
        system = ScaleDigitSystem(scale, digits)
        for k in (2, 3):
            digits_k, elements_k = pair_power(system, SpectrumCandidate(candidate), k)
            powered = ScaleDigitSystem(scale**k, digits_k)
            assert is_compatible(powered, SpectrumCandidate(elements_k)) is not None


def test_pair_power_factorizes_each_scale_once(monkeypatch):
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
    # the re-checks ask orders 2, 4, 8, ... of the powered scales: each
    # system factorises its g = gcd(|N|, lcm(1..|D|) * lcm of differences)
    # once, the base system once for both powers, and never an order.  The
    # base g is gcd(4, 2 * 1) = 2; the powered digits differ by 4 and 16
    calls.clear()
    system, candidate = ScaleDigitSystem(4, (0, 1)), SpectrumCandidate((0, 2))
    for k in (2, 3):
        pair_power(system, candidate, k)
    assert calls == [2, 16, 64]


def test_pair_power_preconditions():
    with pytest.raises(PreconditionError):
        pair_power(ScaleDigitSystem(3, (0, 2)), SpectrumCandidate((0, 1)), 2)
    with pytest.raises(BudgetExceededError):
        pair_power(ScaleDigitSystem(4, (0, 1)), SpectrumCandidate((0, 2)), 20)  # 2^20 > 10^6
    # the re-check tests C(2^k, 2) pairs: 523,776 at k = 10, 2,096,128 at k = 11
    assert len(pair_power(ScaleDigitSystem(4, (0, 1)), SpectrumCandidate((0, 2)), 10)[1]) == 1024
    with pytest.raises(BudgetExceededError, match="2096128 pairs"):
        pair_power(ScaleDigitSystem(4, (0, 1)), SpectrumCandidate((0, 2)), 11)
    with pytest.raises(BudgetExceededError):
        pair_power(ScaleDigitSystem(4, (0, 1)), SpectrumCandidate((0, 2)), 10**9)
    # one-element pairs have no pairs to re-check
    assert pair_power(ScaleDigitSystem(4, (0,)), SpectrumCandidate((5,)), 60)[0] == (0,)


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
