import cmath
import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from cantorspec import (
    BudgetExceededError,
    ConsistencyError,
    PreconditionError,
    STATUS_SPECTRAL,
    ScaleDigitSystem,
    SpectrumCandidate,
    construct_spectrum_set,
    decide_spectrum,
    find_modulus_l,
    is_compatible,
    is_complementing,
    lambda_enumerate,
    pair_power,
    reduce_s,
    report_measure_spectrality,
)
from cantorspec import cyclotomic, systems, tiling
from cantorspec.cyclotomic import OrderTest, factorize
from oracles import divisors, prime_power_sets, radical, symbol_vanishes_at

CONSTRUCTION_CASES = [
    (4, (0, 2), (0, 1)),
    (4, (0, 1, 2, 3), (0, 1, 2, 3)),
    (6, (0, 1, 2, 3, 4, 5), (0, 2, 3, 4, 5, 7)),
    (16, (0, 1, 8, 9), (0, 1, 8, 9)),
    (8, (0, 1, 2, 3), (0, 2, 4, 6)),
    (12, (0, 1, 2, 3, 4, 5), (0, 4, 6, 8, 10, 14)),
]


def assert_exact_cover(digits, complement, modulus):
    assert list(complement) == sorted(set(complement)) and 0 <= complement[0] <= complement[-1] < modulus
    counts = Counter((d + e) % modulus for d in digits for e in complement)
    assert set(counts) == set(range(modulus))
    assert all(v == 1 for v in counts.values())


def test_is_complementing_examples():
    assert is_complementing((0, 1, 2, 3), 4) == (0,)
    assert is_complementing((0, 2), 3) is None
    complement = is_complementing((0, 1, 8, 9), 16)
    assert complement == (0, 2, 4, 6)
    assert_exact_cover((0, 1, 8, 9), complement, 16)


def test_is_complementing_cardinality():
    for digits, modulus in [((0, 1), 2), ((0, 2), 4), ((0, 1, 8, 9), 16), ((0, 3), 6)]:
        complement = is_complementing(digits, modulus)
        if complement is not None:
            assert len(complement) == modulus // len(digits)
            assert_exact_cover(digits, complement, modulus)


def test_is_complementing_rejects_colliding_digits():
    assert is_complementing((0, 4), 4) is None
    assert is_complementing((0, 2), 2) is None


def reference_is_complementing(digits, modulus):
    """The former recursive backtracking search, kept as the reference: one
    Python frame per chosen translate, so it stops at the recursion limit."""
    digs = tuple(digits)
    if modulus % len(digs) != 0 or len({d % modulus for d in digs}) != len(digs):
        return None
    covered = [False] * modulus
    chosen = []

    def search():
        try:
            u = covered.index(False)
        except ValueError:
            return True
        for e in sorted({(u - d) % modulus for d in digs}):
            shifts = [(d + e) % modulus for d in digs]
            if any(covered[t] for t in shifts):
                continue
            for t in shifts:
                covered[t] = True
            chosen.append(e)
            if search():
                return True
            chosen.pop()
            for t in shifts:
                covered[t] = False
        return False

    return tuple(sorted(chosen)) if search() else None


def test_is_complementing_matches_recursive_reference():
    # |D| = 6 has two primes, so (T2) decides some of these pairs.  The
    # product complement need not be the search's first one, so it is
    # checked by its cover
    for size, top in [(1, 16), (2, 16), (3, 16), (4, 16), (6, 13)]:
        for rest in itertools.combinations(range(1, top), size - 1):
            digits = (0, *rest)
            for modulus in range(1, 25):
                expected = reference_is_complementing(digits, modulus)
                complement = is_complementing(digits, modulus)
                assert (complement is None) == (expected is None), (digits, modulus)
                if complement is not None:
                    assert_exact_cover(digits, complement, modulus)
                    assert len(complement) == modulus // size


def test_product_complement_covers_exactly_when_the_search_finds_one():
    # every D in [0, 15] with 0 in D and |D| <= 6 (so at most two primes) at
    # every L <= 48: where (T1) and (T2) hold the product complement covers
    # Z_L, and the search finds a complement exactly there
    differ = 0
    for size in range(1, 7):
        for rest in itertools.combinations(range(1, 16), size - 1):
            digits = (0, *rest)
            for modulus in range(1, 49):
                if len({d % modulus for d in digits}) != size:
                    continue  # no complement: is_complementing refuses before either
                powers = tiling._tiling_powers(factorize(size), modulus, OrderTest(digits))
                if modulus % size:
                    assert powers is None, (digits, modulus)  # the search could run long here
                    continue
                found = tiling._search_complement(digits, modulus)
                explicit = None if powers is None else tiling._complement(powers, modulus, digits)
                assert (explicit is None) == (found is None), (digits, modulus)
                if explicit is not None:
                    assert_exact_cover(digits, explicit, modulus)
                    differ += explicit != found
    assert differ == 285  # of 3291 tiles, where the product is not the search's first complement


def test_find_modulus_l_examples():
    assert find_modulus_l(ScaleDigitSystem(4, (0, 2))) == 4
    assert find_modulus_l(ScaleDigitSystem(2, (0, 1))) == 2
    assert find_modulus_l(ScaleDigitSystem(16, (0, 1, 8, 9))) == 16
    assert find_modulus_l(ScaleDigitSystem(4, (0, 1, 2))) is None  # 3 does not divide 4
    assert find_modulus_l(ScaleDigitSystem(-4, (0, 2))) == 4


@pytest.mark.parametrize("scale,digits", [(8192, (0, 4096)), (16, (0, 1, 8, 9)), (-12, (0, 1, 2))])
def test_construction_never_searches(monkeypatch, scale, digits):
    def refuse(digs, modulus):
        raise AssertionError("the construction searched for a complement")

    monkeypatch.setattr(tiling, "_search_complement", refuse)
    construction = construct_spectrum_set(ScaleDigitSystem(scale, digits))
    assert_exact_cover(digits, construction.complement_e0, construction.modulus_l)
    assert construction.complement_e0 == is_complementing(digits, construction.modulus_l)


@pytest.mark.parametrize(
    "scale,digits",
    [(s, d) for s, d, _ in CONSTRUCTION_CASES] + [(-8640, (0, 1, 2, 6, 7, 8)), (2592, (0, 9, 18, 27))],
)
def test_construction_reads_prime_powers_from_the_vanishing_orders(monkeypatch, scale, digits):
    # the reference asks a cold memo of its own, so that the construction
    # cannot read back answers the reference left in the shared one
    system = ScaleDigitSystem(scale, digits)
    system.__dict__["_order_test"] = OrderTest(system.digits)
    reference, fractional = reference_construct_spectrum_set(system)
    expected = (reference.p_powers, reference.q_powers), system.vanishing_orders
    summed = record_class_sums(monkeypatch)
    fresh = ScaleDigitSystem(scale, digits)
    construction = construct_spectrum_set(fresh)
    assert (construction.p_powers, construction.q_powers) == expected[0]
    assert construction.fractional_e == fractional
    assert len(summed) == len(set(summed))  # the digits' memo sums each divisor once
    # the batch sums the rest of the reach and nothing twice, so every
    # divisor summed lies in the reach: the b > 1 dividing g with phi(b) <= s
    orders = fresh.vanishing_orders
    g, span = fresh._order_test.reach(fresh.modulus), fresh._order_test.span
    primes = factorize(g)
    reach = [b for b in divisors(g)[1:] if b // radical(b) * math.prod(p - 1 for p in primes if b % p == 0) <= span]
    assert sorted(summed) == reach
    assert orders == expected[1]

    # a second system with these digits draws the same memo, builds no
    # order test, and its construction and batch sum nothing again
    def refuse(*args):
        raise AssertionError("an order test was built twice for one digit set")

    monkeypatch.setattr(cyclotomic, "OrderTest", refuse)
    mirrored = ScaleDigitSystem(-scale, digits)
    construction = construct_spectrum_set(mirrored)
    assert mirrored._order_test is fresh._order_test
    assert (construction.p_powers, construction.q_powers) == expected[0]
    assert mirrored.vanishing_orders == orders
    assert sorted(summed) == reach


def test_construction_prime_powers_examples():
    for scale, digits, expected in [
        (4, (0, 2), ((4,), ())),
        (4, (0, 1, 2, 3), ((2, 4), ())),
        (6, (0, 1, 2, 3, 4, 5), ((2,), (3,))),
    ]:
        construction = construct_spectrum_set(ScaleDigitSystem(scale, digits))
        assert (construction.p_powers, construction.q_powers) == expected


def test_construction_refuses_three_primes_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("a three-prime |D| reached the tiling test")

    monkeypatch.setattr(tiling, "_search_complement", refuse)
    monkeypatch.setattr(ScaleDigitSystem, "vanishing_orders", property(refuse))
    monkeypatch.setattr(ScaleDigitSystem, "is_vanishing_order", refuse)
    monkeypatch.setattr(ScaleDigitSystem, "_order_test", property(refuse))
    system = ScaleDigitSystem(30, tuple(range(30)))
    message = "|D| = 30 has 3 distinct prime factors; the construction covers at most two"
    for build in (construct_spectrum_set, find_modulus_l):
        with pytest.raises(PreconditionError) as caught:
            build(system)
        assert str(caught.value) == message


@pytest.mark.parametrize(
    "digits,modulus",
    [
        ((0, 96), 200),  # (T1): Phi_2, Phi_4 and Phi_8 each leave 1 + z^96 at 2
        ((0, 1, 2, 5), 4),  # (T1): |D| = 4 needs two powers of 2, only Phi_2 divides
        ((0, 1, 2, 3, 5, 7), 12),  # (T2): Phi_4 and Phi_3 divide, Phi_12 does not
    ],
)
def test_is_complementing_refutes_without_a_search(monkeypatch, digits, modulus):
    def refuse(digs, modulus):
        raise AssertionError("a refuted set was searched")

    monkeypatch.setattr(tiling, "_search_complement", refuse)
    assert is_complementing(digits, modulus) is None


def test_is_complementing_searches_three_primes(monkeypatch):
    calls = []
    search = tiling._search_complement

    def counting(digs, modulus):
        calls.append(modulus)
        return search(digs, modulus)

    monkeypatch.setattr(tiling, "_search_complement", counting)
    assert is_complementing(tuple(range(30)), 30) == (0,)
    assert calls == [30]


@pytest.mark.parametrize("scale,digits,expected_s", CONSTRUCTION_CASES)
def test_construct_spectrum_set(scale, digits, expected_s):
    system = ScaleDigitSystem(scale, digits)
    construction = construct_spectrum_set(system)
    assert construction.result_s == expected_s
    assert is_compatible(system, SpectrumCandidate(construction.result_s)) is not None
    assert len(construction.fractional_e) == len(digits)
    assert_exact_cover(digits, construction.complement_e0, construction.modulus_l)
    # |E0| equals L / |D|
    assert len(construction.complement_e0) == construction.modulus_l // len(digits)
    # every pairwise difference of the fractional set kills the symbol, exactly
    for i, left in enumerate(construction.fractional_e):
        for right in construction.fractional_e[i + 1 :]:
            assert symbol_vanishes_at(digits, left - right)
            mag = abs(
                sum(cmath.exp(-2j * math.pi * d * float(left - right)) for d in digits)
            ) / len(digits)
            assert mag < 1e-9
    # result elements distinct modulo N
    residues = {s % abs(scale) for s in construction.result_s}
    assert len(residues) == len(construction.result_s)


def test_construct_known_fractional_sets():
    construction = construct_spectrum_set(ScaleDigitSystem(4, (0, 2)))
    assert construction.fractional_e == (Fraction(0), Fraction(1, 4))
    assert construction.p_powers == (4,)
    construction = construct_spectrum_set(ScaleDigitSystem(6, (0, 1, 2, 3, 4, 5)))
    assert construction.fractional_e == (
        Fraction(0),
        Fraction(1, 3),
        Fraction(1, 2),
        Fraction(2, 3),
        Fraction(5, 6),
        Fraction(7, 6),
    )
    assert (construction.p_powers, construction.q_powers) == ((2,), (3,))


def test_construct_rejects_non_complementing():
    with pytest.raises(PreconditionError):
        construct_spectrum_set(ScaleDigitSystem(4, (0, 1, 2)))
    with pytest.raises(PreconditionError):
        construct_spectrum_set(ScaleDigitSystem(3, (0, 2)))


def test_construct_negative_scale():
    construction = construct_spectrum_set(ScaleDigitSystem(-4, (0, 2)))
    assert construction.result_s == (-1, 0)
    system = ScaleDigitSystem(-4, (0, 2))
    assert is_compatible(system, SpectrumCandidate(construction.result_s)) is not None


@pytest.mark.parametrize(
    "scale,digits",
    [(-4, (0, 2)), (-24, (0, 3, 12, 15)), (24, (0, 3, 12, 15)), (-8640, (0, 1, 2, 6, 7, 8)), (-5, (7,))],
)
def test_fractional_e_is_the_sorted_quotients(scale, digits):
    construction = construct_spectrum_set(ScaleDigitSystem(scale, digits))
    expected = tuple(sorted(Fraction(s, scale) for s in construction.result_s))
    assert construction.fractional_e == expected
    assert repr(construction.fractional_e) == repr(expected)


@pytest.mark.parametrize("scale,digits", [(24, (0, 3, 12, 15)), (-24, (0, 3, 12, 15)), (-8640, (0, 1, 2, 6, 7, 8))])
def test_construction_builds_no_fraction(monkeypatch, scale, digits):
    def refuse(*args):
        raise AssertionError("the construction built a Fraction")

    with monkeypatch.context() as patch:
        patch.setattr(tiling, "Fraction", refuse)
        construction = construct_spectrum_set(ScaleDigitSystem(scale, digits))
    assert construction.fractional_e == tuple(sorted(Fraction(s, scale) for s in construction.result_s))


def record_class_sums(monkeypatch):
    """Replace `_class_squares` with a wrapper that records each divisor d
    whose class sum F(d) is taken."""
    summed = []
    squares = cyclotomic._class_squares

    def recording(exponents, d):
        summed.append(d)
        return squares(exponents, d)

    monkeypatch.setattr(cyclotomic, "_class_squares", recording)
    return summed


def test_construction_asks_only_the_t1_and_t2_orders(monkeypatch):
    summed = record_class_sums(monkeypatch)
    # |N| = 2^6 * 3^3 * 5 and s = 8 reach 15 orders.  (T1) asks the powers
    # of 2 and 3 with phi <= 8, each summing its own class sum, and (T2) the
    # product 4 * 3, which takes F(12) - F(6) - F(4) + F(2) and so sums 12
    # and 6.  The certificate of S = 720 * {0, 3, 4, 7, 8, 11} needs only
    # the orders 4, 3 and 12
    system = ScaleDigitSystem(8640, (0, 1, 2, 6, 7, 8))
    construction = construct_spectrum_set(system)
    assert (construction.p_powers, construction.q_powers) == ((4,), (3,))
    assert summed == [2, 4, 8, 16, 3, 9, 12, 6]
    assert decide_spectrum(system, SpectrumCandidate(construction.result_s)).spectral
    assert summed == [2, 4, 8, 16, 3, 9, 12, 6]  # the decider's re-check is answered from the memo
    # the same digits at -N share the memo: their construction and decision sum nothing again
    mirrored = ScaleDigitSystem(-8640, (0, 1, 2, 6, 7, 8))
    assert mirrored._order_test is system._order_test
    assert decide_spectrum(mirrored, SpectrumCandidate(construct_spectrum_set(mirrored).result_s)).spectral
    assert summed == [2, 4, 8, 16, 3, 9, 12, 6]


def test_tiling_powers_test_each_power_once(monkeypatch):
    # one order test, as is_complementing builds.  reach(3^k) =
    # gcd(3^k, lcm(1, 2, 3) * 1) = 3, since the differences 1, 2 * 3^v + 5
    # and 2 * 3^v + 4 are prime to 3: the powers 3^k with k >= 2 are
    # refused with no exact test, where a reach of 3^v tested all v of them
    summed = record_class_sums(monkeypatch)
    v = 400
    digits = (0, 1, 2 * 3**v + 5)  # exponents 0, 1, 2 mod 3: only Phi_3 divides
    assert tiling._tiling_powers({3: 1}, 3**v, OrderTest(digits)) == {3: (3,)}
    assert summed == [3]


def test_a_huge_modulus_leaves_the_memo_one_answer():
    # reach(2^60) of (0, 1) is gcd(2^60, lcm(1, 2) * 1) = 2: (T1) asks the
    # order 2 alone, not the 60 powers of 2 dividing L, and the product
    # complement is refused before it is built
    with pytest.raises(BudgetExceededError):
        is_complementing((0, 1), 2**60)
    assert cyclotomic._order_memo((0, 1)).known == {2: True}


@pytest.mark.parametrize(
    "scale,digits,modulus",
    [
        (2**12, (0, 1), 2**12),
        (2**10 * 3, (0, 1, 8, 9), 2**10 * 3),
        (2**9 * 3**6 * 5, (0, 1, 2, 6, 7, 8), 2**9 * 3**5),
        (-(6**8), (0, 2, 3, 5), 6**6),
    ],
)
def test_the_tiling_conditions_ask_only_orders_inside_the_reach(monkeypatch, scale, digits, modulus):
    # by Mann no power past the reach of L vanishes, so (T1) and (T2) ask
    # none, in the construction at L = |N| (with its certificate) and in a
    # complement question at L = `modulus` alike
    asked, call = [], OrderTest.__call__

    def spying(self, b):
        asked.append(b)
        return call(self, b)

    monkeypatch.setattr(OrderTest, "__call__", spying)
    system = ScaleDigitSystem(scale, digits)
    for at, question in ((system.modulus, lambda: construct_spectrum_set(system)),
                         (modulus, lambda: is_complementing(digits, modulus))):
        asked.clear()
        assert question() is not None
        reach = system._order_test.reach(at)
        assert at % (2 * (reach & -reach)) == 0  # L has a power of 2 past its reach
        assert asked and [b for b in asked if reach % b] == []


def test_is_complementing_factorises_and_tests_each_order_once(monkeypatch):
    # |D| = 6 and L = 1800 = 2^3 * 3^2 * 5^2, whose reach is 1800.  (T1) asks
    # 2, 4, 8 and 3, 9, where phi(9) = 6 > s = 5 refuses 9 untested, and
    # (T2) asks 2 * 3.  Each prime is trial-divided once, by the first
    # order that names it, and L and its prime 5 never
    summed = record_class_sums(monkeypatch)
    factorings = {module: [] for module in (cyclotomic, tiling)}
    for module, calls in factorings.items():

        def counting(*args, calls=calls, factorize=module.factorize):
            calls.append(args)
            return factorize(*args)

        monkeypatch.setattr(module, "factorize", counting)
    digits = (0, 1, 2, 3, 4, 5)
    complement = is_complementing(digits, 1800)
    assert_exact_cover(digits, complement, 1800)
    assert factorings == {cyclotomic: [(2,), (3,)], tiling: [(6,)]}
    assert summed == [2, 4, 8, 3, 6]  # (T2) reads F(3) and F(2) from the memo
    # wide digits at a prime modulus: the odd L has no power of 2 to ask,
    # so (T1) fails with nothing to factorise, not after 10^8 trial
    # divisions
    for calls in factorings.values():
        calls.clear()
    assert is_complementing((0, 10**9), 10**16 + 61) is None
    assert factorings == {cyclotomic: [], tiling: [(2,)]}
    assert summed == [2, 4, 8, 3, 6]


def test_a_shared_large_prime_that_no_question_names_is_never_factorised(monkeypatch):
    # former cliff: q = 10^12 + 39 is prime and divides both |N| = 2q and
    # the digit difference, so g = 2q was trial-divided up to sqrt(q) when
    # the test was built, though the construction and the power ask only 2
    q = 10**12 + 39
    calls = []
    factorize = cyclotomic.factorize

    def counting(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(cyclotomic, "factorize", counting)
    test = OrderTest((0, q))
    assert test.reach(2 * q) == 2 * q and calls == []  # building the test and its reach factorise nothing
    assert not hasattr(test, "factors")
    construction = construct_spectrum_set(ScaleDigitSystem(2 * q, (0, q)))
    assert construction.result_s == (0, q) and calls == [2]
    # the base system and the powered one ask 2 of the memo the construction
    # drew for these digits, which has found 2 already
    assert pair_power(ScaleDigitSystem(2 * q, (0, q)), SpectrumCandidate((0, q)), 1) == ((0, q), (0, q))
    assert calls == [2]


def test_construct_point_mass():
    construction = construct_spectrum_set(ScaleDigitSystem(5, (7,)))
    assert construction.result_s == (0,)
    assert construction.modulus_l == 1


@pytest.mark.parametrize("scale,digits,expected_s", CONSTRUCTION_CASES)
def test_construction_feeds_the_decider(scale, digits, expected_s):
    # end-to-end: canonicalize, carry S along the digit scaling, reduce, decide
    system = ScaleDigitSystem(scale, digits)
    construction = construct_spectrum_set(system)
    report = report_measure_spectrality(system)
    assert report.status == STATUS_SPECTRAL
    factor = report.canonical.scale_factor
    scaled_candidate = SpectrumCandidate(tuple(factor * s for s in construction.result_s))
    reduced_system = ScaleDigitSystem(scale, report.canonical.reduced_digits)
    reduced = reduce_s(scale, scaled_candidate)
    assert decide_spectrum(reduced_system, reduced).spectral


def test_construction_above_former_cache_limit():
    system = ScaleDigitSystem(10240, (0, 1))
    construction = construct_spectrum_set(system)
    candidate = SpectrumCandidate(construction.result_s)
    assert construction.certificate == is_compatible(system, candidate)
    assert construction.certificate is not None
    assert decide_spectrum(system, candidate).spectral


def test_complement_search_budget(monkeypatch):
    # {0, 13} tiles Z_48, yet the backtracking places many partial covers
    # before it finds the complement
    monkeypatch.setattr(systems, "LAMBDA_BUDGET", 1000)
    with pytest.raises(BudgetExceededError, match=r"mod L = 48 for \|D\| = 2 .* 1000 placed"):
        tiling._search_complement((0, 13), 48)
    # a search may place exactly the budget, not one translate more
    assert tiling._search_complement((0, 1), 2000) == tuple(range(0, 2000, 2))
    with pytest.raises(BudgetExceededError):
        tiling._search_complement((0, 1), 2002)
    # |D| = 30 has three primes, so is_complementing searches: 1000 translates
    # of {0, ..., 29} cover Z_30000, and Z_30030 takes one more
    assert is_complementing(tuple(range(30)), 30000) == tuple(range(0, 30000, 30))
    with pytest.raises(BudgetExceededError, match=r"mod L = 30030 for \|D\| = 30 .* 1000 placed"):
        is_complementing(tuple(range(30)), 30030)


def test_product_complement_budget(monkeypatch):
    # refused before it is built once L passes the budget, since the
    # counting check walks L sums: L = 1000 answers and 1002 is refused
    monkeypatch.setattr(systems, "LAMBDA_BUDGET", 1000)
    assert is_complementing((0, 1), 1000) == tuple(range(0, 1000, 2))
    message = "the complement mod L = 1002 of |D| = 2 digits is checked by counting L = 1002 sums, over the budget 1000"
    with pytest.raises(BudgetExceededError) as caught:
        is_complementing((0, 1), 1002)
    assert str(caught.value) == message
    # the construction's, at two primes: D = 1000 * {0, ..., 9} vanishes at 16 and 625, so L = 10^4
    monkeypatch.setattr(systems, "LAMBDA_BUDGET", 10000)
    construction = construct_spectrum_set(ScaleDigitSystem(-10000, tuple(range(0, 10000, 1000))))
    assert (construction.modulus_l, construction.p_powers, construction.q_powers) == (10000, (16,), (625,))
    assert_exact_cover(range(0, 10000, 1000), construction.complement_e0, 10000)
    with pytest.raises(BudgetExceededError, match=r"mod L = 20000 of \|D\| = 10 digits is checked by counting L = 20000 sums"):
        construct_spectrum_set(ScaleDigitSystem(20000, tuple(range(0, 20000, 2000))))


def test_one_lambda_budget_bounds_slices_pair_powers_and_complement_searches(monkeypatch):
    # the four are read from `systems` at call time: patching that one
    # attribute refuses each, and each passes at the default budget
    system, candidate = ScaleDigitSystem(4, (0, 1)), SpectrumCandidate((0, 2))
    slice_of_1024 = lambda: lambda_enumerate(4, candidate, 10)
    power_of_1024_points = lambda: pair_power(system, candidate, 10)  # 1024 one-word points each
    search_of_many = lambda: tiling._search_complement((0, 13), 48)
    complement_of_1002 = lambda: is_complementing((0, 1), 1002)
    for run in (slice_of_1024, power_of_1024_points, search_of_many, complement_of_1002):
        run()
    monkeypatch.setattr(systems, "LAMBDA_BUDGET", 1000)
    with pytest.raises(BudgetExceededError, match="enumeration budget 1000"):
        slice_of_1024()
    with pytest.raises(BudgetExceededError, match=r"\|S\|\^depth = 2\^10 exceeds the enumeration budget 1000"):
        power_of_1024_points()
    with pytest.raises(BudgetExceededError, match="budget of 1000 placed translates"):
        search_of_many()
    with pytest.raises(BudgetExceededError, match=r"counting L = 1002 sums, over the budget 1000"):
        complement_of_1002()


def test_failed_complement_searches_hold_only_what_they_cover():
    # {0, 1, 3} fails early at every L = 3^k; a search that allocated a
    # flag per residue peaked at about 12.5 MB here
    system = ScaleDigitSystem(3**13, (0, 1, 3))
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="not complementing"):
            construct_spectrum_set(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 1024, peak


def test_complement_search_frames_stay_small():
    # one (u, index) frame per chosen translate; a frame holding an
    # iterator over a fresh sorted list peaked at about 5.8 MB here
    tracemalloc.start()
    try:
        assert tiling._search_complement((0, 1), 20000) == tuple(range(0, 20000, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 1024 * 1024, peak


def reference_construct_spectrum_set(system):
    """The former construction, kept as the reference: L through a radical
    filter over every divisor of |N|, E as sums of Fractions a/p^k, and
    S = N*E checked to have stayed in the integers.  Returns the record
    and E, sorted, which the record computes from S."""
    found = None
    for div in divisors(system.modulus):
        if radical(div) == radical(system.size):
            complement = reference_is_complementing(system.digits, div)
            if complement is not None:
                found = div, complement
                break
    if found is None:
        raise PreconditionError(
            "digit set is not complementing modulo any admissible divisor of N"
        )
    modulus_l, complement = found
    groups = prime_power_sets(system.digits, modulus_l)

    def combinations(powers):
        if not powers:
            return [Fraction(0)]
        return [
            sum((Fraction(a, pk) for a, pk in zip(coeffs, powers)), Fraction(0))
            for coeffs in itertools.product(range(radical(powers[0])), repeat=len(powers))
        ]

    fractional = sorted(p + q for p in combinations(groups[0]) for q in combinations(groups[1]))
    assert len(set(fractional)) == system.size
    elements = []
    for frac in fractional:
        scaled = frac * system.scale
        assert scaled.denominator == 1, frac
        elements.append(int(scaled))
    candidate = SpectrumCandidate(tuple(elements))
    construction = tiling.TilingConstruction(
        modulus_l=modulus_l,
        complement_e0=complement,
        p_powers=groups[0],
        q_powers=groups[1],
        result_s=candidate.elements,
        certificate=is_compatible(system, candidate),
    )
    return construction, tuple(fractional)


def outcome(construct, system):
    try:
        return construct(system)
    except (PreconditionError, ConsistencyError) as exc:
        return type(exc), str(exc)


def without_complement(construction):
    return [getattr(construction, f) for f in construction.__match_args__ if f != "complement_e0"]


def test_integer_construction_matches_fraction_reference():
    # both signs of N, |N| with one and with two primes, digit sets with
    # and without 0 and with negative digits, |D| in {1, 2, 3, 4, 6}
    digit_sets = [
        digits
        for size in (1, 2, 3, 4, 6)
        for digits in itertools.combinations(range(-2, 8), size)
    ]
    built = 0
    for modulus in (4, 6, 8, 9, 12, 16, 18, 24, 72):
        for scale in (modulus, -modulus):
            for digits in digit_sets:
                system = ScaleDigitSystem(scale, digits)
                expected = outcome(reference_construct_spectrum_set, system)
                got = outcome(construct_spectrum_set, system)
                if not isinstance(expected[0], tiling.TilingConstruction):
                    assert got == expected, system
                    continue
                reference, fractional = expected
                # the complement need not be the search's first one: checked by its cover
                assert isinstance(got, tiling.TilingConstruction), (system, got)
                assert without_complement(got) == without_complement(reference), system
                assert got.fractional_e == fractional, system
                assert_exact_cover(digits, got.complement_e0, got.modulus_l)
                assert len(got.complement_e0) == got.modulus_l // len(digits)
                built += 1
    assert built > 500
    # three primes in |D|, once complementing and once not: the reference
    # searched first and so refused the second as no tile, while the
    # construction refuses both before any work
    for scale, digits in [(30, tuple(range(30))), (-90, tuple(range(0, 60, 2)))]:
        assert outcome(construct_spectrum_set, ScaleDigitSystem(scale, digits)) == (
            PreconditionError,
            "|D| = 30 has 3 distinct prime factors; the construction covers at most two",
        )
    assert outcome(reference_construct_spectrum_set, ScaleDigitSystem(-90, tuple(range(0, 60, 2)))) == (
        PreconditionError,
        "digit set is not complementing modulo any admissible divisor of N",
    )
