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
from cantorspec.cyclotomic import OrderTest
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
    # |D| = 6 has two primes, so (T2) decides some of these pairs
    for size, top in [(1, 16), (2, 16), (3, 16), (4, 16), (6, 13)]:
        for rest in itertools.combinations(range(1, top), size - 1):
            digits = (0, *rest)
            for modulus in range(1, 25):
                expected = reference_is_complementing(digits, modulus)
                assert is_complementing(digits, modulus) == expected, (digits, modulus)


def test_find_modulus_l_examples():
    assert find_modulus_l(ScaleDigitSystem(4, (0, 2))) == 4
    assert find_modulus_l(ScaleDigitSystem(2, (0, 1))) == 2
    assert find_modulus_l(ScaleDigitSystem(16, (0, 1, 8, 9))) == 16
    assert find_modulus_l(ScaleDigitSystem(4, (0, 1, 2))) is None  # 3 does not divide 4
    assert find_modulus_l(ScaleDigitSystem(-4, (0, 2))) == 4


@pytest.mark.parametrize("scale,digits", [(8192, (0, 4096)), (16, (0, 1, 8, 9)), (-12, (0, 1, 2))])
def test_construction_searches_each_modulus_once(monkeypatch, scale, digits):
    calls = []
    search = tiling._search_complement

    def counting(digs, modulus):
        calls.append(modulus)
        return search(digs, modulus)

    monkeypatch.setattr(tiling, "_search_complement", counting)
    construction = construct_spectrum_set(ScaleDigitSystem(scale, digits))
    assert calls == [construction.modulus_l]
    assert construction.complement_e0 == is_complementing(digits, construction.modulus_l)


@pytest.mark.parametrize(
    "scale,digits",
    [(s, d) for s, d, _ in CONSTRUCTION_CASES] + [(-8640, (0, 1, 2, 6, 7, 8)), (2592, (0, 9, 18, 27))],
)
def test_construction_reads_prime_powers_from_the_vanishing_orders(monkeypatch, scale, digits):
    system = ScaleDigitSystem(scale, digits)
    reference = reference_construct_spectrum_set(system)
    expected = (reference.p_powers, reference.q_powers)

    def refuse(exponents, n):
        raise AssertionError("the construction built an order test of its own")

    monkeypatch.setattr(tiling, "OrderTest", refuse)
    tested = record_exact_tests(monkeypatch)
    construction = construct_spectrum_set(system)
    assert (construction.p_powers, construction.q_powers) == expected
    assert len(tested) == len(set(tested))  # the system's memo answers each order once


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


def record_exact_tests(monkeypatch):
    """Replace `_order_divides` with a wrapper that records each order b."""
    tested = []
    divides = cyclotomic._order_divides

    def recording(terms, b, primes):
        tested.append(b)
        return divides(terms, b, primes)

    monkeypatch.setattr(cyclotomic, "_order_divides", recording)
    return tested


def test_construction_asks_only_the_t1_and_t2_orders(monkeypatch):
    tested = record_exact_tests(monkeypatch)
    # |N| = 2^6 * 3^3 * 5 and s = 8 reach 15 orders.  (T1) tests the powers
    # of 2 and 3 with phi <= 8, (T2) the product 4 * 3, and the certificate
    # of S = 720 * {0, 3, 4, 7, 8, 11} needs only the orders 4, 3 and 12
    system = ScaleDigitSystem(8640, (0, 1, 2, 6, 7, 8))
    construction = construct_spectrum_set(system)
    assert (construction.p_powers, construction.q_powers) == ((4,), (3,))
    assert tested == [2, 4, 8, 16, 3, 9, 12]
    assert decide_spectrum(system, SpectrumCandidate(construction.result_s)).spectral
    assert tested == [2, 4, 8, 16, 3, 9, 12]  # the decider's re-check is answered from the memo


def test_tiling_powers_test_each_power_once(monkeypatch):
    # one order test over the 3-part of the modulus, as is_complementing
    # builds.  Its g = gcd(3^v, lcm(1, 2, 3) * 1) = 3, since the differences
    # 1, 2 * 3^v + 5 and 2 * 3^v + 4 are prime to 3: the powers 3^k with
    # k >= 2 are refused with no exact test, where a reach of 3^v tested
    # all v of them
    tested = record_exact_tests(monkeypatch)
    v = 400
    digits = (0, 1, 2 * 3**v + 5)  # exponents 0, 1, 2 mod 3: only Phi_3 divides
    assert tiling._tiling_powers({3: 1}, 3**v, OrderTest(digits, 3**v)) == {3: (3,)}
    assert tested == [3]


def test_is_complementing_factorises_once_and_tests_each_order_once(monkeypatch):
    # |D| = 6 and L = 1800 = 2^3 * 3^2 * 5^2: the memo spans 72, the part
    # of L made of |D|'s primes.  (T1) asks 2, 4, 8 and 3, 9, where
    # phi(9) = 6 > s = 5 refuses 9 untested, and (T2) asks 2 * 3
    tested = record_exact_tests(monkeypatch)
    factorings = {module: [] for module in (cyclotomic, tiling)}
    for module, calls in factorings.items():

        def counting(*args, calls=calls, factorize=module.factorize):
            calls.append(args)
            return factorize(*args)

        monkeypatch.setattr(module, "factorize", counting)
    digits = (0, 1, 2, 3, 4, 5)
    complement = is_complementing(digits, 1800)
    assert_exact_cover(digits, complement, 1800)
    assert factorings == {cyclotomic: [(72,)], tiling: [(6,)]}
    assert tested == [2, 4, 8, 3, 6]
    # wide digits at a prime modulus: no power of 2 divides it, so (T1)
    # fails with nothing to factorise, not after 10^8 trial divisions
    for calls in factorings.values():
        calls.clear()
    assert is_complementing((0, 10**9), 10**16 + 61) is None
    assert factorings == {cyclotomic: [(1,)], tiling: [(2,)]}
    assert tested == [2, 4, 8, 3, 6]


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
        is_complementing((0, 13), 48)
    # a search may place exactly the budget, not one translate more
    assert is_complementing((0, 1), 2000) == tuple(range(0, 2000, 2))
    with pytest.raises(BudgetExceededError):
        is_complementing((0, 1), 2002)


def test_one_lambda_budget_bounds_slices_pair_powers_and_complement_searches(monkeypatch):
    # the three are read from `systems` at call time: patching that one
    # attribute refuses each, and each passes at the default budget
    system, candidate = ScaleDigitSystem(4, (0, 1)), SpectrumCandidate((0, 2))
    slice_of_1024 = lambda: lambda_enumerate(4, candidate, 10)
    power_of_2016_pairs = lambda: pair_power(system, candidate, 6)  # 64 points each
    search_of_many = lambda: is_complementing((0, 13), 48)
    for run in (slice_of_1024, power_of_2016_pairs, search_of_many):
        run()
    monkeypatch.setattr(systems, "LAMBDA_BUDGET", 1000)
    with pytest.raises(BudgetExceededError, match="enumeration budget 1000"):
        slice_of_1024()
    with pytest.raises(BudgetExceededError, match=r"C\(2\^6, 2\) = 2016 pairs, over the budget 1000"):
        power_of_2016_pairs()
    with pytest.raises(BudgetExceededError, match="budget of 1000 placed translates"):
        search_of_many()


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
        assert is_complementing((0, 1), 20000) == tuple(range(0, 20000, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 1024 * 1024, peak


def reference_construct_spectrum_set(system):
    """The former construction, kept as the reference: L through a radical
    filter over every divisor of |N|, E as sums of Fractions a/p^k, and
    S = N*E checked to have stayed in the integers."""
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
    return tiling.TilingConstruction(
        modulus_l=modulus_l,
        complement_e0=complement,
        p_powers=groups[0],
        q_powers=groups[1],
        fractional_e=tuple(fractional),
        result_s=candidate.elements,
        certificate=is_compatible(system, candidate),
    )


def outcome(construct, system):
    try:
        return construct(system)
    except (PreconditionError, ConsistencyError) as exc:
        return type(exc), str(exc)


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
                assert outcome(construct_spectrum_set, system) == expected, system
                built += not isinstance(expected, tuple)
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
