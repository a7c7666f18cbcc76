import cmath
import functools
import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cantorspec import (
    PreconditionError,
    ScaleDigitSystem,
    is_complementing,
    order_vanishes,
    report_measure_spectrality,
)
from cantorspec import cyclotomic as cyclotomic_module
from oracles import (
    IntPolynomial,
    cyclotomic,
    digit_polynomial,
    divisors,
    radical_order_divides,
    symbol_eval,
    symbol_vanishes_at,
    trial_factorize,
    vanishes_at_primitive_root,
    vanishing_orders as batch_vanishing_orders,
    zero_residues,
)


def eval_at_primitive_root(poly, m):
    """|p(zeta)| at a primitive m-th root of unity, chosen coprime to m."""
    k = next(a for a in range(1, m + 1) if math.gcd(a, m) == 1)
    return abs(poly.evaluate(cmath.exp(2j * math.pi * k / m)))


def test_polynomial_basic_arithmetic():
    p = IntPolynomial((-1, 1))
    q = IntPolynomial((1, 1))
    assert p * q == IntPolynomial((-1, 0, 1))
    assert (p + q) == IntPolynomial((0, 2))
    assert p.degree == 1
    assert IntPolynomial(()).is_zero()
    assert IntPolynomial((0, 0)).is_zero()


def test_polynomial_divmod_exact():
    num = IntPolynomial((-1, 0, 0, 0, 0, 0, 1))  # z^6 - 1
    den = IntPolynomial((-1, 1))
    quot, rem = divmod(num, den)
    assert rem.is_zero()
    assert quot * den == num


def test_cyclotomic_base_cases():
    assert cyclotomic(1) == IntPolynomial((-1, 1))
    assert cyclotomic(2) == IntPolynomial((1, 1))
    assert cyclotomic(3) == IntPolynomial((1, 1, 1))
    assert cyclotomic(4) == IntPolynomial((1, 0, 1))


def test_cyclotomic_12():
    # x^4 - x^2 + 1, cross-checked through the divisor-product identity
    # and numerically at a primitive 12th root.
    phi = cyclotomic(12)
    assert phi == IntPolynomial((1, 0, -1, 0, 1))
    product = IntPolynomial((1,))
    for d in (1, 2, 3, 4, 6, 12):
        product = product * cyclotomic(d)
    assert product == IntPolynomial((-1,) + (0,) * 11 + (1,))
    assert eval_at_primitive_root(phi, 12) < 1e-9


def test_cyclotomic_105_has_coefficient_minus_two():
    # smallest index with a coefficient outside {-1, 0, 1}
    assert cyclotomic(105).coeffs[7] == -2


def test_cyclotomic_product_identity_up_to_200():
    for n in range(1, 201):
        product = IntPolynomial((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic(d)
        assert product == IntPolynomial((-1,) + (0,) * (n - 1) + (1,)), n


def test_cyclotomic_rejects_nonpositive():
    with pytest.raises(PreconditionError):
        cyclotomic(0)
    with pytest.raises(PreconditionError):
        cyclotomic(-3)


def test_vanishes_at_primitive_root_examples():
    assert vanishes_at_primitive_root(IntPolynomial((1, 1, 1, 1)), 2)
    assert vanishes_at_primitive_root(IntPolynomial((1, 0, 1)), 4)
    p = IntPolynomial.from_exponents([0, 1, 8, 9])
    assert vanishes_at_primitive_root(p, 16)
    assert not vanishes_at_primitive_root(p, 8)
    # numeric corroboration of both verdicts
    assert eval_at_primitive_root(p, 16) < 1e-9
    assert eval_at_primitive_root(p, 8) > 1e-6


def test_vanishes_rejects_zero_polynomial():
    with pytest.raises(PreconditionError):
        vanishes_at_primitive_root(IntPolynomial(()), 3)


@given(
    coeffs=st.lists(st.integers(-5, 5), min_size=1, max_size=8),
    m=st.integers(1, 24),
    shift=st.integers(0, 6),
)
def test_vanishing_invariant_under_exponent_shift(coeffs, m, shift):
    poly = IntPolynomial(coeffs)
    if poly.is_zero():
        return
    assert vanishes_at_primitive_root(poly, m) == vanishes_at_primitive_root(
        poly.shifted(shift), m
    )


def test_digit_polynomial_shifts_and_reduces():
    assert digit_polynomial((-2, 0, 3)) == IntPolynomial((1, 0, 1, 0, 0, 1))
    assert digit_polynomial((0, 5, 10), modulus=5) == IntPolynomial((3,))


@pytest.mark.parametrize(
    "scale,digits,expected",
    [
        (4, (0, 1), {2}),
        (3, (0, 2), set()),
        (6, (0, 1, 2), {2, 4}),
    ],
)
def test_mask_zero_residues_examples(scale, digits, expected):
    system = ScaleDigitSystem(scale, digits)
    assert set(zero_residues(system)) == expected
    # numeric oracle over every residue class representative
    for r in range(1, abs(scale)):
        mag = abs(symbol_eval(digits, r / scale))
        if r in expected:
            assert mag < 1e-10
        else:
            assert mag > 1e-6


def test_mask_is_sign_insensitive():
    for scale, digits in [(4, (0, 1)), (6, (0, 1, 2)), (5, (0, 2, -2, 11, -11))]:
        pos = zero_residues(ScaleDigitSystem(scale, digits))
        neg = zero_residues(ScaleDigitSystem(-scale, digits))
        assert pos == neg


@given(
    scale=st.integers(2, 9),
    sign=st.sampled_from((1, -1)),
    digits=st.sets(st.integers(-9, 9), min_size=1, max_size=4),
)
def test_mask_matches_numeric_oracle(scale, sign, digits):
    system = ScaleDigitSystem(sign * scale, tuple(digits))
    zeros = zero_residues(system)
    for r in range(1, scale):
        mag = abs(symbol_eval(system.digits, r / (sign * scale)))
        if r in zeros:
            assert mag < 1e-10
        else:
            assert mag > 1e-6


def test_symbol_vanishes_at_fractions():
    # 1/2 is a zero of the {0,1} symbol; integers never are
    assert symbol_vanishes_at((0, 1), Fraction(1, 2))
    assert not symbol_vanishes_at((0, 1), Fraction(1, 3))
    assert not symbol_vanishes_at((0, 1), 7)
    assert symbol_vanishes_at((0, 1, 2), Fraction(2, 3))


# --------------------------------------------------------------------------
# Differential check against the former algorithm, kept here as the
# reference: Phi_n by dividing z^n - 1 by Phi_d over the proper divisors d,
# and vanishing by long division of the exponent-reduced digit polynomial.

SMALL_DIGIT_SETS = [
    digits for size in range(1, 11) for digits in itertools.combinations(range(10), size)
]
MAX_ORDER = 48


@functools.lru_cache(maxsize=None)
def reference_cyclotomic(n):
    poly = IntPolynomial((-1,) + (0,) * (n - 1) + (1,))
    for d in range(1, n):
        if n % d == 0:
            poly, rem = divmod(poly, reference_cyclotomic(d))
            assert rem.is_zero()
    return poly


def reference_vanishes(digits, b):
    poly = IntPolynomial.from_exponents([d % b for d in digits])
    return poly.divisible_by(reference_cyclotomic(b))


@functools.lru_cache(maxsize=None)
def reference_table():
    return {
        (digits, b): reference_vanishes(digits, b)
        for digits in SMALL_DIGIT_SETS
        for b in range(1, MAX_ORDER + 1)
    }


def test_cyclotomic_matches_divisor_recursion_up_to_400():
    for n in range(1, 401):
        assert cyclotomic(n) == reference_cyclotomic(n), n


def test_order_vanishes_matches_reference_exhaustively():
    table = reference_table()
    for (digits, b), expected in table.items():
        assert order_vanishes(digits, b) == expected, (digits, b)


def test_mask_matches_reference_exhaustively():
    table = reference_table()
    for n in range(2, MAX_ORDER + 1):
        for digits in SMALL_DIGIT_SETS:
            expected = frozenset(
                r for r in range(1, n) if table[digits, n // math.gcd(r, n)]
            )
            assert zero_residues(ScaleDigitSystem(n, digits)) == expected, (n, digits)


def test_vanishes_at_primitive_root_matches_reference_with_signed_coefficients():
    for coeffs in itertools.product((-1, 0, 1), repeat=5):
        poly = IntPolynomial(coeffs)
        if poly.is_zero():
            continue
        for m in range(1, MAX_ORDER + 1):
            expected = poly.divisible_by(reference_cyclotomic(m))
            assert vanishes_at_primitive_root(poly, m) == expected, (coeffs, m)


def test_order_vanishes_reduces_any_integer_exponents():
    assert order_vanishes((), 5)
    assert order_vanishes((-3, 2), 10)  # z^-3 + z^2 = z^-3 (1 + z^5)
    assert not order_vanishes((-3, 2), 5)
    with pytest.raises(PreconditionError):
        order_vanishes((0, 1), 0)


def exact_phase_symbol(digits, r, n):
    """|m_D(r/n)| with each phase d*r reduced mod n in integers first, which
    keeps the float argument in [0, 1)."""
    return abs(sum(cmath.exp(-2j * math.pi * (d * r % n) / n) for d in digits)) / len(digits)


# Former cliff: moduli far above the old cache limit, with small and wide
# digit sets.  Each divisor order b is checked against the float symbol at
# its representative |N|/b, and every residue must follow its order.
CLIFF_CASES = [
    (10240, (0, 1)),
    (10240, (0, 5, 2560, 2565)),
    (12000, (0, 1, 2)),
    (12000, (0, 3, 4000, 4003, 8000, 8003)),
    (30030, (0, 1, 2)),
    (30030, (0, 10010, 20020)),
    (30030, (0, 5, 13, 100, 2000, 15015)),
    (100000, (0, 1, 2, 3)),
    (100000, (0, 25000, 50000, 75000)),
    (100000, (0, 7, 12500, 12507)),
]


@pytest.mark.parametrize("scale,digits", CLIFF_CASES)
def test_mask_at_former_cliff_matches_float_symbol(scale, digits):
    zeros = zero_residues(ScaleDigitSystem(scale, digits))
    vanishing_orders = set()
    for b in range(2, scale + 1):
        if scale % b:
            continue
        r = scale // b
        mag = exact_phase_symbol(digits, r, scale)
        if r in zeros:
            assert mag < 1e-10, b
            vanishing_orders.add(b)
        else:
            assert mag > 1e-6, b
    assert zeros == {
        r for r in range(1, scale) if scale // math.gcd(r, scale) in vanishing_orders
    }


# Former phi(rad b) blow-up: a vanishing sum recursed through every all-zero
# class difference, 7.8 s for the single order b = N below.  Every divisor
# order is checked against the float symbol at its representative r = N/b.
@pytest.mark.parametrize(
    "n,digits",
    [
        (9699690, (0, 9699690 // 2)),
        (510510, tuple(a + b for a in (0, 510510 // 2) for b in (0, 510510 // 3, 2 * 510510 // 3))),
    ],
)
def test_order_vanishes_at_every_divisor_of_a_primorial(n, digits):
    vanishing = 0
    for b in divisors(n):
        mag = exact_phase_symbol(digits, n // b, n)
        if order_vanishes(digits, b):
            assert mag < 1e-10, b
            vanishing += 1
        else:
            assert mag > 1e-6, b
    assert vanishing > 0


def test_vanishing_orders_batch_matches_order_vanishes_exhaustively():
    # every D in [-4, 10) with |D| <= 3 at every n <= 64, against long
    # division by the explicitly built Phi_b, decided once per order b
    for size in (1, 2, 3):
        for digits in itertools.combinations(range(-4, 10), size):
            exact = frozenset(b for b in range(2, 65) if reference_vanishes(digits, b))
            for n in range(2, 65):
                expected = frozenset(b for b in exact if n % b == 0)
                assert ScaleDigitSystem(n, digits).vanishing_orders == expected, (digits, n)


def record_orders(monkeypatch, name):
    """Replace the exact step `name` of the cyclotomic module with a wrapper
    that records its divisor: `_class_squares(exponents, d)` sums the class
    sum F(d), `_pair_trace(exponents, b, primes)` decides b from its pairs."""
    recorded = []
    step = getattr(cyclotomic_module, name)

    def recording(exponents, b, *primes):
        recorded.append(b)
        return step(exponents, b, *primes)

    monkeypatch.setattr(cyclotomic_module, name, recording)
    return recorded


def totient(b, primes):
    """phi(b) for b whose primes are among the given ones."""
    ours = [p for p in primes if b % p == 0]
    return b // math.prod(ours) * math.prod(p - 1 for p in ours)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_vanishing_orders_keep_phi_p_and_drop_phi_p_squared_at_the_digit_reach(monkeypatch, p):
    # D = {0, ..., p-1} has degree p - 1 = phi(p) < phi(p^2): Phi_p divides
    # D(z) and sits exactly at the reach, so only F(p) is ever summed; F(1)
    # is |D|^2 and needs no sum.  The batches at every scale share one
    # memo, so F(p) is summed once in all
    digits, scales = range(p), (p**3, p**2 * 11, p * 11 * 13)
    expected = {n: frozenset(b for b in divisors(n)[1:] if order_vanishes(digits, b)) for n in scales}
    summed = record_orders(monkeypatch, "_class_squares")
    for n in scales:
        assert expected[n] == {p}
        assert ScaleDigitSystem(n, digits).vanishing_orders == expected[n], n
        assert summed == [p], n


def test_vanishing_orders_ignore_the_sign_of_the_scale_and_take_negative_digits():
    for scale, digits in [(-12, (-5, -1, 3)), (-30, (-15, 0)), (-64, (-32, -16, 0, 16)), (-9, (-3, 0, 3))]:
        system = ScaleDigitSystem(scale, digits)
        expected = frozenset(b for b in divisors(-scale)[1:] if order_vanishes(digits, b))
        assert system.vanishing_orders == expected == ScaleDigitSystem(-scale, digits).vanishing_orders
        assert expected


# D = {0, h, ..., (q-1)h} has D(z) = (z^(qh) - 1)/(z^h - 1), so Phi_b
# divides it exactly when b divides qh but not h.  The span (q-1)h is wide
# enough that every divisor of n is in reach.
@pytest.mark.parametrize(
    "n,h,q",
    [
        (10**30, 5 * 10**29, 2),
        (4**2000, 2 * 4**1999, 2),
        (10**24, 5 * 10**23, 2),
    ],
    ids=["10^30", "4^2000", "10^24"],
)
def test_vanishing_orders_fall_back_to_the_exact_test(monkeypatch, n, h, q):
    digits = range(0, q * h, h)
    expected = frozenset(b for b in divisors(n)[1:] if (q * h) % b == 0 and h % b)
    assert expected
    summed = record_orders(monkeypatch, "_class_squares")
    assert ScaleDigitSystem(n, digits).vanishing_orders == expected
    # the class sum of every divisor with phi(b) <= s, exactly once
    primes = trial_factorize(n)
    assert sorted(summed) == [b for b in divisors(n)[1:] if totient(b, primes) <= (q - 1) * h]


@pytest.mark.parametrize("b", [10**12 + 39, (10**6 + 3) * (10**6 + 33), 10**16 + 61])
def test_order_vanishes_at_a_large_order_allocates_nothing_per_residue(b):
    # former cliff: a list of p empty classes for the largest prime p of b,
    # killed for lack of memory at b = 10^12 + 39; {0, 1} reaches only b = 2
    tracemalloc.start()
    try:
        assert not order_vanishes((0, 1), b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def reference_divisors(n):
    """The former divisor list: trial division up to sqrt(n)."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def test_divisors_match_trial_division():
    for n in range(1, 3000):
        assert divisors(n) == reference_divisors(n), n


def test_divisors_of_a_large_prime_power_come_from_its_factorisation():
    # trial division up to sqrt(4^60) = 2^60 would never finish
    assert cyclotomic_module.factorize(4**60) == {2: 120}
    assert divisors(4**60) == [2**i for i in range(121)]
    n = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23
    found = divisors(n)
    assert len(found) == 2**9 and found == sorted(found) and found[-1] == n
    assert all(n % d == 0 for d in found)


def test_factorize_matches_the_former_factorisers_exhaustively():
    # the one factoriser against the former full trial division
    factorize = cyclotomic_module.factorize
    numbers = range(1, 3000)
    assert [n for n in numbers if list(factorize(n).items()) != list(trial_factorize(n).items())] == []


def test_vanishing_orders_satisfy_manns_bound():
    # Mann's bound, which OrderTest factorises by: every vanishing order of
    # D divides lcm(1..|D|) * (d - d') for two digits.  720720 is the lcm of
    # every b with phi(b) <= 12, so the batch sees every vanishing order
    orders_seen = 0
    for size in range(13):
        for rest in itertools.combinations(range(1, 13), size):
            digits = (0, *rest)
            lcm_sizes = math.lcm(*range(1, len(digits) + 1))
            diffs = {b - a for a, b in itertools.combinations(digits, 2)}
            for b in batch_vanishing_orders(digits, 720720):
                assert any(lcm_sizes * delta % b == 0 for delta in diffs), (digits, b)
                orders_seen += 1
    assert orders_seen > 1900


def test_single_questions_test_only_the_orders_in_manns_reach(monkeypatch):
    # every divisor of n asked one at a time of one OrderTest, against the
    # former batch.  The reach is the b | g with phi(b) <= s, for
    # g = gcd(n, lcm(1..|D|) * lcm of the differences).  Each b in reach is
    # decided by its class sums or by its pair trace, nothing outside the
    # reach is summed, and no divisor is summed twice.  The batch that
    # follows sums only the divisors still unsummed, and a fresh batch sums
    # exactly the reach.  D = {0, 3} at n = 4 asks b = 4, which divides n
    # but not g = gcd(4, 2 * 3) = 2, so it is refused untested
    summed = record_orders(monkeypatch, "_class_squares")
    paired = record_orders(monkeypatch, "_pair_trace")
    scales = range(2, 121)
    questions = pair_traces = 0
    for size in range(1, 4):
        for rest in itertools.combinations(range(1, 11), size):
            digits = (0, *rest)
            span = rest[-1]
            everywhere = batch_vanishing_orders(digits, math.lcm(*scales))
            diffs = [b - a for a, b in itertools.combinations(digits, 2)]
            mann = math.lcm(*range(1, len(digits) + 1)) * math.lcm(*diffs)
            for n in scales:
                g = math.gcd(n, mann)
                asked = divisors(n)[1:]
                primes = trial_factorize(n)
                in_reach = [b for b in asked if g % b == 0 and totient(b, primes) <= span]
                summed.clear()
                paired.clear()
                single = cyclotomic_module.OrderTest(digits)
                assert [b for b in asked if single(b)] == sorted(b for b in everywhere if n % b == 0), (digits, n)
                assert len(set(summed)) == len(summed) and len(set(paired)) == len(paired), (digits, n)
                assert set(summed) <= set(in_reach) and set(paired) <= set(in_reach), (digits, n)
                assert set(summed) | set(paired) == set(in_reach), (digits, n)
                pair_traces += len(paired)
                batch = single.all_orders(n)
                assert sorted(summed) == in_reach and len(paired) == len(set(paired)), (digits, n)
                summed.clear()
                paired.clear()
                assert cyclotomic_module.OrderTest(digits).all_orders(n) == batch
                assert sorted(summed) == in_reach and paired == [], (digits, n)
                questions += len(asked)
    assert questions > 60000
    assert pair_traces > 100  # both forms of a single question are exercised
    summed.clear()
    assert not cyclotomic_module.OrderTest((0, 3))(4)
    assert summed == paired == []


def test_the_reach_looks_at_the_differences_only_for_an_n_that_g_does_not_cover(monkeypatch):
    # reach(n) = gcd(n, lcm(1..|D|) * lcm of the differences).  The memo
    # starts at g = lcm(1..2000), which 4000 divides: one gcd, with g, and
    # none per difference.  g covers neither 2 * 10009 nor 2 * 10007, and
    # each costs one gcd per distinct difference (3997 of them, not
    # 1999000 pairs), one with n and one with g; the difference 10007
    # grows g to cover 2 * 10007, so 6 * 10007 costs one gcd.  g grows
    # only by true reaches, so it covers no multiple of 10009: 3 * 10009,
    # refused at reach 3, costs one more pass over the differences
    gcds, lcms = [], []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        @staticmethod
        def gcd(*args):
            gcds.append(args)
            return math.gcd(*args)

        @staticmethod
        def lcm(*args):
            lcms.append(math.lcm(*args))
            return lcms[-1]

    monkeypatch.setattr(cyclotomic_module, "math", CountingMath())
    test = cyclotomic_module.OrderTest((*range(1999), 10007))
    assert test.reach(4000) == 4000 and len(gcds) == 1
    assert test.reach(2 * 10009) == 2 and len(gcds) == 1 + 3999
    assert test.reach(2 * 10007) == 2 * 10007 and len(gcds) == 1 + 2 * 3999
    assert test.reach(6 * 10007) == 6 * 10007 and len(gcds) == 2 + 2 * 3999
    assert test.reach(3 * 10009) == 3 and len(gcds) == 2 + 3 * 3999
    assert test.g == math.lcm(*range(1, 2001), 2 * 10007)
    # 1,000 digits spread over [0, 10^6]: the lcm of their differences would
    # run to about 1.4 million bits, yet no lcm formed passes the bits of n
    # and of lcm(1..1000) together: lcm(1..1000), the lcm of the gcds with n,
    # and g's lcm with the reach
    digits = (0, *random.Random(14).sample(range(1, 10**6 + 1), 999))
    sizes = math.lcm(*range(1, 1001))
    for n in (math.prod(p for p in range(1001, 3000) if trial_factorize(p) == {p: 1}), 2**40 * 3**25 * 5**15):
        lcms.clear()
        test = cyclotomic_module.OrderTest(digits)
        assert n % test.reach(n) == 0 and len(lcms) == 3
        assert max(x.bit_length() for x in lcms) <= n.bit_length() + sizes.bit_length(), n


def test_a_repeated_reach_makes_no_second_pass():
    # g covers no multiple of 10009, so reach(2 * 10009) walks the distinct
    # differences; the memo keeps that n with its reach, and asking it again
    # walks them no more, while a new n that g does not cover still does
    passes = []

    class CountingDiffs(tuple):
        def __iter__(self):
            passes.append(len(self))
            return super().__iter__()

    test = cyclotomic_module.OrderTest((*range(1999), 10007))
    assert test.reach(2 * 10009) == 2
    g, test.diffs = test.g, CountingDiffs(test.diffs)
    assert [test.reach(2 * 10009) for _ in range(3)] == [2, 2, 2]
    assert passes == [] and test.g == g
    assert test.reach(3 * 10009) == 3 and passes == [3997]
    assert test.reach(3 * 10009) == 3 and passes == [3997]


def test_the_batch_factorises_only_what_no_question_has_split(monkeypatch):
    # single questions and the batch share one path: the primes found before
    # are divided out, and `factorize` sees only the rest
    digits, q = (0, 1, 2, 3, 5, 8), 10**14 + 31  # q is prime: 2q takes 10^7 trial divisions
    expected = {b for b in divisors(360)[1:] if order_vanishes(digits, b)}
    factorize, calls = cyclotomic_module.factorize, []

    def spying(n):
        calls.append(n)
        return {2: 1, q: 1} if n == 2 * q else factorize(n)

    monkeypatch.setattr(cyclotomic_module, "factorize", spying)
    test = cyclotomic_module.OrderTest(digits)
    assert [test(b) for b in (4, 3, 12)] == [False] * 3
    assert set(test.all_orders(360)) == expected == {2}
    assert calls == [4, 3, 5]  # reach(360) = 360, of which 2 and 3 are known
    # the batch at 2q after the single question 2q splits nothing again
    calls.clear()
    test = cyclotomic_module.OrderTest((0, q))
    assert test(2 * q)  # 1 + z^q vanishes at the primitive 2q-th roots
    assert test.all_orders(2 * q) == {2: [2], 2 * q: [2, q]}
    assert calls == [2 * q]


def test_equal_digits_share_one_memo_across_scales_and_callers(monkeypatch):
    # systems at four scales and `is_complementing` on the same digits, in
    # any order, draw one memo, built once; across all of them no class sum
    # is summed twice.  `order_vanishes`, the reference, keeps no memo
    digits = (0, 1, 2, 6, 7, 8)
    systems = [ScaleDigitSystem(n, digits) for n in (12, -36, 8640, 90)]
    expected = [{b for b in divisors(system.modulus)[1:] if order_vanishes(digits, b)} for system in systems]
    assert cyclotomic_module._order_memo.cache_info().currsize == 0
    summed = record_orders(monkeypatch, "_class_squares")
    assert [system.vanishing_orders for system in systems] == expected
    assert is_complementing(digits[::-1], 12) == (0, 3)
    assert all(system._order_test is systems[0]._order_test for system in systems)
    assert cyclotomic_module._order_memo.cache_info().misses == 1
    assert summed and len(summed) == len(set(summed))


def test_the_least_recently_used_memo_is_rebuilt_past_the_cache_size():
    size = cyclotomic_module._order_memo.cache_info().maxsize
    first, second = (ScaleDigitSystem(12, (0, k))._order_test for k in (1, 2))
    assert ScaleDigitSystem(-12, (0, 1))._order_test is first  # (0, 1) is now the most recent
    for k in range(3, size + 2):  # size - 1 more digit sets: size + 1 in all, (0, 2) the least recent
        assert ScaleDigitSystem(12, (0, k))._order_test is ScaleDigitSystem(30, (0, k))._order_test
    assert ScaleDigitSystem(12, (0, 1))._order_test is first
    rebuilt = ScaleDigitSystem(12, (0, 2))._order_test
    assert rebuilt is not second and rebuilt(4) == second(4) is True


def test_a_memo_keeps_nothing_per_scale():
    # (0, 1, 2) reaches only the orders b with phi(b) <= 2: reports at 3000
    # scales, each a window batch and a compatibility check, leave the memo
    # no entry for any other b, and g grows to Mann's lcm(1..3) * lcm(1, 2)
    # = 12 rather than to the lcm of the scales, about 4300 bits
    for n in range(3, 3000):
        assert report_measure_spectrality(ScaleDigitSystem(n if n % 2 else -n, (0, 1, 2))).status
    memo = cyclotomic_module._order_memo((0, 1, 2))
    kept = [getattr(memo, name) for name in memo.__slots__]
    assert {key for table in kept if isinstance(table, dict) for key in table} <= {1, 2, 3, 4, 6}
    assert memo.found == [2, 3]
    assert memo.g == 12


def test_traces_match_the_radical_reference_exhaustively():
    # every D in [0, 11] with 0 in D at six scales with two or three primes:
    # each b <= n asked singly of one OrderTest, whether or not it divides
    # n, then the batch at n of a fresh one, against the former
    # radical-basis test of every b > 1
    scales = (36, 45, 48, 56, 60, 64)
    primes = {b: sorted(trial_factorize(b)) for b in range(2, max(scales) + 1)}
    vanishing = 0
    for size in range(12):
        for rest in itertools.combinations(range(1, 12), size):
            digits = (0, *rest)
            terms = [(d, 1) for d in digits]
            exact = {b for b in primes if radical_order_divides(terms, b, primes[b])}
            for n in scales:
                expected = sorted(b for b in exact if n % b == 0)
                single = cyclotomic_module.OrderTest(digits)
                assert [b for b in range(1, n + 1) if single(b)] == sorted(b for b in exact if b <= n), (digits, n)
                assert sorted(cyclotomic_module.OrderTest(digits).all_orders(n)) == expected, (digits, n)
                vanishing += len(expected)
    assert vanishing > 4800


def test_both_trace_forms_match_the_radical_reference_on_signed_repeated_exponents():
    # seeded sums at orders b <= 720 with negative and repeated exponents:
    # about half are random, the rest unions of cosets
    # t + (b/p) * {0, ..., p-1} for primes p <= 7 of b, which vanish at b,
    # some with a stray term added.  The class-sum form and the pair form
    # give the same trace, a sum of squares that is 0 exactly when the
    # radical-basis test finds Phi_b | P; up to b = 60 it matches the float
    # sum of |P(zeta)|^2 over the primitive b-th roots
    rng = random.Random(18)
    vanishing = 0
    for _ in range(3000):
        b = rng.randint(2, 720)
        primes = sorted(trial_factorize(b))
        small = [p for p in primes if p <= 7]
        if not small or rng.random() < 0.5:
            exps = rng.choices(range(-40, 41), k=rng.randint(1, 12))
        else:
            exps = []
            for _ in range(rng.randint(1, 3)):
                p, t = rng.choice(small), rng.randint(-b, b)
                exps += [t + j * (b // p) for j in range(p)]
            exps += rng.choices(range(-b, b), k=rng.random() < 0.3)
        exps = tuple(rng.sample(exps, len(exps)))
        reference = radical_order_divides(Counter(exps).items(), b, primes)
        trace = cyclotomic_module.OrderTest(exps)._class_trace(b, primes)
        assert trace == cyclotomic_module._pair_trace(exps, b, primes) >= 0, (exps, b)
        assert (trace == 0) == reference == order_vanishes(exps, b), (exps, b)
        if b <= 60:
            roots = [cmath.exp(2j * math.pi * a / b) for a in range(1, b + 1) if math.gcd(a, b) == 1]
            assert abs(sum(abs(sum(z**e for e in exps)) ** 2 for z in roots) - trace) < 1e-6 * (1 + trace)
        vanishing += reference
    assert vanishing > 800
