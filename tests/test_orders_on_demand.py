"""Vanishing orders decided on demand against the former batch.

A system decides each order b the first time a caller asks about it; the
reference is the batch that decided every divisor of |N| in reach at once
(`oracles.vanishing_orders`).  Every D in [0, 10] with 0 in D is checked
at every |N| <= 120, at 2^a * 3^b and at the product of the first 16
primes: the single answers asked before and after the batch, the batch
itself, compatibility, the tiling modulus and the construction.  A
system's memo, which answers any order, is checked against the
radical-basis test at the orders up to 120 that need not divide |N|.
Systems with equal digits share one memo per process, so each system here
gets a cold memo of its own: two orders of questions meet two memos.
"""

import itertools
import math

from cantorspec import (
    PreconditionError,
    ScaleDigitSystem,
    SpectrumCandidate,
    construct_spectrum_set,
    find_modulus_l,
    is_compatible,
)
from cantorspec.cyclotomic import OrderTest
from oracles import divisors, radical, radical_order_divides, trial_factorize, vanishing_orders

DIGIT_SETS = [(0, *rest) for size in range(11) for rest in itertools.combinations(range(1, 11), size)]
PRIMORIAL_16 = math.prod([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53])
# s <= 10 reaches only the orders b with phi(b) <= 10, all below 2 * 10^2
ASKED_PAST_THE_REACH = 200


def reference_tiling(size, orders):
    """(L, per-prime powers) from the (T1) and (T2) conditions read off a
    set of vanishing orders, or None when they fail."""
    groups = []
    for p, alpha in sorted(trial_factorize(size).items()):
        powers = tuple(sorted(b for b in orders if radical(b) == p))
        if len(powers) != alpha:
            return None
        groups.append(powers)
    if len(groups) == 2 and any(s * t not in orders for s in groups[0] for t in groups[1]):
        return None
    return math.prod(group[-1] for group in groups), groups


def reference_certificate(scale, elements, orders):
    """The zero differences of a compatible S, or None."""
    m = abs(scale)
    entries = []
    for i, a in enumerate(elements):
        for c in elements[i + 1 :]:
            b = m // math.gcd(c - a, m)
            if b not in orders:
                return None
            entries.append((a, c, b))
    return tuple(entries)


def cold(scale, digits):
    """A system holding a memo of its own, which no other system has asked."""
    system = ScaleDigitSystem(scale, digits)
    system.__dict__["_order_test"] = OrderTest(system.digits)
    return system


def check_system(scale, digits, asked, orders):
    """Compare one system with the reference orders; `asked` are the orders
    put to it one by one."""
    first = cold(scale, digits)  # single answers, then the batch
    assert [b for b in asked if first.is_vanishing_order(b)] == sorted(orders), (scale, digits)
    assert first.vanishing_orders == orders, (scale, digits)

    # the callers' own questions, then the batch, then single answers
    system = cold(scale, digits)
    candidates = [digits, tuple(range(len(digits)))]
    tiling = reference_tiling(len(digits), orders)
    assert find_modulus_l(system) == (None if tiling is None else tiling[0]), (scale, digits)
    if tiling is None:
        try:
            construct_spectrum_set(system)
        except PreconditionError:
            pass
        else:
            raise AssertionError(f"({scale}, {digits}) built a construction without (T1) and (T2)")
    else:
        modulus_l, groups = tiling
        construction = construct_spectrum_set(system)
        elements = [0]
        for power in itertools.chain(*groups):
            elements = [s + a * (scale // power) for s in elements for a in range(radical(power))]
        assert construction.modulus_l == modulus_l
        assert (construction.p_powers, construction.q_powers) == (*groups, (), ())[:2]
        assert construction.result_s == tuple(sorted(elements))
        assert construction.certificate.zero_differences == reference_certificate(
            scale, construction.result_s, orders
        )
        candidates.append(construction.result_s)
    for elements in candidates:
        cert = is_compatible(system, SpectrumCandidate(elements))
        expected = reference_certificate(scale, tuple(sorted(elements)), orders)
        assert (cert and cert.zero_differences) == expected, (scale, digits, elements)
    assert system.vanishing_orders == orders, (scale, digits)
    assert [b for b in asked if system.is_vanishing_order(b)] == sorted(orders), (scale, digits)


def check_scales(scales, asked=divisors):
    """Every digit set at each scale.  The reference batch runs once per
    digit set, at the lcm of the scales: b divides a scale and is one of
    its vanishing orders exactly when b is an order of the lcm dividing it."""
    lcm = math.lcm(*scales)
    questions = [asked(abs(scale)) for scale in scales]
    for digits in DIGIT_SETS:
        everywhere = vanishing_orders(digits, lcm)
        for scale, orders_asked in zip(scales, questions):
            orders = frozenset(b for b in everywhere if scale % b == 0)
            check_system(scale, digits, orders_asked, orders)


def test_orders_on_demand_match_the_batch_up_to_120():
    check_scales([scale if scale % 7 else -scale for scale in range(2, 121)])


def test_orders_on_demand_match_the_batch_at_2a_3b():
    scales = [2**a * 3**b for a, b in itertools.product(range(8), range(5))]
    check_scales([scale for scale in scales if scale > 120])


def test_orders_on_demand_match_the_batch_at_the_16_primorial():
    small = [b for b in divisors(PRIMORIAL_16) if b <= ASKED_PAST_THE_REACH]
    check_scales([PRIMORIAL_16], lambda scale: [*small, scale // 53, scale])


def test_a_systems_memo_answers_orders_that_do_not_divide_the_scale():
    # the memo belongs to the digit set, not to |N|: each b <= 120, asked of
    # it before the batch at |N| and after it, matches the radical-basis
    # reference whether or not b divides |N|, while `is_vanishing_order`
    # and the batch still answer only the b dividing |N|
    asked = range(1, 121)
    primes = {b: sorted(trial_factorize(b)) for b in asked[1:]}
    for digits in DIGIT_SETS:
        terms = [(d, 1) for d in digits]
        exact = [b for b in asked[1:] if radical_order_divides(terms, b, primes[b])]
        for scale in (12, -35, 64):
            divides = [b for b in exact if scale % b == 0]
            before, after = cold(scale, digits), cold(scale, digits)
            assert [b for b in asked if before._order_test(b)] == exact, (scale, digits)
            assert before.vanishing_orders == after.vanishing_orders == frozenset(divides), (scale, digits)
            assert [b for b in asked if after._order_test(b)] == exact, (scale, digits)
            for system in (before, after):
                assert [b for b in asked if system.is_vanishing_order(b)] == divides, (scale, digits)


def test_a_memo_warmed_at_other_scales_answers_every_order_as_the_radical_test():
    # the shared memo of each digit set, after the batches and single
    # questions of systems at three scales, answers each b <= 120 as the
    # radical-basis reference does
    asked = range(2, 121)
    primes = {b: sorted(trial_factorize(b)) for b in asked}
    for digits in DIGIT_SETS:
        for scale in (12, -35, 64):
            warm = ScaleDigitSystem(scale, digits)
            warm.vanishing_orders
            warm.is_vanishing_order(abs(scale))
        terms = [(d, 1) for d in digits]
        exact = [b for b in asked if radical_order_divides(terms, b, primes[b])]
        memo = ScaleDigitSystem(120, digits)._order_test
        assert memo is warm._order_test
        assert [b for b in asked if memo(b)] == exact, digits
