import dataclasses
import importlib
import math
import pickle
from fractions import Fraction

import pytest

from cantorspec import (
    PreconditionError,
    RationalInterval,
    ScaleDigitSystem,
    SpectrumCandidate,
    TruncationPolicy,
    is_compatible,
    report_measure_spectrality,
)

# the package re-exports the function `cyclotomic`, which shadows the module
cyclotomic_module = importlib.import_module("cantorspec.cyclotomic")


def test_system_normalizes_and_validates():
    system = ScaleDigitSystem(4, (2, 0, -1))
    assert system.digits == (-1, 0, 2)
    assert system.modulus == 4
    assert system.size == 3
    assert ScaleDigitSystem(-5, (0,)).modulus == 5
    for scale in (0, 1, -1):
        with pytest.raises(PreconditionError):
            ScaleDigitSystem(scale, (0, 1))
    with pytest.raises(PreconditionError):
        ScaleDigitSystem(4, ())
    with pytest.raises(PreconditionError):
        ScaleDigitSystem(4, (0, 0, 1))
    with pytest.raises(PreconditionError):
        ScaleDigitSystem(4, (0, 1.5))


def test_candidate_normalizes_and_validates():
    assert SpectrumCandidate((4, -2, 0)).elements == (-2, 0, 4)
    with pytest.raises(PreconditionError):
        SpectrumCandidate(())
    with pytest.raises(PreconditionError):
        SpectrumCandidate((1, 1))


def test_truncation_policy_validates():
    policy = TruncationPolicy()
    assert policy.depth == 8 and policy.product_epsilon == 1e-12
    with pytest.raises(PreconditionError):
        TruncationPolicy(depth=0)
    with pytest.raises(PreconditionError):
        TruncationPolicy(product_epsilon=0.0)
    with pytest.raises(PreconditionError):
        TruncationPolicy(product_epsilon=1.5)


def test_rational_interval():
    interval = RationalInterval(Fraction(-2, 3), Fraction(7, 3))
    assert (math.ceil(interval.lo), math.floor(interval.hi)) == (0, 2)
    assert interval.lo <= Fraction(1, 2) <= interval.hi
    assert not interval.lo <= 3 <= interval.hi
    doubled = interval.scaled(2)
    assert (doubled.lo, doubled.hi) == (Fraction(-4, 3), Fraction(14, 3))
    with pytest.raises(PreconditionError):
        RationalInterval(Fraction(1), Fraction(0))
    with pytest.raises(PreconditionError):
        interval.scaled(0)


def count_calls(monkeypatch, module, name):
    """Replace module.name with a wrapper that records its arguments."""
    calls = []
    wrapped = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return wrapped(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_report_builds_vanishing_orders_once(monkeypatch):
    factorings = count_calls(monkeypatch, cyclotomic_module, "factorize")
    exact = count_calls(monkeypatch, cyclotomic_module, "_class_squares")
    system = ScaleDigitSystem(12, (0, 1, 2))
    report = report_measure_spectrality(system)
    assert report.candidate is not None and report.certificate is not None
    # the batch factorises g = gcd(|N|, lcm(1, 2, 3) * lcm(1, 2)) = 12 once
    assert factorings == [(12,)]
    # s = 2 reaches the orders b with phi(b) <= 2; 12 is out of reach.  The
    # window search's batch sums each in reach once, and the certificate
    # reads its orders from the memo
    assert sorted(args[1] for args in exact) == [2, 3, 4, 6]
    reduced = report.certificate.system
    assert is_compatible(reduced, report.candidate) == report.certificate
    assert reduced.vanishing_orders == frozenset({3})
    assert [reduced.is_vanishing_order(b) for b in (1, 2, 3, 4, 6, 12, 5)] == [False, False, True] + [False] * 4
    # asked again, summed never; 12 divides g, so its out-of-reach question
    # factorises its own order before phi(12) = 4 > 2 refuses it
    assert len(exact) == 4 and factorings == [(12,), (12,)]


def test_wide_digits_at_a_prime_scale_never_factorise_the_scale(monkeypatch):
    # former cliff: 10^16 + 61 was trial-divided up to 10^8 = s; every
    # vanishing order divides gcd(|N|, lcm(1, 2) * 10^8) = 1 instead
    factorings = count_calls(monkeypatch, cyclotomic_module, "factorize")
    summed = count_calls(monkeypatch, cyclotomic_module, "_class_squares")
    paired = count_calls(monkeypatch, cyclotomic_module, "_pair_trace")
    n = 10**16 + 61
    system = ScaleDigitSystem(n, (0, 10**8))
    assert [system.is_vanishing_order(b) for b in (n, 2, 1)] == [False] * 3
    assert system.vanishing_orders == frozenset()
    assert factorings == [(1,)] and summed == paired == []


def test_an_order_in_reach_is_refuted_by_the_exact_test(monkeypatch):
    # phi(2) = 1 <= s = 4 puts the order 2 in reach, and the exact test
    # refutes it: z + 1 does not divide 1 + z^2 + z^4, whose value at -1 is 3.
    # The batch sums F(2) = 2 * 3^2, and T_2 = F(2) - F(1) = 18 - 9 = 9
    exact = count_calls(monkeypatch, cyclotomic_module, "_class_squares")
    assert ScaleDigitSystem(2, (0, 2, 4)).vanishing_orders == frozenset()
    assert [args[1] for args in exact] == [2]


def test_cached_vanishing_orders_leave_value_semantics_alone():
    system = ScaleDigitSystem(12, (0, 1, 2))
    fresh = ScaleDigitSystem(12, (0, 1, 2))
    orders = system.vanishing_orders
    assert orders == frozenset({3})
    assert system.vanishing_orders is orders
    assert system == fresh and hash(system) == hash(fresh)
    assert repr(system) == repr(fresh) == "ScaleDigitSystem(scale=12, digits=(0, 1, 2))"
    restored = pickle.loads(pickle.dumps(system))
    assert restored == system and restored.vanishing_orders == orders
    replaced = dataclasses.replace(system, digits=(0, 1))
    assert replaced == ScaleDigitSystem(12, (0, 1))
    assert replaced.vanishing_orders == frozenset({2})
    assert dataclasses.replace(system) == system
