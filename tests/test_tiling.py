import cmath
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from cantorspec import (
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
    prime_power_sets,
    reduce_s,
    report_measure_spectrality,
)
from cantorspec import tiling
from oracles import symbol_vanishes_at

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
    for size in range(1, 5):
        for rest in itertools.combinations(range(1, 16), size - 1):
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

    def counting(digs, modulus):
        calls.append(modulus)
        return is_complementing(digs, modulus)

    monkeypatch.setattr(tiling, "is_complementing", counting)
    construction = construct_spectrum_set(ScaleDigitSystem(scale, digits))
    assert len(calls) == len(set(calls)), calls
    assert calls[-1] == construction.modulus_l
    assert construction.complement_e0 == is_complementing(digits, construction.modulus_l)


@pytest.mark.parametrize(
    "scale,digits",
    [(s, d) for s, d, _ in CONSTRUCTION_CASES] + [(-8640, (0, 1, 2, 6, 7, 8)), (2592, (0, 9, 18, 27))],
)
def test_construction_reads_prime_powers_from_the_vanishing_orders(monkeypatch, scale, digits):
    system = ScaleDigitSystem(scale, digits)
    modulus_l = find_modulus_l(system)
    expected = prime_power_sets(digits, modulus_l)

    def refuse(exponents, b):
        raise AssertionError("the construction re-tested an order")

    monkeypatch.setattr(tiling, "order_vanishes", refuse)
    construction = construct_spectrum_set(system)
    assert (construction.p_powers, construction.q_powers) == expected


def test_prime_power_sets_examples():
    assert prime_power_sets((0, 2), 4) == ((4,), ())
    assert prime_power_sets((0, 1, 2, 3), 4) == ((2, 4), ())
    assert prime_power_sets((0, 1, 2, 3, 4, 5), 6) == ((2,), (3,))


def test_prime_power_sets_rejects_three_primes():
    with pytest.raises(PreconditionError, match="two"):
        prime_power_sets(tuple(range(30)), 30)


def test_prime_power_sets_consistency_guard():
    # |D| = 4 needs two dividing powers of 2, but only Phi_2 divides here
    with pytest.raises(ConsistencyError):
        prime_power_sets((0, 1, 2, 5), 4)


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
