import copy
import dataclasses
import importlib
import math
import pickle
import pprint
from fractions import Fraction

import pytest

from cantorspec import (
    CanonicalForm,
    CompatibilityCertificate,
    PreconditionError,
    RationalInterval,
    ScaleDigitSystem,
    SpectralityReport,
    SpectrumCandidate,
    SpectrumVerdict,
    TruncationPolicy,
    attractor_bounds,
    construct_spectrum_set,
    decide_spectrum,
    is_compatible,
    is_complementing,
    lambda_enumerate,
    mu_hat,
    order_vanishes,
    pair_power,
    reduce_s,
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
    with pytest.raises(PreconditionError):
        RationalInterval(Fraction(1), Fraction(0))


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
    # the batch factorises reach(12) = gcd(|N|, lcm(1, 2, 3) * lcm(1, 2)) = 12 once
    assert factorings == [(12,)]
    # s = 2 reaches the orders b with phi(b) <= 2; 12 is out of reach.  The
    # window search's batch sums each in reach once, and the certificate
    # reads its orders from the memo
    assert sorted(args[1] for args in exact) == [2, 3, 4, 6]
    reduced = report.certificate.system
    assert is_compatible(reduced, report.candidate) == report.certificate
    assert reduced.vanishing_orders == frozenset({3})
    assert [reduced.is_vanishing_order(b) for b in (1, 2, 3, 4, 6, 12, 5)] == [False, False, True] + [False] * 4
    # asked again, summed never; the batch found the primes 2 and 3 of 12,
    # so its out-of-reach question factorises nothing before phi(12) = 4 > 2
    # refuses it
    assert len(exact) == 4 and factorings == [(12,)]


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
    assert factorings == [] and summed == paired == []


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


def record_instances():
    """One instance of each public value type, from real calls."""
    report = report_measure_spectrality(ScaleDigitSystem(4, (0, 2)))
    verdict = decide_spectrum(ScaleDigitSystem(4, (0, 1)), SpectrumCandidate((0, 6)))
    construction = construct_spectrum_set(ScaleDigitSystem(12, (0, 1, 2, 3, 4, 5)))
    product = mu_hat(ScaleDigitSystem(4, (0, 1)), 0)
    certificate = report.certificate
    return [
        certificate.system, certificate.candidate, TruncationPolicy(), verdict.bounds, certificate,
        report.canonical, verdict, report, product, construction,
    ]


# as the former frozen dataclasses printed them
RECORD_REPRS = [
    "ScaleDigitSystem(scale=4, digits=(0, 1))",
    "SpectrumCandidate(elements=(-2, 0))",
    "TruncationPolicy(depth=8, product_epsilon=1e-12)",
    "RationalInterval(lo=Fraction(0, 1), hi=Fraction(2, 1))",
    "CompatibilityCertificate(system=ScaleDigitSystem(scale=4, digits=(0, 1)), "
    "candidate=SpectrumCandidate(elements=(-2, 0)), zero_differences=((-2, 0, 2),))",
    "CanonicalForm(reduced_digits=(0, 1), offset=0, scale_factor=2)",
    "SpectrumVerdict(spectral=False, witness=((2, 6),), searched=(0, 2), "
    "bounds=RationalInterval(lo=Fraction(0, 1), hi=Fraction(2, 1)))",
    "SpectralityReport(status='spectral-with-certificate', scale=4, "
    "canonical=CanonicalForm(reduced_digits=(0, 1), offset=0, scale_factor=2), "
    "candidate=SpectrumCandidate(elements=(-2, 0)), "
    "certificate=CompatibilityCertificate(system=ScaleDigitSystem(scale=4, digits=(0, 1)), "
    "candidate=SpectrumCandidate(elements=(-2, 0)), zero_differences=((-2, 0, 2),)), "
    "verdict=SpectrumVerdict(spectral=True, witness=None, searched=(0, 0), "
    "bounds=RationalInterval(lo=Fraction(-2, 3), hi=Fraction(0, 1))))",
    "TruncatedProduct(value=(1+0j), error_bound=0.0, factors=0)",
    "TilingConstruction(modulus_l=6, complement_e0=(0,), p_powers=(2,), q_powers=(3,), "
    "result_s=(0, 4, 6, 8, 10, 14), "
    "certificate=CompatibilityCertificate(system=ScaleDigitSystem(scale=12, digits=(0, 1, 2, 3, 4, 5)), "
    "candidate=SpectrumCandidate(elements=(0, 4, 6, 8, 10, 14)), "
    "zero_differences=((0, 4, 3), (0, 6, 2), (0, 8, 3), (0, 10, 6), (0, 14, 6), (4, 6, 6), (4, 8, 3), "
    "(4, 10, 2), (4, 14, 6), (6, 8, 6), (6, 10, 3), (6, 14, 3), (8, 10, 6), (8, 14, 2), (10, 14, 3))))",
]


def test_records_keep_repr_equality_hashing_and_immutability():
    records = record_instances()
    assert [repr(record) for record in records] == RECORD_REPRS
    assert len({type(record) for record in records}) == 10
    for record, twin in zip(records, record_instances()):
        names = type(record).__match_args__
        values = tuple(getattr(record, name) for name in names)
        assert twin is not record and twin == record and hash(twin) == hash(record) == hash(values)
        assert record != values and values != record
        assert type(record)(**dict(zip(names, values))) == record
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(clone) is type(record) and clone == record and repr(clone) == repr(record)
        for name in (names[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, names[0])
        assert repr(record) == repr(twin)
    # equal field values in another record class, or a subclass, are not equal
    canonical = CanonicalForm((0, 1), 0, 2)
    assert canonical != CompatibilityCertificate((0, 1), 0, 2) and CompatibilityCertificate((0, 1), 0, 2) != canonical
    assert ScaleDigitSystem(4, (0, 1)) != type("Sub", (ScaleDigitSystem,), {})(4, (0, 1))
    match records[6]:
        case SpectrumVerdict(False, witness, searched, _):
            assert (witness, searched) == (((2, 6),), (0, 2))
        case _:
            raise AssertionError("SpectrumVerdict lost its positional match pattern")


def test_dataclasses_functions_take_the_records():
    for record in record_instances():
        names = type(record).__match_args__
        assert dataclasses.is_dataclass(record) and dataclasses.is_dataclass(type(record))
        assert tuple(field.name for field in dataclasses.fields(record)) == names
        assert tuple(dataclasses.asdict(record)) == names
        assert dataclasses.replace(record) == record
        assert pprint.pformat(record, width=20) == repr(record)
    assert dataclasses.replace(TruncationPolicy(), depth=3) == TruncationPolicy(3)
    with pytest.raises(PreconditionError, match="depth must be a positive integer, got 0"):
        dataclasses.replace(TruncationPolicy(), depth=0)


def test_record_copies_keep_cached_orders_and_defaults_hold():
    system = ScaleDigitSystem(12, (0, 1, 2))
    orders = system.vanishing_orders
    for clone in (pickle.loads(pickle.dumps(system)), copy.copy(system), copy.deepcopy(system)):
        assert clone == system and clone.vanishing_orders == orders
    assert TruncationPolicy(depth=3) == TruncationPolicy(3, 1e-12)
    assert TruncationPolicy(product_epsilon=1e-6) == TruncationPolicy(8, 1e-6)
    report = SpectralityReport("no-compatible-pair-found", 3, CanonicalForm((0, 1), 0, 2))
    assert (report.candidate, report.certificate, report.verdict) == (None, None, None)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: ScaleDigitSystem(1.5, (0,)), "scale must be an integer with |N| >= 2, got 1.5"),
        (lambda: ScaleDigitSystem(True, (0,)), "scale must be an integer with |N| >= 2, got True"),
        (lambda: ScaleDigitSystem(-1, ()), "scale must be an integer with |N| >= 2, got -1"),
        (lambda: ScaleDigitSystem(4, ()), "digit set must be nonempty"),
        (lambda: ScaleDigitSystem(4, (0, 0, 1)), "digit set must be pairwise distinct, got [0, 0, 1]"),
        (lambda: ScaleDigitSystem(4, (0, 1.5)), "digit set must consist of integers, got 1.5"),
        (lambda: SpectrumCandidate((1, 1)), "candidate set must be pairwise distinct, got [1, 1]"),
        (lambda: TruncationPolicy(depth=0), "depth must be a positive integer, got 0"),
        (lambda: TruncationPolicy(2.0, 1.5), "depth must be a positive integer, got 2.0"),
        (lambda: TruncationPolicy(product_epsilon=1.5), "product_epsilon must lie in (0, 1), got 1.5"),
        (lambda: RationalInterval(2, 1), "interval endpoints out of order: 2 > 1"),
    ],
)
def test_record_validation_messages(build, message):
    with pytest.raises(PreconditionError) as excinfo:
        build()
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: order_vanishes((0, 1.5), 2), "exponents must consist of integers, got 1.5"),
        (lambda: order_vanishes((0, True), 2), "exponents must consist of integers, got True"),
        (lambda: is_complementing((0, 1.5), 4), "digit set must consist of integers, got 1.5"),
        (lambda: is_complementing((0, True), 2), "digit set must consist of integers, got True"),
        (lambda: reduce_s(4.0, SpectrumCandidate((0, 2))), "scale must be an integer with |N| >= 2, got 4.0"),
        # a bool is not an integer where one number is asked either
        (lambda: is_complementing((0,), True), "modulus must be a positive integer, got True"),
        (lambda: order_vanishes((0, 1), True), "root order must be a positive integer, got True"),
        (lambda: TruncationPolicy(depth=True), "depth must be a positive integer, got True"),
        (lambda: lambda_enumerate(True, SpectrumCandidate((0, 1)), 2),
         "scale must be an integer with |N| >= 2, got True"),
        (lambda: lambda_enumerate(4.0, SpectrumCandidate((0, 1)), 2),
         "scale must be an integer with |N| >= 2, got 4.0"),
        (lambda: lambda_enumerate(4, SpectrumCandidate((0, 1)), True), "depth must be a positive integer, got True"),
        (lambda: attractor_bounds(True, (0, 1)), "scale must be an integer with |N| >= 2, got True"),
        (lambda: attractor_bounds(4.0, (0, 1)), "scale must be an integer with |N| >= 2, got 4.0"),
        (lambda: attractor_bounds(4, (0, 1.5)), "element set must consist of integers, got 1.5"),
        (lambda: attractor_bounds(4, (0, True)), "element set must consist of integers, got True"),
        # nor is an empty set taken where a nonempty one is asked
        (lambda: attractor_bounds(4, ()), "element set must be nonempty"),
        (lambda: is_complementing((), 4), "digit set must be nonempty"),
        # equal to 1, yet not the integer 1
        pytest.param(lambda: decide_spectrum(ScaleDigitSystem(4, (0, 1)), SpectrumCandidate((0, 2)), True),
                     "range_factor must be a positive integer, got True", id="decide-range-factor-True"),
        pytest.param(lambda: decide_spectrum(ScaleDigitSystem(4, (0, 1)), SpectrumCandidate((0, 2)), 1.0),
                     "range_factor must be a positive integer, got 1.0", id="decide-range-factor-1.0"),
        (lambda: pair_power(ScaleDigitSystem(4, (0, 1)), SpectrumCandidate((0, 2)), True),
         "power must be a positive integer, got True"),
    ],
)
def test_public_functions_refuse_non_integers(call, message):
    # the records' integer check; the multisets these functions take stay
    # multisets: order_vanishes counts repeats, is_complementing has no
    # complement for them
    with pytest.raises(PreconditionError) as excinfo:
        call()
    assert str(excinfo.value) == message
    assert order_vanishes((0, 0, 1, 1), 2) and not order_vanishes((0, 0, 1), 2)
    assert is_complementing((0, 0), 2) is None
