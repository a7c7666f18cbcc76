import importlib
import itertools
import math

import pytest

from cantorspec import (
    ConsistencyError,
    PreconditionError,
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
    decide_spectrum,
    is_compatible,
    q_eval_with_bound,
    reduce_s,
    report_measure_spectrality,
    search_candidate_s,
    verify_witness,
)

compat_module = importlib.import_module("cantorspec.compat")
decide_module = importlib.import_module("cantorspec.decide")

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


# Differential checks against the former search, kept here as the
# reference: walk every nonzero integer of the (dilated) hull from the
# smallest in (|eta|, eta) order, stepping with `successor`, until a walk
# closes a cycle.


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
    searched = bounds.scaled(range_factor) if range_factor != 1 else bounds
    lo = math.ceil(searched.lo)
    hi = math.floor(searched.hi)
    nodes = sorted((eta for eta in range(lo, hi + 1) if eta != 0), key=lambda e: (abs(e), e))
    dead = set()
    for start in nodes:
        if start in dead:
            continue
        path = []
        position = {}
        cur = start
        while True:
            if cur in position:
                cycle = path[position[cur] :]
                first = min(range(len(cycle)), key=lambda i: (abs(cycle[i][0]), cycle[i][0]))
                witness = tuple(cycle[first:] + cycle[:first])
                return SpectrumVerdict(False, witness, (lo, hi), bounds)
            if cur == 0 or cur in dead or not lo <= cur <= hi:
                dead.update(eta for eta, _ in path)
                break
            step = successor(system.scale, candidate, cur)
            if step is None:
                dead.update(eta for eta, _ in path)
                dead.add(cur)
                break
            position[cur] = len(path)
            path.append((cur, step[1]))
            cur = step[0]
    return SpectrumVerdict(True, None, (lo, hi), bounds)


def lifted_window_pairs(scale, max_digit, sizes, lifts):
    """Each system (scale, D) with 0 in D, gcd(D) = 1 and D in [0, max_digit],
    with each window candidate's nonzero elements moved by every choice of
    multiples of |N| from `lifts` (residues, hence compatibility, kept)."""
    m = abs(scale)
    for size in sizes:
        for rest in itertools.combinations(range(1, max_digit + 1), size - 1):
            if math.gcd(*rest) != 1:
                continue
            system = ScaleDigitSystem(scale, (0, *rest))
            for window in search_candidate_s(system):
                nonzero = [s for s in window.elements if s]
                for shifts in itertools.product(lifts, repeat=len(nonzero)):
                    elements = {0, *(s + k * m for s, k in zip(nonzero, shifts))}
                    if len(elements) == window.size:
                        yield system, SpectrumCandidate(tuple(elements))


def test_decide_matches_reference_exhaustively():
    scales = [n for k in range(3, 10) for n in (k, -k)] + [10, 12, -12]
    compared = negatives = 0
    for scale in scales:
        for system, candidate in lifted_window_pairs(scale, 7, (2, 3, 4), (-2, 0, 3)):
            for range_factor in (1, 2, 3):
                expected = reference_decide(system, candidate, range_factor)
                assert decide_spectrum(system, candidate, range_factor) == expected, (
                    system,
                    candidate,
                    range_factor,
                )
                compared += 1
                negatives += not expected.spectral
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


@pytest.mark.parametrize(
    "scale,elements",
    [
        (4, (-2, -1, 0, 1)),
        (4, (0, 1, 2, 3)),
        (4, (0, 5, -6, 7)),
        (4, (0, -3, 14, -37)),
        (4, (0, 41, -30, 123)),
        (-4, (-11, -5, 0, 2)),  # a cycle through the top of the hull, 3
        (-4, (-10, -5, 0, 9)),
    ],
)
def test_tile_pairs_match_reference(scale, elements):
    # |S| = |N|: the cylinders of each level tile the hull and touch, so no
    # refinement shrinks the integers to walk
    system = ScaleDigitSystem(scale, (0, 1, 2, 3))
    candidate = SpectrumCandidate(elements)
    for range_factor in (1, 2):
        expected = reference_decide(system, candidate, range_factor)
        assert decide_spectrum(system, candidate, range_factor) == expected


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
                        bounds = attractor_bounds(scale, cand.elements)
                        assert -1 < bounds.lo <= bounds.hi < 1, (system, cand)
                        assert decide_module._cycle_verdict(system, cand, 1).spectral, (system, cand)
                        decided += 1
    assert decided > 2000


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

    def counting_candidate(elements):
        built.append(elements)
        return SpectrumCandidate(elements)

    def counting_certificate(system, candidate):
        certified.append(candidate)
        return is_compatible(system, candidate)

    monkeypatch.setattr(compat_module, "SpectrumCandidate", counting_candidate)
    monkeypatch.setattr(decide_module, "is_compatible", counting_certificate)
    system = ScaleDigitSystem(72, (0, 1, 24, 25, 48, 49))  # 4232 window candidates
    report = report_measure_spectrality(system)
    assert report.status == STATUS_SPECTRAL
    assert len(built) == 1 and certified == [report.candidate]
    assert report.candidate == search_candidate_s(system)[0]
