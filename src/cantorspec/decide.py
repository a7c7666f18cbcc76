"""Spectrality decisions through the integer-cycle criterion.

For a compatible pair with 0 in D, gcd(D) = 1 and 0 in S, the candidate
spectrum fails to be a spectrum exactly when the successor map
eta -> (eta + s)/N (the unique s in S making the division exact) admits a
cycle of nonzero integers.  Let K be the attractor of the maps
x -> (x+s)/N.  The successor map sends the finite set of K's integers onto
itself (eta in K is (y + s)/N with y = N*eta - s in K), so K's nonzero
integers are exactly the points of these cycles.  K lies in its exact
rational hull H (`attractor_bounds`), which holds 0 since 0 is in S.  When
H lies strictly inside (-1, 1), as it does for every candidate of
Laba-Wang's window [2-|N|, |N|-2], 0 is K's only integer and the pair is
decided spectral from H alone: no search runs and no budget is read.
Otherwise `_cycles` returns the cycles as pairs (eta, s), each in successor
order, from one walk over the survivors of a search that meets in the
middle and works in the integers of H, both of whose halves are slices
Lambda_k = {s_0 + s_1 N + ... + s_{k-1} N^(k-1)} of the candidate spectrum
(`compat._slice`).  From above it takes K's level-L cylinders
(H + Lambda_L)/N^L, overlapping ones joined so that each integer counts
once; from below it keeps those whose residue mod |N|^k admits k steps,
the residues -Lambda_k mod |N|^k, a share of about (|S|/|N|)^k, stepping
from one such residue to the next.
L + k is at most two more than the level that the budget reads, where a
further split stops shrinking the cylinders' integers.  The verdict is
spectral when there is no cycle, 0 being K's only integer, and both
outcomes carry machine-checkable evidence.  A spectral verdict reports the
integer range of H (dilated by the regression hook `range_factor`) as
`searched`: no integer in it lies on a nonzero cycle or leads into one.  A
negative verdict carries the first cycle as its witness: the one through
K's smallest nonzero integer in (|eta|, eta) order, starting there.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction

from .compat import CompatibilityCertificate, _certify, _slice, _window_candidates, is_compatible
from .systems import (
    ConsistencyError,
    PreconditionError,
    RationalInterval,
    ScaleDigitSystem,
    SpectrumCandidate,
    _Record,
    _as_int_tuple,
    _check_scale,
    _check_slice_budget,
    _int_items,
)


class CanonicalForm(_Record):
    """Affine normal form of a digit set: digits = offset + scale_factor * reduced."""

    __match_args__ = ("reduced_digits", "offset", "scale_factor")

    def __init__(self, reduced_digits: tuple[int, ...], offset: int, scale_factor: int):
        self.__dict__.update(reduced_digits=reduced_digits, offset=offset, scale_factor=scale_factor)


def canonicalize_digits(digits) -> CanonicalForm:
    """Translate and rescale a digit set so that 0 is a digit and gcd is 1.

    Subtracts the minimum, then divides by the gcd of the translated set
    (taken as 1 for the singleton {0}).  Spectra transform along: scaling
    the digits by a scales any spectrum by 1/a, and translation leaves
    spectra untouched.
    """
    return _canonical(_as_int_tuple(digits, "digit set"))


def _canonical(digits: tuple[int, ...]) -> CanonicalForm:
    """`canonicalize_digits` of a system's digits, sorted and distinct already."""
    offset = digits[0]
    translated = tuple(d - offset for d in digits)
    factor = math.gcd(*translated) or 1
    return CanonicalForm(tuple(d // factor for d in translated), offset, factor)


def attractor_bounds(scale: int, elements) -> RationalInterval:
    """Exact rational enclosure of the attractor of x -> (x+s)/N over s.

    [a/(N-1), b/(N-1)] for N > 0 and [(a+N*b)/(N^2-1), (b+N*a)/(N^2-1)] for
    N < 0, where a and b are the smallest and largest elements.  The
    interval is forward-invariant under every map, which is what the cycle
    search relies on.
    """
    elems = _int_items(elements, "element set must consist of integers")
    if not elems:
        raise PreconditionError("element set must be nonempty")
    _check_scale(scale)
    return _interval(*_hull(scale, min(elems), max(elems)))


def _hull(scale: int, a: int, b: int) -> tuple[int, int, int]:
    """`attractor_bounds` of elements with least a and greatest b, for a
    scale with |N| >= 2, as integers (den, low, high): the hull is
    [low, high]/den with den > 0 and low <= high, not reduced."""
    if scale > 0:
        return scale - 1, a, b
    return scale * scale - 1, a + scale * b, b + scale * a


def _interval(den: int, low: int, high: int) -> RationalInterval:
    """The interval [low, high]/den of `_hull`'s integers, built unchecked."""
    return RationalInterval._of(Fraction(low, den), Fraction(high, den))


class SpectrumVerdict(_Record):
    """Outcome of the cycle criterion.

    `searched` is the inclusive integer range of the attractor's hull
    `bounds`, dilated by the search's `range_factor`.  A spectral verdict
    certifies that no integer of that range lies on a cycle of nonzero
    integers or leads into one, though the search visits only the integers
    of the attractor's cylinders, and none at all when `bounds` lies
    strictly inside (-1, 1): then 0 is the attractor's only integer and
    the verdict is read off the hull.  The search returns the attractor's
    cycles of nonzero integers as pairs (eta_j, s_j) with eta_{j+1} =
    (eta_j + s_j)/N cyclically, and a negative verdict carries the first
    of them as its witness: the cycle through the attractor's smallest
    nonzero integer in (|eta|, eta) order, starting there, a function of N
    and S alone.
    """

    __match_args__ = ("spectral", "witness", "searched", "bounds")

    def __init__(
        self, spectral: bool, witness: tuple[tuple[int, int], ...] | None, searched: tuple[int, int],
        bounds: RationalInterval,
    ):
        self.__dict__.update(spectral=spectral, witness=witness, searched=searched, bounds=bounds)


def decide_spectrum(
    system: ScaleDigitSystem,
    candidate: SpectrumCandidate,
    range_factor: int = 1,
) -> SpectrumVerdict:
    """Decide whether the candidate generates a spectrum for the measure.

    Preconditions (each reported separately): 0 in D; gcd(D) = 1 (the
    degenerate point mass D = {0} is admitted); 0 in S; and (D/N, S)
    compatible, which the system's certificate slot answers without a
    second pass over S's pairs when the same elements were certified last,
    as after `construct_spectrum_set` (see `is_compatible`); the answer is
    read as the certificate's entries, and no certificate is built.
    A pair whose attractor's hull lies strictly inside (-1, 1), as every
    window candidate's does, is decided spectral from the hull: it runs no
    cycle search and so reaches no budget.  `range_factor` only dilates the
    reported `searched` range, a regression hook: the verdict and the
    witness do not depend on it.
    """
    digits = system.digits
    if 0 not in digits:
        raise PreconditionError("cycle criterion requires 0 in D; canonicalize the digits first")
    if math.gcd(*digits) != 1 and digits != (0,):
        raise PreconditionError(
            f"cycle criterion requires gcd(D) = 1, got gcd = {math.gcd(*digits)}"
        )
    if 0 not in candidate.elements:
        raise PreconditionError("cycle criterion requires 0 in S")
    if _certify(system, candidate.elements) is None:
        raise PreconditionError("cycle criterion applies to compatible pairs only")
    _int_items((range_factor,), "range_factor must be a positive integer", least=1)
    den, low, high = _hull(system.scale, candidate.elements[0], candidate.elements[-1])
    if (verdict := _window_verdict(den, low, high, range_factor)) is None:
        verdict = _verdict(_cycles(system, candidate, den, low, high), den, low, high, range_factor)
    return verdict


def _window_verdict(den: int, low: int, high: int, range_factor: int) -> SpectrumVerdict | None:
    """The spectral verdict of a pair whose hull [low, high]/den (`_hull`) lies
    strictly inside (-1, 1), as Laba-Wang's window pairs' hulls do: it holds
    no nonzero integer, so no cycle, and no search is run.  None otherwise."""
    return _verdict([], den, low, high, range_factor) if -den < low and high < den else None


def _verdict(cycles: list, den: int, low: int, high: int, range_factor: int) -> SpectrumVerdict:
    """The verdict on the hull [low, high]/den from the `_cycles` of K's
    nonzero integers: spectral when there is none, else with the first as
    its witness."""
    searched = -(-range_factor * low // den), range_factor * high // den  # [low, high]/den dilated, den > 0
    return SpectrumVerdict(not cycles, cycles[0] if cycles else None, searched, _interval(den, low, high))


def _cycles(
    system: ScaleDigitSystem, candidate: SpectrumCandidate, den: int, low: int, high: int
) -> list[tuple[tuple[int, int], ...]]:
    """The successor map's cycles of nonzero integers, whose points are K's
    nonzero integers: each a tuple of pairs (eta, s) in successor order from
    its least point in (|eta|, eta) order, the cycles sorted by that point.
    [low, high]/den is K's hull (`_hull`); the pair meets `decide_spectrum`'s
    preconditions."""
    scale, m, elems = system.scale, system.modulus, candidate.elements

    # A cycle point is the image of another cycle point, which lies in the
    # hull H = [low, low + span]/den, under L of the maps, so it lies in a
    # cylinder (H + lam)/N^L = sign * [u, u + span]/q with u = low + lam*den
    # and q = den*|N|^L.  Splitting a cylinder w = span/q wide into the |S|
    # of the next level shrinks its integers while |S|*(|N| + w) < |N|*(1 + w);
    # that holds up to a level `depth`, whose |S|^depth cylinders of
    # floor(w) + 1 integers the budget sees, shared ones once per cylinder.
    span, size, depth, q = high - low, candidate.size, 0, den
    while span * (m - size) > q * m * (size - 1):
        depth, q = depth + 1, q * m
    _check_slice_budget(size, depth, span // q + 1, "integers per cylinder")

    # The search meets in the middle: of depth + 2 steps in all, L come from
    # above as cylinder levels and k = L or L + 1 from below as residues mod
    # |N|^k; none when depth = 0, as when |S| = |N|.  A level of cylinders
    # narrower than 4 integers costs more to build, sort and join than it
    # drops, so L stops above it and the step goes to k.  Timed (L, k) on 160
    # cycles items: this split ran within 9 % of the best pair per item, and
    # the search x1.26-1.33 the former cost-model split over 920 items.
    steps = depth + 2 if depth else 0
    levels = steps // 2
    while levels and span < 4 * den * m**levels:
        levels -= 1
    # u = low + den*lam, or -u - span where N^L < 0: -[u, u + span] = [-u - span, -u]; level 0 is H
    step, shift = (-den, -low - span) if scale < 0 and levels % 2 else (den, low)
    numerators = sorted([shift + step * lam for lam in _slice(scale, elems, levels)]) if levels else [low]
    ranges, integers = _merged_ranges(numerators, span, den * m**levels)  # overlapping cylinders joined

    # A cycle point takes any number of steps: it is N^k*eta' - lam for a
    # cycle point eta' and lam in the slice Lambda_k, so its residue mod
    # |N|^k is one of the |S|^k residues -Lambda_k, distinct since S is
    # distinct mod N.  0 is among them: the maps fix it.  Step k + 1 builds
    # |S|^(k+1) entries to thin the I*(|S|/|N|)^k survivors of step k, I the
    # integers it filters: it pays about while |S|*|N|^k <= I.  Without that
    # stop lifts with |S| = 16 and 32 ran up to 16 times slower.  `_admitted`
    # reads the survivors.  The table is sorted from a set, not the list in
    # the slice's order: a set of small ints iterates about in order, so a
    # large table sorts in about 4/5 of the time.
    k, mod, top = 0, 1, m ** (steps - levels)
    while mod < top and size * mod <= integers:
        k, mod = k + 1, mod * m
    survivors = (_admitted(ranges, sorted({-lam % mod for lam in _slice(scale, elems, k)}), mod) if k
                 else {y for r in ranges for y in r})
    survivors.discard(0)

    # One pass walks the successor map over the survivors and removes each
    # node it reaches; a node with no step goes to 0, which no walk holds.
    # Every cycle of nonzero integers lies among the survivors, so the first
    # walk to touch a cycle goes round it and stops at a node it removed
    # itself: the walk's tail from there is the cycle.  One scan of the walk
    # checks that, so the pass stays linear in the survivors.
    steps = {-s % m: s for s in elems}  # eta steps by the s with eta + s = 0 (mod N)
    cycles = []
    while survivors:
        path = [eta := survivors.pop()]
        while (eta := (eta + steps.get(eta % m, -eta)) // scale) in survivors:
            survivors.remove(eta)
            path.append(eta)
        if eta in path:
            cycle = path[path.index(eta) :]
            first = cycle.index(min(cycle, key=lambda e: (abs(e), e)))
            cycles.append(tuple((e, steps[e % m]) for e in cycle[first:] + cycle[:first]))
    return sorted(cycles, key=lambda c: (abs(c[0][0]), c[0][0]))


def _merged_ranges(numerators: list[int], span: int, q: int) -> tuple[list[range], int]:
    """The integers of the cylinders [u, u + span]/q, u in the sorted `numerators`: a range per
    overlapping run, each integer in one, and their count, summed as stop - start since a
    range may pass sys.maxsize, where len() raises."""
    ranges, integers = [], 0
    first = last = numerators[0]
    for u in numerators:
        if u - last > span:
            start, stop = -(-first // q), (last + span) // q + 1
            ranges.append(range(start, stop))
            integers += stop - start
            first = u
        last = u
    start, stop = -(-first // q), (last + span) // q + 1
    ranges.append(range(start, stop))
    return ranges, integers + stop - start


def _admitted(ranges, residues: list[int], mod: int) -> set[int]:
    """The integers of the disjoint `ranges` whose residue mod `mod` is in the sorted
    `residues`: bisect to a range's first, then step residue to residue."""
    survivors, count = set(), len(residues)
    for r in ranges:
        base, i = r.start - r.start % mod, bisect_left(residues, r.start % mod)
        while True:
            if i == count:
                base, i = base + mod, 0
            if (y := base + residues[i]) >= r.stop:
                break
            survivors.add(y)
            i += 1
    return survivors


def verify_witness(system: ScaleDigitSystem, candidate: SpectrumCandidate, witness) -> bool:
    """Check a claimed cycle independently of how it was produced.

    True iff the witness is a nonempty list of (eta, s) pairs of integers
    (not bools) with every eta nonzero, every s in S, and eta_j + s_j =
    N * eta_{j+1} exactly (indices cyclic); False for anything else.
    """
    try:
        entries = [tuple(entry) for entry in witness]
    except TypeError:  # the witness or one of its entries is not a sequence
        return False
    if not entries:
        return False
    allowed = set(candidate.elements)
    for entry in entries:
        if len(entry) != 2 or not all(isinstance(v, int) and not isinstance(v, bool) for v in entry):
            return False
        eta, s = entry
        if eta == 0 or s not in allowed:
            return False
    for j, (eta, s) in enumerate(entries):
        eta_next = entries[(j + 1) % len(entries)][0]
        if eta + s != system.scale * eta_next:
            return False
    return True


STATUS_SPECTRAL = "spectral-with-certificate"
STATUS_UNIT_INTERVAL = "unit-interval"
STATUS_UNKNOWN = "no-compatible-pair-found"


class SpectralityReport(_Record):
    """Measure-level verdict.

    `spectral-with-certificate` bundles a window candidate, its
    compatibility certificate and a spectral cycle verdict for the
    canonicalized system; the affine canonical form is always included so
    callers can map the spectrum back (digits scaled by a scale any
    spectrum by 1/a).  `unit-interval` marks |N| = 2 with reduced digits
    {0, 1}, where the measure is Lebesgue on a unit interval and the
    spectrum is all of the integers.  `no-compatible-pair-found` means the
    search was exhaustive and empty: spectrality is undecided by this tool,
    not refuted.
    """

    __match_args__ = ("status", "scale", "canonical", "candidate", "certificate", "verdict")

    def __init__(
        self, status: str, scale: int, canonical: CanonicalForm, candidate: SpectrumCandidate | None = None,
        certificate: CompatibilityCertificate | None = None, verdict: SpectrumVerdict | None = None,
    ):
        self.__dict__.update(
            status=status, scale=scale, canonical=canonical, candidate=candidate, certificate=certificate,
            verdict=verdict,
        )


def report_measure_spectrality(system: ScaleDigitSystem) -> SpectralityReport:
    """Canonicalize the digits, then certify the first window candidate.

    |N| = 2 with reduced digits {0, 1} is the unit interval.  Otherwise the
    first window candidate is spectral by Laba-Wang's window condition: its
    attractor's hull lies strictly inside (-1, 1) for either sign of N, so
    it holds no nonzero integer, let alone a cycle.  The verdict is read off
    the hull by `decide_spectrum`'s own rule for such hulls, checked
    exactly on the integer numerators of its endpoints: ConsistencyError
    if it leaves (-1, 1).  At |N| = 2 the window is {0}, so only the point
    mass {0} has one.  The reduced system is the given one when its digits
    are canonical already.
    """
    scale, canon = system.scale, _canonical(system.digits)
    if system.modulus == 2 and canon.reduced_digits == (0, 1):
        return SpectralityReport(STATUS_UNIT_INTERVAL, scale, canon)
    reduced = system if canon.reduced_digits == system.digits else ScaleDigitSystem._of(scale, canon.reduced_digits)
    cand = next(_window_candidates(reduced), None)
    if cand is None:
        return SpectralityReport(STATUS_UNKNOWN, scale, canon)
    den, low, high = _hull(scale, cand.elements[0], cand.elements[-1])
    verdict = _window_verdict(den, low, high, 1)
    if verdict is None:
        bounds = _interval(den, low, high)
        raise ConsistencyError(f"window candidate {cand.elements} has a hull {bounds} outside (-1, 1)")
    return SpectralityReport(STATUS_SPECTRAL, scale, canon, cand, is_compatible(reduced, cand), verdict)
