"""Spectrality decisions through the integer-cycle criterion.

For a compatible pair with 0 in D, gcd(D) = 1 and 0 in S, the candidate
spectrum fails to be a spectrum exactly when the successor map
eta -> (eta + s)/N (the unique s in S making the division exact) admits a
cycle of nonzero integers.  Every point of such a cycle is a periodic point
of the maps x -> (x+s)/N, so it lies in their attractor K, inside the exact
rational hull H of K.  The search therefore visits only the integers of K's
level-L cylinders (H + lam)/N^L, lam = s_0 + s_1 N + ... + s_{L-1} N^(L-1),
refined breadth-first while that shrinks their integer count: about
|H|^(log|S|/log|N|) integers instead of all of H's, and never more than H
holds.  Both outcomes carry machine-checkable evidence.  A spectral
verdict reports the integer range of H (dilated by the regression hook
`range_factor`) as `searched`: no integer in it lies on a nonzero cycle or
leads into one.  A negative verdict carries the witness cycle that a walk
from the nonzero integers of that range, in increasing absolute value,
reaches first.  The hull is `attractor_bounds`, in exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .compat import CompatibilityCertificate, _window_candidates, is_compatible
from .systems import (
    ConsistencyError,
    PreconditionError,
    RationalInterval,
    ScaleDigitSystem,
    SpectrumCandidate,
    _as_int_tuple,
)


@dataclass(frozen=True)
class CanonicalForm:
    """Affine normal form of a digit set: digits = offset + scale_factor * reduced."""

    reduced_digits: tuple[int, ...]
    offset: int
    scale_factor: int


def canonicalize_digits(digits) -> CanonicalForm:
    """Translate and rescale a digit set so that 0 is a digit and gcd is 1.

    Subtracts the minimum, then divides by the gcd of the translated set
    (taken as 1 for the singleton {0}).  Spectra transform along: scaling
    the digits by a scales any spectrum by 1/a, and translation leaves
    spectra untouched.
    """
    digs = _as_int_tuple(digits, "digit set")
    offset = digs[0]
    translated = tuple(d - offset for d in digs)
    factor = math.gcd(*translated) or 1
    return CanonicalForm(tuple(d // factor for d in translated), offset, factor)


def attractor_bounds(scale: int, elements) -> RationalInterval:
    """Exact rational enclosure of the attractor of x -> (x+s)/N over s.

    [a/(N-1), b/(N-1)] for N > 0 and [(a+N*b)/(N^2-1), (b+N*a)/(N^2-1)] for
    N < 0, where a and b are the smallest and largest elements.  The
    interval is forward-invariant under every map, which is what the cycle
    search relies on.
    """
    elems = tuple(elements)
    if not elems:
        raise PreconditionError("element set must be nonempty")
    if not isinstance(scale, int) or abs(scale) < 2:
        raise PreconditionError(f"scale must be an integer with |N| >= 2, got {scale!r}")
    a, b = min(elems), max(elems)
    if scale > 0:
        return RationalInterval(Fraction(a, scale - 1), Fraction(b, scale - 1))
    den = scale * scale - 1
    return RationalInterval(Fraction(a + scale * b, den), Fraction(b + scale * a, den))


@dataclass(frozen=True)
class SpectrumVerdict:
    """Outcome of the cycle search.

    `searched` is the inclusive integer range of the attractor's hull
    `bounds`, dilated by the search's `range_factor`.  A spectral verdict
    certifies that no integer of that range lies on a cycle of nonzero
    integers or leads into one, though the search visits only the integers
    of the attractor's cylinders.  Negative verdicts carry the witness
    cycle as pairs (eta_j, s_j) with eta_{j+1} = (eta_j + s_j)/N
    cyclically.
    """

    spectral: bool
    witness: tuple[tuple[int, int], ...] | None
    searched: tuple[int, int]
    bounds: RationalInterval


def decide_spectrum(
    system: ScaleDigitSystem,
    candidate: SpectrumCandidate,
    range_factor: int = 1,
) -> SpectrumVerdict:
    """Decide whether the candidate generates a spectrum for the measure.

    Preconditions (each reported separately): 0 in D; gcd(D) = 1 (the
    degenerate point mass D = {0} is admitted); 0 in S; and (D/N, S)
    compatible.  Start nodes are taken in increasing absolute value with
    ties negative first, so the reported cycle is deterministic.
    `range_factor` dilates the searched interval and exists purely as a
    regression hook: enlarging the range must never flip a spectral verdict.
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
    if is_compatible(system, candidate) is None:
        raise PreconditionError("cycle criterion applies to compatible pairs only")
    return _cycle_verdict(system, candidate, range_factor)


def _cycle_verdict(
    system: ScaleDigitSystem, candidate: SpectrumCandidate, range_factor: int
) -> SpectrumVerdict:
    """The search of `decide_spectrum` for a pair known to meet its
    preconditions; they are not checked again here."""
    scale, m = system.scale, system.modulus
    elems = candidate.elements
    bounds = attractor_bounds(scale, elems)
    searched = bounds.scaled(range_factor) if range_factor != 1 else bounds
    lo = math.ceil(searched.lo)
    hi = math.floor(searched.hi)
    steps = {-s % m: s for s in elems}  # eta steps by the s with eta + s = 0 (mod N)

    # A cycle point is the image of another cycle point, which lies in the
    # hull H = [low, low + span]/den, under L of the maps, so it lies in a
    # cylinder (H + lam)/N^L = sign * [u, u + span]/q with u = low + lam*den
    # and q = den*|N|^L.  Splitting a cylinder w = span/q wide into the |S|
    # of the next level, w/|N| wide, shrinks the integers they cover while
    # |S|*(w/|N| + 1) < w + 1, so it stops there (at once when |S| = |N|).
    # 0 is dropped: the maps fix it.
    den = math.lcm(bounds.lo.denominator, bounds.hi.denominator)
    low = bounds.lo.numerator * (den // bounds.lo.denominator)
    span = bounds.hi.numerator * (den // bounds.hi.denominator) - low
    size = candidate.size
    numerators, power, q = [low], 1, den
    while span * (m - size) > q * m * (size - 1):
        shifts = [s * den * power for s in elems]
        numerators = [u + t for u in numerators for t in shifts]
        power *= scale
        q *= m
    sign = 1 if power > 0 else -1
    survivors = {sign * y for u in numerators for y in range(-(-u // q), (u + span) // q + 1) if y}

    # Walk the successor map restricted to the survivors.  Every cycle of
    # nonzero integers lies among them, so the first walk to touch a cycle
    # goes round it and comes back to a node it marked itself.
    seen: dict[int, int] = {}
    cycles = []
    for start in survivors:
        eta = start
        while eta in survivors and eta not in seen:
            seen[eta] = start
            s = steps.get(eta % m)
            if s is None:
                break
            eta = (eta + s) // scale
        else:
            if seen.get(eta) == start:
                cycles.append(eta)
    if not cycles:
        return SpectrumVerdict(True, None, (lo, hi), bounds)

    # The nonzero integers of [lo, hi] whose walk never dies (by leaving the
    # range, meeting 0 or finding no step) are those that reach a cycle: the
    # backward closure of the cycles under eta -> N*eta - s, which never
    # meets 0 because only s = 0 is divisible by N.  Its smallest member in
    # (|eta|, eta) order is the first start whose walk finds a cycle.
    alive = set(cycles)
    frontier = list(cycles)
    while frontier:
        eta = frontier.pop()
        for s in elems:
            pred = scale * eta - s
            if lo <= pred <= hi and pred not in alive:
                alive.add(pred)
                frontier.append(pred)
    eta = min(alive, key=lambda e: (abs(e), e))
    path: list[tuple[int, int]] = []
    position: dict[int, int] = {}
    while eta not in position:
        position[eta] = len(path)
        s = steps[eta % m]
        path.append((eta, s))
        eta = (eta + s) // scale
    cycle = path[position[eta] :]
    first = min(range(len(cycle)), key=lambda i: (abs(cycle[i][0]), cycle[i][0]))
    return SpectrumVerdict(False, tuple(cycle[first:] + cycle[:first]), (lo, hi), bounds)


def verify_witness(system: ScaleDigitSystem, candidate: SpectrumCandidate, witness) -> bool:
    """Check a claimed cycle independently of how it was produced.

    True iff the witness is a nonempty list of (eta, s) pairs of integers
    with every eta nonzero, every s in S, and eta_j + s_j = N * eta_{j+1}
    exactly (indices cyclic).
    """
    entries = [tuple(entry) for entry in witness]
    if not entries:
        return False
    allowed = set(candidate.elements)
    for entry in entries:
        if len(entry) != 2:
            return False
        eta, s = entry
        if not isinstance(eta, int) or isinstance(eta, bool) or eta == 0:
            return False
        if s not in allowed:
            return False
    for j, (eta, s) in enumerate(entries):
        eta_next = entries[(j + 1) % len(entries)][0]
        if eta + s != system.scale * eta_next:
            return False
    return True


STATUS_SPECTRAL = "spectral-with-certificate"
STATUS_UNIT_INTERVAL = "unit-interval"
STATUS_UNKNOWN = "no-compatible-pair-found"


@dataclass(frozen=True)
class SpectralityReport:
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

    status: str
    scale: int
    canonical: CanonicalForm
    candidate: SpectrumCandidate | None = None
    certificate: CompatibilityCertificate | None = None
    verdict: SpectrumVerdict | None = None


def report_measure_spectrality(system: ScaleDigitSystem) -> SpectralityReport:
    """Canonicalize the digits, then certify the first window candidate.

    |N| = 2 with reduced digits {0, 1} is the unit interval.  Otherwise the
    first window candidate is spectral by Laba-Wang's window condition: its
    attractor's hull lies strictly inside (-1, 1) for either sign of N, so
    it holds no nonzero integer, let alone a cycle.  The verdict is read off
    the hull, checked exactly: ConsistencyError if it leaves (-1, 1).
    At |N| = 2 the window is {0}, so only the point mass {0} has one.
    """
    canon = canonicalize_digits(system.digits)
    if system.modulus == 2 and canon.reduced_digits == (0, 1):
        return SpectralityReport(STATUS_UNIT_INTERVAL, system.scale, canon)
    reduced = ScaleDigitSystem(system.scale, canon.reduced_digits)
    cand = next(_window_candidates(reduced), None)
    if cand is None:
        return SpectralityReport(STATUS_UNKNOWN, system.scale, canon)
    bounds = attractor_bounds(system.scale, cand.elements)
    if bounds.lo <= -1 or bounds.hi >= 1:
        raise ConsistencyError(f"window candidate {cand.elements} has a hull {bounds} outside (-1, 1)")
    verdict = SpectrumVerdict(True, None, (0, 0), bounds)
    return SpectralityReport(STATUS_SPECTRAL, system.scale, canon, cand, is_compatible(reduced, cand), verdict)
