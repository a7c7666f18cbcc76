"""Integer-tiling side: complementing sets and the prime-power construction.

A digit set D is complementing mod L when some E makes D + E hit every
residue class mod L exactly once.  The conditions of Coven and Meyerowitz,
read inside Z_L, decide it by cyclotomic divisibility.  For each prime p
of |D| = prod p^alpha_p let S_p be the powers p^k | L with Phi_{p^k}
dividing the digit polynomial D(z).  (T1): each S_p has alpha_p elements.
(T2): Phi_{s*t} divides D(z) for all s in S_p, t in S_q, p != q.

Every tile satisfies (T1): D(z)E(z) = 1 + z + ... + z^(L-1) mod z^L - 1,
so each prime power s | L has Phi_s dividing D(z) or E(z), Phi_s(1) = p,
and the p over all of D's vanishing prime powers multiply to a divisor of
|D|.  (T1) and (T2) make D a tile, and for |D| with at most two primes a
tile satisfies (T2), so the conditions decide; for more primes a search
still does.  Otherwise the search runs only on a tile, for its complement.
|D| is factorised once per question.  The orders are asked of one
`OrderTest`: a system's own in the construction, and one per
`is_complementing` call over the part of L made of |D|'s primes, so each
is tested at most once.  That part, not Mann's g over all of L, bounds
the trial division: g keeps a large prime q of L that divides a digit
difference, factorised by trial division up to sqrt(q), though (T1) and
(T2) never ask an order with q in it.

For |D| with at most two primes the powers assemble E = {sum_j a_j / p^k_j
: 0 <= a_j < p}, whose dilation S = N*E is an integer candidate set
compatible with D/N.  S is formed directly as the sums of a_j * (N // p^k_j),
exact since every such p^k divides L and L divides |N|.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from dataclasses import dataclass

from .compat import CompatibilityCertificate, is_compatible
from .cyclotomic import OrderTest, factorize
from . import systems
from .systems import (
    BudgetExceededError,
    ConsistencyError,
    PreconditionError,
    ScaleDigitSystem,
    SpectrumCandidate,
)


def _tiling_powers(size_factors: dict[int, int], modulus: int, vanishes):
    """{p: S_p} at the modulus for the primes of |D|, given ascending as
    `size_factors` = {p: alpha_p}, with `vanishes(b)` deciding whether
    Phi_b divides D(z); None when (T1) fails, or when |D| has two primes
    and (T2) fails."""
    found = {}
    for p, alpha in size_factors.items():
        powers, power = [], p
        while modulus % power == 0:
            if vanishes(power):
                powers.append(power)
            power *= p
        if len(powers) != alpha:
            return None
        found[p] = tuple(powers)
    if len(found) == 2:
        left, right = found.values()
        if not all(vanishes(s * t) for s in left for t in right):
            return None
    return found


def is_complementing(digits, modulus: int) -> tuple[int, ...] | None:
    """A complement E in [0, modulus) with D + E a complete residue system,
    or None when there is none.

    (T1) and (T2) decide it without a search when |D| has at most two
    primes, and (T1) refutes many non-tiles for any |D| (see the module
    docstring).  The search raises BudgetExceededError once it would place
    more than LAMBDA_BUDGET translates.

    >>> is_complementing((0, 1, 8, 9), 16)
    (0, 2, 4, 6)
    >>> is_complementing((0, 96), 200) is None
    True
    """
    if not isinstance(modulus, int) or modulus < 1:
        raise PreconditionError(f"modulus must be a positive integer, got {modulus!r}")
    digs = tuple(digits)
    if not digs:
        raise PreconditionError("digit set must be nonempty")
    if len({d % modulus for d in digs}) != len(digs):
        return None
    size_factors = factorize(len(digs))
    # (T1) and (T2) ask only orders made of |D|'s primes, so the memo spans
    # that part of L, free of L's other large primes (see the module docstring)
    part = math.gcd(modulus, math.prod(size_factors) ** modulus.bit_length())
    powers = _tiling_powers(size_factors, modulus, OrderTest(digs, part))
    return None if powers is None else _search_complement(digs, modulus)


def _search_complement(digs: tuple[int, ...], modulus: int) -> tuple[int, ...] | None:
    """The first complement of digits distinct mod the modulus, by
    backtracking over the smallest uncovered residue u: a complement must
    hold an e = u - d (mod L), so only those are tried, ascending, which
    makes the result deterministic.  Only covered residues are held.
    """
    # u + c mod L runs through u's candidates in ascending order over these
    # sorted c, rotated to start at the first c >= L - u
    offsets = sorted(-d % modulus for d in digs)
    covered: set[int] = set()
    chosen: list[int] = []
    placed, budget = 0, systems.LAMBDA_BUDGET
    # One frame per residue being covered (u and the index of its next
    # candidate), not one Python frame per chosen translate: L/|D| of them
    frames_u, frames_next = [0], [0]
    while frames_u:
        u = frames_u[-1]
        turn = bisect.bisect_left(offsets, modulus - u)
        for index in range(frames_next[-1], len(offsets)):
            e = (u + offsets[(turn + index) % len(offsets)]) % modulus
            shifts = [(d + e) % modulus for d in digs]
            if covered.isdisjoint(shifts):
                break
        else:
            frames_u.pop()
            frames_next.pop()
            if chosen:
                e = chosen.pop()
                covered.difference_update((d + e) % modulus for d in digs)
            continue
        if placed == budget:
            raise BudgetExceededError(
                f"the complement search mod L = {modulus} for |D| = {len(digs)} digits "
                f"exceeds the budget of {budget} placed translates"
            )
        placed += 1
        covered.update(shifts)
        chosen.append(e)
        if len(covered) == modulus:
            return tuple(sorted(chosen))
        frames_next[-1] = index + 1
        while u in covered:
            u += 1
        frames_u.append(u)
        frames_next.append(0)
    return None


def _tiling_modulus(system: ScaleDigitSystem):
    """(L, {p: S_p}) for `find_modulus_l`'s L.  At most alpha_p powers of p
    vanish in all, so (T1) keeps those found at |N| at every tiling L, the
    smallest being the product of each prime's largest power; and every
    s*t divides |N|, so the system's vanishing orders answer (T2).  Only
    the powers p^k dividing |N| and the products s*t are asked, each
    decided once per system."""
    size_factors = factorize(system.size)
    if len(size_factors) > 2:
        raise PreconditionError(
            f"|D| = {system.size} has {len(size_factors)} distinct prime factors; "
            "the construction covers at most two"
        )
    powers = _tiling_powers(size_factors, system.modulus, system.is_vanishing_order)
    return None if powers is None else (math.prod(group[-1] for group in powers.values()), powers)


def find_modulus_l(system: ScaleDigitSystem) -> int | None:
    """Smallest divisor L of |N| with radical(L) = radical(|D|) and D
    complementing mod L, or None when D does not tile the residues of N at
    all; |D| must have at most two distinct primes, as in the construction.
    """
    found = _tiling_modulus(system)
    return None if found is None else found[0]


@dataclass(frozen=True)
class TilingConstruction:
    """Full record of the tiling-to-spectrum construction."""

    modulus_l: int
    complement_e0: tuple[int, ...]
    p_powers: tuple[int, ...]
    q_powers: tuple[int, ...]
    fractional_e: tuple[Fraction, ...]
    result_s: tuple[int, ...]
    certificate: CompatibilityCertificate


def construct_spectrum_set(system: ScaleDigitSystem) -> TilingConstruction:
    """Build a compatible candidate set from the tiling structure of D.

    Refuses a non-tile by (T1) and (T2), asking the system only the orders
    they name, searches the smallest tiling modulus L once for its
    complement, and forms S = N*E as the integer sums of a_j * (N // p^k_j),
    one digit coefficient 0 <= a_j < p per power; E = S/N is derived from
    it, one `Fraction` per element in the order of S/N.  Exact
    compatibility of (D/N, S) is verified before returning; with the
    certificate in hand, the measure is spectral.
    """
    found = _tiling_modulus(system)
    if found is None:
        raise PreconditionError(
            "digit set is not complementing modulo any admissible divisor of N"
        )
    modulus_l, powers = found
    complement = _search_complement(system.digits, modulus_l)
    if complement is None:
        raise ConsistencyError(f"(T1) and (T2) hold, yet no complement exists mod L = {modulus_l}")
    elements = [0]
    for prime, group in powers.items():
        for power in group:
            step = system.scale // power
            elements = [s + a * step for s in elements for a in range(prime)]
    p_powers, q_powers, *_ = (*powers.values(), (), ())
    if len(set(elements)) != system.size:
        raise ConsistencyError(
            f"fractional set has {len(set(elements))} points, expected |D| = {system.size}"
        )
    candidate = SpectrumCandidate(tuple(elements))
    certificate = is_compatible(system, candidate)
    if certificate is None:
        raise ConsistencyError("constructed spectrum failed the exact compatibility check")
    # s/N ascends with s for N > 0 and descends for N < 0
    ordered = candidate.elements[::-1] if system.scale < 0 else candidate.elements
    return TilingConstruction(
        modulus_l=modulus_l,
        complement_e0=complement,
        p_powers=p_powers,
        q_powers=q_powers,
        fractional_e=tuple(Fraction(s, system.scale) for s in ordered),
        result_s=candidate.elements,
        certificate=certificate,
    )
