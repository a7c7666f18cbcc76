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
still does.  |D| is factorised once per question.  The orders are asked
of the one `OrderTest` of the digit set, shared by the construction of
every system with those digits and by `is_complementing`, so each is
tested once per digit set per process.  By Mann no power past the reach
of L vanishes (see `cyclotomic`), so (T1) asks only the powers inside it
and (T2) their products; a large prime of L that they never name is
never trial-divided.

Where the conditions decide, both sets are sums of one a * step, 0 <= a < p,
per prime power.  Their proof's complement E(z) = prod Phi_s(z^t(s)) takes
step t(s) * s/p for each s = p^j | L in no S_p, t(s) = L / p^v_p(L); and
S = N * {sum_j a_j / p^k_j}, compatible with D/N, takes step N // p^k_j for
each p^k_j in S_p, exact since p^k_j divides L and L divides |N|.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

from .compat import CompatibilityCertificate, is_compatible
from .cyclotomic import OrderTest, _order_memo, factorize
from . import systems
from .systems import (
    BudgetExceededError,
    ConsistencyError,
    PreconditionError,
    ScaleDigitSystem,
    SpectrumCandidate,
    _Record,
)


def _tiling_powers(size_factors: dict[int, int], modulus: int, memo: OrderTest):
    """{p: S_p} at the modulus for the primes of |D|, given ascending as
    `size_factors` = {p: alpha_p}, with `memo(b)` deciding whether Phi_b
    divides D(z); None when (T1) fails, or when |D| has two primes and
    (T2) fails.  Only the powers inside the reach of the modulus can vanish."""
    reach, found = memo.reach(modulus), {}  # by Mann, no power past the reach vanishes
    for p, alpha in size_factors.items():
        powers, power = [], p
        while reach % power == 0:
            if memo(power):
                powers.append(power)
            power *= p
        if len(powers) != alpha:
            return None
        found[p] = tuple(powers)
    if len(found) == 2:
        left, right = found.values()
        if not all(memo(s * t) for s in left for t in right):
            return None
    return found


def is_complementing(digits, modulus: int) -> tuple[int, ...] | None:
    """A complement E in [0, modulus) with D + E a complete residue system,
    or None when there is none.

    (T1) and (T2) decide it for |D| with at most two primes, E being their
    product (see the module docstring); with more, a search decides what
    (T1) does not refute.  LAMBDA_BUDGET bounds L and placed translates.

    >>> is_complementing((0, 1, 8, 9), 16)
    (0, 2, 4, 6)
    >>> is_complementing((0, 96), 200) is None
    True
    """
    systems._int_items((modulus,), "modulus must be a positive integer", least=1)
    digs = systems._int_items(digits, "digit set must consist of integers")
    if not digs:
        raise PreconditionError("digit set must be nonempty")
    if len({d % modulus for d in digs}) != len(digs):
        return None
    powers = _tiling_powers(factorize(len(digs)), modulus, _order_memo(tuple(sorted(digs))))
    if powers is None:
        return None
    return _complement(powers, modulus, digs) if len(powers) <= 2 else _search_complement(digs, modulus)


def _sums(elements: list[int], step: int, count: int) -> list[int]:
    """Every x + a * step, 0 <= a < count, for x in elements, in that order."""
    return [x + a * step for x in elements for a in range(count)]


def _complement(powers: dict[int, tuple[int, ...]], modulus: int, digs: tuple[int, ...]) -> tuple[int, ...]:
    """The product complement of digits whose {p: S_p} at the modulus pass
    (T1) and (T2), as sorted residues checked by counting to cover Z_L:
    that walks L sums, so L past the budget is refused before any is built."""
    size, budget = len(digs), systems.LAMBDA_BUDGET
    if modulus > budget:
        raise BudgetExceededError(f"the complement mod L = {modulus} of |D| = {size} digits is checked by "
                                  f"counting L = {modulus} sums, over the budget {budget}")
    # the part of L prime to |D|: the powers of its primes all take part, and sum to the multiples of L/rest
    elements, rest = [0], modulus // math.gcd(modulus, size ** modulus.bit_length())
    for p, group in powers.items():
        top = math.gcd(modulus, p ** modulus.bit_length())  # p^v_p(L), so t(s) = L / top
        for power in {p**j for j in range(1, top.bit_length()) if top % p**j == 0}.difference(group):
            elements = _sums(elements, modulus // top * power // p, p)
    complement = sorted({e % modulus for e in _sums(elements, modulus // rest, rest)})
    hit = bytearray(modulus)
    for x in (d + e for d in digs for e in complement):
        hit[x % modulus] = 1
    if len(complement) * size != modulus or 0 in hit:
        raise ConsistencyError(f"(T1) and (T2) hold, yet D + E does not cover Z_L once for L = {modulus}")
    return tuple(complement)


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
    the powers inside the reach of |N| and the products s*t are asked, each
    decided once per digit set per process."""
    size_factors = factorize(system.size)
    if len(size_factors) > 2:
        raise PreconditionError(
            f"|D| = {system.size} has {len(size_factors)} distinct prime factors; "
            "the construction covers at most two"
        )
    powers = _tiling_powers(size_factors, system.modulus, system._order_test)
    return None if powers is None else (math.prod(group[-1] for group in powers.values()), powers)


def find_modulus_l(system: ScaleDigitSystem) -> int | None:
    """Smallest divisor L of |N| with radical(L) = radical(|D|) and D
    complementing mod L, or None when D does not tile the residues of N at
    all; |D| must have at most two distinct primes, as in the construction.
    """
    found = _tiling_modulus(system)
    return None if found is None else found[0]


class TilingConstruction(_Record):
    """Full record of the tiling-to-spectrum construction."""

    __match_args__ = ("modulus_l", "complement_e0", "p_powers", "q_powers", "result_s", "certificate")

    def __init__(
        self, modulus_l: int, complement_e0: tuple[int, ...], p_powers: tuple[int, ...], q_powers: tuple[int, ...],
        result_s: tuple[int, ...], certificate: CompatibilityCertificate,
    ):
        self.__dict__.update(
            modulus_l=modulus_l, complement_e0=complement_e0, p_powers=p_powers, q_powers=q_powers,
            result_s=result_s, certificate=certificate,
        )

    @property
    def fractional_e(self) -> tuple[Fraction, ...]:
        """E = S/N, ascending, computed from S and the certificate's N on each read."""
        return tuple(sorted(Fraction(s, self.certificate.system.scale) for s in self.result_s))


def construct_spectrum_set(system: ScaleDigitSystem) -> TilingConstruction:
    """Build a compatible candidate set from the tiling structure of D.

    Refuses a non-tile by (T1) and (T2), asking the system only the orders
    they name, builds the complement at the smallest tiling modulus L from
    the same powers, and forms S = N*E as the integer sums of a_j * (N // p^k_j),
    one digit coefficient 0 <= a_j < p per power.  The record keeps S
    alone: its `fractional_e`, E = S/N, is computed from S when it is
    read.  The sums are checked distinct once, or ConsistencyError, and S
    is built from them unchecked.  Exact compatibility of (D/N, S) is
    verified before returning, and the system keeps the certificate's
    entries, so that deciding S next walks no pair again; with the
    certificate in hand, the measure is spectral.
    """
    found = _tiling_modulus(system)
    if found is None:
        raise PreconditionError(
            "digit set is not complementing modulo any admissible divisor of N"
        )
    modulus_l, powers = found
    complement = _complement(powers, modulus_l, system.digits)
    elements = [0]
    for prime, group in powers.items():
        for power in group:
            elements = _sums(elements, system.scale // power, prime)
    p_powers, q_powers, *_ = (*powers.values(), (), ())
    if len(set(elements)) != system.size:
        raise ConsistencyError(
            f"fractional set has {len(set(elements))} points, expected |D| = {system.size}"
        )
    candidate = SpectrumCandidate._of(tuple(sorted(elements)))  # integer sums, distinct as just checked
    certificate = is_compatible(system, candidate)
    if certificate is None:
        raise ConsistencyError("constructed spectrum failed the exact compatibility check")
    return TilingConstruction(modulus_l, complement, p_powers, q_powers, candidate.elements, certificate)
