"""Integer-tiling side: complementing sets and the prime-power construction.

A digit set D is complementing mod L when some E makes D + E hit every
residue class mod L exactly once.  When |D| has at most two distinct prime
factors, the prime powers p^k whose cyclotomic polynomials divide the digit
polynomial assemble a fractional set E = {sum_j a_j / p^k_j : 0 <= a_j < p}
whose dilation S = N*E is an integer candidate set compatible with D/N --
turning a tiling fact into a spectrum construction.  S is formed directly
as the sums of a_j * (N // p^k_j): every such p^k divides L, and L divides
|N|, so each quotient is exact and S never leaves the integers.  All
verdicts here ride on the same exact cyclotomic tests as the rest of the
library.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from dataclasses import dataclass

from .arith import factorize
from .compat import CompatibilityCertificate, is_compatible
from .cyclotomic import order_vanishes
from .kernel import LAMBDA_BUDGET
from .systems import (
    BudgetExceededError,
    ConsistencyError,
    PreconditionError,
    ScaleDigitSystem,
    SpectrumCandidate,
)


def is_complementing(digits, modulus: int) -> tuple[int, ...] | None:
    """A complement E in [0, modulus) with D + E a complete residue system.

    Backtracking over the smallest uncovered residue: any valid complement
    must contain an e with d + e hitting it, so only those e are tried (in
    ascending order, making the returned complement deterministic).
    Returns None when no complement exists, in particular whenever |D|
    does not divide the modulus.  Only the covered residues are held, so
    a search that fails early stays small at any modulus; a search that
    would place more than LAMBDA_BUDGET translates raises
    BudgetExceededError.
    """
    if not isinstance(modulus, int) or modulus < 1:
        raise PreconditionError(f"modulus must be a positive integer, got {modulus!r}")
    digs = tuple(digits)
    if not digs:
        raise PreconditionError("digit set must be nonempty")
    if modulus % len(digs) != 0:
        return None
    if len({d % modulus for d in digs}) != len(digs):
        return None
    covered: set[int] = set()
    chosen: list[int] = []
    placed = 0
    # One frame per residue being covered: (u, translates not yet tried for
    # it).  An explicit stack, since a recursion would need one Python frame
    # per chosen translate, |L|/|D| of them.
    stack = [(0, iter(sorted({-d % modulus for d in digs})))]
    while stack:
        u, options = stack[-1]
        for e in options:
            shifts = [(d + e) % modulus for d in digs]
            if covered.isdisjoint(shifts):
                break
        else:
            stack.pop()
            if chosen:
                e = chosen.pop()
                covered.difference_update((d + e) % modulus for d in digs)
            continue
        if placed == LAMBDA_BUDGET:
            raise BudgetExceededError(
                f"the complement search mod L = {modulus} for |D| = {len(digs)} digits "
                f"exceeds the budget of {LAMBDA_BUDGET} placed translates"
            )
        placed += 1
        covered.update(shifts)
        chosen.append(e)
        if len(covered) == modulus:
            return tuple(sorted(chosen))
        while u in covered:
            u += 1
        stack.append((u, iter(sorted({(u - d) % modulus for d in digs}))))
    return None


def _complementing_modulus(system: ScaleDigitSystem, size_factors: dict[int, int]):
    """(L, {p: v_p(L)}, complement) for `find_modulus_l`'s L and the
    complement found there, so a construction searches each modulus once.

    The divisors L of |N| with radical(L) = radical(|D|) carry exponents
    1..v_p(|N|) on the primes p of |D| and none elsewhere; there are none
    when a prime of |D| does not divide |N|.
    """
    modulus_factors = factorize(system.modulus)
    primes = sorted(size_factors)
    moduli = sorted(
        (math.prod(p**e for p, e in zip(primes, exps)), exps)
        for exps in itertools.product(*(range(1, modulus_factors.get(p, 0) + 1) for p in primes))
    )
    for modulus_l, exps in moduli:
        complement = is_complementing(system.digits, modulus_l)
        if complement is not None:
            return modulus_l, dict(zip(primes, exps)), complement
    return None


def find_modulus_l(system: ScaleDigitSystem) -> int | None:
    """Smallest divisor L of |N| with radical(L) = radical(|D|) and D
    complementing mod L.

    Such an L exists whenever D is complementing mod N, so None signals
    that the digit set does not tile the residues of N at all.
    """
    found = _complementing_modulus(system, factorize(system.size))
    return None if found is None else found[0]


def prime_power_sets(digits, modulus: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Prime powers p^k (resp. q^k) up to the modulus caps whose cyclotomic
    polynomials divide the digit polynomial.

    Requires |D| = p^alpha * q^beta with at most two distinct primes; the
    returned sets must then have sizes alpha and beta for a complementing
    digit set, and a mismatch raises loudly rather than constructing a
    wrong spectrum.
    """
    digs = tuple(digits)
    if not digs:
        raise PreconditionError("digit set must be nonempty")
    return _prime_power_sets(
        factorize(len(digs)), factorize(modulus), lambda b: order_vanishes(digs, b)
    )


def _prime_power_sets(size_factors, modulus_factors, vanishes):
    """`prime_power_sets` from the factorisations of |D| and the modulus,
    with `vanishes(b)` deciding whether Phi_b divides the digit polynomial."""
    if len(size_factors) > 2:
        size = math.prod(p**a for p, a in size_factors.items())
        raise PreconditionError(
            f"|D| = {size} has {len(size_factors)} distinct prime factors; "
            "the construction covers at most two"
        )
    groups: list[tuple[int, ...]] = []
    for p, alpha in sorted(size_factors.items()):
        cap = modulus_factors.get(p, 0)
        powers = tuple(p**k for k in range(1, cap + 1) if vanishes(p**k))
        if len(powers) != alpha:
            raise ConsistencyError(
                f"expected {alpha} dividing powers of {p} below {p}**{cap}, found {powers}"
            )
        groups.append(powers)
    while len(groups) < 2:
        groups.append(())
    return groups[0], groups[1]


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

    Finds the modulus L, reads off the dividing prime powers and forms
    S = N*E as the integer sums of a_j * (N // p^k_j), one digit
    coefficient 0 <= a_j < p per power; E = S/N is derived from it.
    Exact compatibility of (D/N, S) is verified before returning; with the
    certificate in hand, the measure is spectral.
    """
    size_factors = factorize(system.size)
    found = _complementing_modulus(system, size_factors)
    if found is None:
        raise PreconditionError(
            "digit set is not complementing modulo any admissible divisor of N"
        )
    modulus_l, modulus_factors, complement = found
    # every p^k dividing L divides |N|, so the system's orders answer it
    p_powers, q_powers = _prime_power_sets(
        size_factors, modulus_factors, system.vanishing_orders.__contains__
    )
    elements = [0]
    for prime, powers in zip(sorted(size_factors), (p_powers, q_powers)):
        for power in powers:
            step = system.scale // power
            elements = [s + a * step for s in elements for a in range(prime)]
    if len(set(elements)) != system.size:
        raise ConsistencyError(
            f"fractional set has {len(set(elements))} points, expected |D| = {system.size}"
        )
    candidate = SpectrumCandidate(tuple(elements))
    certificate = is_compatible(system, candidate)
    if certificate is None:
        raise ConsistencyError("constructed spectrum failed the exact compatibility check")
    return TilingConstruction(
        modulus_l=modulus_l,
        complement_e0=complement,
        p_powers=p_powers,
        q_powers=q_powers,
        fractional_e=tuple(sorted(Fraction(s, system.scale) for s in elements)),
        result_s=candidate.elements,
        certificate=certificate,
    )
