"""Integer-tiling side: complementing sets and the prime-power construction.

A digit set D is complementing mod L when some E makes D + E hit every
residue class mod L exactly once.  When |D| has at most two distinct prime
factors, the prime powers whose cyclotomic polynomials divide the digit
polynomial assemble a fractional set E whose dilation S = N*E is an
integer candidate set compatible with D/N -- turning a tiling fact into a
spectrum construction.  All verdicts here ride on the same exact
cyclotomic tests as the rest of the library.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from dataclasses import dataclass

from .arith import divisors, factorize, radical
from .compat import CompatibilityCertificate, is_compatible
from .cyclotomic import order_vanishes
from .systems import (
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
    does not divide the modulus.
    """
    if not isinstance(modulus, int) or modulus < 1:
        raise PreconditionError(f"modulus must be a positive integer, got {modulus!r}")
    digs = tuple(digits)
    if not digs:
        raise PreconditionError("digit set must be nonempty")
    if modulus % len(digs) != 0:
        return None
    block = {d % modulus for d in digs}
    if len(block) != len(digs):
        return None
    covered = [False] * modulus
    chosen: list[int] = []
    # One frame per residue being covered: (u, translates not yet tried for
    # it).  An explicit stack, since a recursion would need one Python frame
    # per chosen translate, |L|/|D| of them.
    stack = [(0, iter(sorted({-d % modulus for d in digs})))]
    while stack:
        u, options = stack[-1]
        for e in options:
            shifts = [(d + e) % modulus for d in digs]
            if not any(covered[t] for t in shifts):
                break
        else:
            stack.pop()
            if chosen:
                e = chosen.pop()
                for d in digs:
                    covered[(d + e) % modulus] = False
            continue
        for t in shifts:
            covered[t] = True
        chosen.append(e)
        try:
            u = covered.index(False, u)
        except ValueError:
            return tuple(sorted(chosen))
        stack.append((u, iter(sorted({(u - d) % modulus for d in digs}))))
    return None


def _complementing_modulus(system: ScaleDigitSystem) -> tuple[int, tuple[int, ...]] | None:
    """(L, complement) for `find_modulus_l`'s L and the complement found
    there, so a construction searches each modulus once."""
    target = radical(system.size)
    for div in divisors(system.modulus):
        if radical(div) != target:
            continue
        complement = is_complementing(system.digits, div)
        if complement is not None:
            return div, complement
    return None


def find_modulus_l(system: ScaleDigitSystem) -> int | None:
    """Smallest divisor L of |N| with radical(L) = radical(|D|) and D
    complementing mod L.

    Such an L exists whenever D is complementing mod N, so None signals
    that the digit set does not tile the residues of N at all.
    """
    found = _complementing_modulus(system)
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
    return _prime_power_sets(len(digs), modulus, lambda b: order_vanishes(digs, b))


def _prime_power_sets(size: int, modulus: int, vanishes) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """`prime_power_sets` for a digit set of the given size, with
    `vanishes(b)` deciding whether Phi_b divides its digit polynomial."""
    size_factors = factorize(size)
    if len(size_factors) > 2:
        raise PreconditionError(
            f"|D| = {size} has {len(size_factors)} distinct prime factors; "
            "the construction covers at most two"
        )
    modulus_factors = factorize(modulus)
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


def _fractional_combinations(powers: tuple[int, ...]) -> list[Fraction]:
    """All sums of a_j / p^{k_j} with digit coefficients 0 <= a_j < p."""
    if not powers:
        return [Fraction(0)]
    prime = radical(powers[0])
    values = []
    for coeffs in itertools.product(range(prime), repeat=len(powers)):
        values.append(sum((Fraction(a, pk) for a, pk in zip(coeffs, powers)), Fraction(0)))
    return values


def construct_spectrum_set(system: ScaleDigitSystem) -> TilingConstruction:
    """Build a compatible candidate set from the tiling structure of D.

    Finds the modulus L, reads off the dividing prime powers, forms the
    fractional set E of all digit combinations of their reciprocals, and
    dilates to S = N*E.  Integrality of S and exact compatibility of
    (D/N, S) are verified before returning; with the certificate in hand,
    the measure is spectral.
    """
    found = _complementing_modulus(system)
    if found is None:
        raise PreconditionError(
            "digit set is not complementing modulo any admissible divisor of N"
        )
    modulus_l, complement = found
    # every p^k dividing L divides |N|, so the system's orders answer it
    p_powers, q_powers = _prime_power_sets(
        system.size, modulus_l, system.vanishing_orders.__contains__
    )
    fractional = sorted(
        p_part + q_part
        for p_part in _fractional_combinations(p_powers)
        for q_part in _fractional_combinations(q_powers)
    )
    if len(set(fractional)) != system.size:
        raise ConsistencyError(
            f"fractional set has {len(set(fractional))} points, expected |D| = {system.size}"
        )
    elements = []
    for frac in fractional:
        scaled = frac * system.scale
        if scaled.denominator != 1:
            raise ConsistencyError(f"constructed spectrum left the integers at {frac}")
        elements.append(int(scaled))
    candidate = SpectrumCandidate(tuple(elements))
    certificate = is_compatible(system, candidate)
    if certificate is None:
        raise ConsistencyError("constructed spectrum failed the exact compatibility check")
    return TilingConstruction(
        modulus_l=modulus_l,
        complement_e0=complement,
        p_powers=p_powers,
        q_powers=q_powers,
        fractional_e=tuple(fractional),
        result_s=candidate.elements,
        certificate=certificate,
    )
