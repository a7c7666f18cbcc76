"""Exact decisions about compatible (digit, candidate) pairs.

A pair (D/N, S) with |S| = |D| is compatible when the matrix
[(1/sqrt(q)) * e(d*s/N)] is unitary; equivalently, when the scaled symbol
m_{D/N} vanishes at every difference of distinct elements of S.  The
symbol vanishes at an integer r exactly when the order |N| / gcd(r, |N|) is
one of the system's vanishing orders (the divisors b of |N| with Phi_b
dividing the digit polynomial), so each difference is decided exactly by a
gcd and the exact test of its order, run once per order and system --
floating point never touches the verdict.

The window search looks for such S with 0 in S among the integers of
[2-|N|, |N|-2].  Since every other element of S differs from 0 by a zero
of the symbol, only the integers at which it vanishes can take part: they
are the vertices of the zero graph through 0, joined when their difference
is a zero too.  Each candidate set is 0 plus a clique of |D|-1 of them,
found by a depth-first search on int bitsets over the window.  Integer x
sits at bit x - (2-|N|), so the neighbours above x are the window bits of
the zeros' periodic bit pattern shifted up to x; the search takes the
lowest candidate bit first, intersects the rest with its neighbours and
drops a branch once fewer bits remain than elements are needed.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

from .cyclotomic import OrderTest
from . import systems
from .systems import (
    BudgetExceededError,
    ConsistencyError,
    PreconditionError,
    ScaleDigitSystem,
    SpectrumCandidate,
    _check_slice_budget,
)

#: Most candidate sets `search_candidate_s` returns; one more raises
#: BudgetExceededError instead of filling memory.
SEARCH_BUDGET = 100_000

# Most bytes the window search's zero pattern may take: |N| up to about 1.07e8
_PATTERN_BUDGET = 1 << 27


@dataclass(frozen=True)
class CompatibilityCertificate:
    """Proof object for a compatible pair.

    `zero_differences` lists one entry (s1, s2, m) per unordered pair of
    distinct candidate elements: the symbol vanishes at s1 - s2 because the
    m-th cyclotomic polynomial divides the reduced digit polynomial, with
    m = |N| / gcd(s2 - s1, |N|).
    """

    system: ScaleDigitSystem
    candidate: SpectrumCandidate
    zero_differences: tuple[tuple[int, int, int], ...]


def is_compatible(
    system: ScaleDigitSystem, candidate: SpectrumCandidate
) -> CompatibilityCertificate | None:
    """Certificate that (D/N, S) is a compatible pair, or None.

    The decision is exact: the order |N| / gcd(s2 - s1, |N|) of each
    difference must be one of the system's vanishing orders.  Only these
    orders are decided, each once, however many differences share it.  A
    repeated residue has order 1, which never vanishes.
    """
    if candidate.size != system.size:
        raise PreconditionError(
            f"compatible pairs require |S| = |D|, got |S| = {candidate.size}, |D| = {system.size}"
        )
    m = system.modulus
    vanishing: set[int] = set()
    elems = candidate.elements
    entries = []
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            b = m // math.gcd(elems[j] - elems[i], m)
            if b not in vanishing:
                if not system.is_vanishing_order(b):
                    return None
                vanishing.add(b)
            entries.append((elems[i], elems[j], b))
    return CompatibilityCertificate(system, candidate, tuple(entries))


def _zero_pattern(orders: OrderTest, m: int) -> int:
    """Int with bit t set exactly when the order m / gcd(t, m) vanishes,
    for 0 <= t < 2m and the modulus m = |N| of the orders.

    The residues of order b are (m/b) * u with u a unit mod b, found by
    sieving out the primes of b, which the order test already holds.  Only
    ones are written, since the other multiples of m/b may be zeros of
    another order.
    """
    digits = bytearray(b"0") * m
    for b in orders.all_orders():
        units = bytearray([1]) * b
        for p in orders._primes(b):
            units[::p] = bytes(len(range(0, b, p)))
        for r in itertools.compress(range(0, m, m // b), units):
            digits[m - 1 - r] = ord("1")
    period = int(digits, 2)
    return period << m | period


def search_candidate_s(system: ScaleDigitSystem) -> list[SpectrumCandidate]:
    """All compatible candidate sets inside the reduction window.

    Enumerates every S with 0 in S, |S| = |D| and S a subset of
    [2-|N|, |N|-2] such that (D/N, S) is compatible, in lexicographic order
    of their sorted elements.  Only window integers at which the symbol
    vanishes can join 0, so S minus 0 is a clique of |D|-1 of them in the
    graph whose edges are pairs whose difference is a zero too.  The
    cliques are enumerated by a bitset search that always branches on the
    smallest remaining integer, which yields them in lexicographic order.
    Putting 0 back keeps that order: where two cliques first differ, both
    differing elements lie on the same side of 0, or the smaller one lies
    below 0 and meets the 0 inserted into the other set.  More than
    SEARCH_BUDGET candidates raise BudgetExceededError, and so does an
    |N| past about 1.07e8, before its zero pattern is built.
    """
    if system.modulus < 3:
        raise PreconditionError("the window [2-|N|, |N|-2] is degenerate for |N| = 2")
    found = list(itertools.islice(_window_candidates(system), SEARCH_BUDGET + 1))
    if len(found) > SEARCH_BUDGET:
        raise BudgetExceededError(
            f"the window search found more than {SEARCH_BUDGET} candidate sets, its result budget"
        )
    return found


def _window_candidates(system: ScaleDigitSystem) -> Iterator[SpectrumCandidate]:
    """The candidates of `search_candidate_s` in the same order, one at a
    time, for |N| >= 2; at |N| = 2 the window is {0}, so only |D| = 1
    yields one, (0,)."""
    m = system.modulus
    size = m + m // 4
    if size > _PATTERN_BUDGET:
        raise BudgetExceededError(
            f"the window search at |N| = {m} builds a zero pattern of about {size} bytes "
            f"(|N| bytes and a 2|N|-bit integer), over its budget of {_PATTERN_BUDGET} bytes"
        )
    pattern = _zero_pattern(system._order_test, m)
    low = 2 - m  # bit x of a window bitset stands for the integer low + x
    vertices = (pattern >> 2) & ((1 << (2 * m - 3)) - 1)  # e = low + x has e = x + 2 (mod m)
    want = system.size

    def extend(cand: int, chosen: tuple[int, ...]) -> Iterator[SpectrumCandidate]:
        need = want - 1 - len(chosen)
        if need == 0:
            yield SpectrumCandidate((0, *chosen))
            return
        while cand.bit_count() >= need:
            bit = cand & -cand
            cand ^= bit
            x = bit.bit_length() - 1
            yield from extend(cand & (pattern << x), (*chosen, low + x))

    yield from extend(vertices, ())


def reduce_s(scale: int, candidate: SpectrumCandidate) -> SpectrumCandidate:
    """Congruent representative of S inside the window [2-|N|, |N|-2].

    Each element maps to its residue r in [0, |N|), kept as r when
    r <= |N|-2 and as r - |N| otherwise.  Element-wise congruence mod N
    preserves compatibility, so the reduced set is compatible exactly when
    the input is.
    """
    m = abs(scale)
    if m < 3:
        raise PreconditionError("reduction needs |N| >= 3; the window is degenerate for |N| = 2")
    elems = candidate.elements
    if 0 not in elems:
        raise PreconditionError("reduction assumes 0 in S; translate the candidate first")
    residues = [s % m for s in elems]
    if len(set(residues)) != len(elems):
        raise PreconditionError(
            "candidate elements repeat modulo N, so the pair cannot be compatible"
        )
    return SpectrumCandidate(tuple(r if r <= m - 2 else r - m for r in residues))


def lambda_enumerate(
    scale: int,
    candidate: SpectrumCandidate,
    depth: int,
) -> tuple[int, ...]:
    """The depth-slice of the candidate spectrum, sorted and deduplicated.

    Returns { sum_{j=0}^{depth-1} s_j * N^j : s_j in S }.  Slices use
    exactly `depth` digit positions including trailing zeros, so with
    0 in S they are nested as depth grows and exhaust the full spectrum
    in the limit.
    """
    if not isinstance(scale, int) or abs(scale) < 2:
        raise PreconditionError(f"scale must be an integer with |N| >= 2, got {scale!r}")
    if not isinstance(depth, int) or depth < 1:
        raise PreconditionError(f"depth must be a positive integer, got {depth!r}")
    _check_slice_budget(candidate.size, depth)
    if candidate.size == 1:  # the one point s * (1 + N + ... + N^(depth-1))
        return (candidate.elements[0] * (scale**depth - 1) // (scale - 1),)
    values = {0}
    for _ in range(depth):  # Horner: the digit added last is s_0
        values = {s + scale * v for v in values for s in candidate.elements}
    return tuple(sorted(values))


def pair_power(
    system: ScaleDigitSystem,
    candidate: SpectrumCandidate,
    k: int,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The k-fold pair (D_k, S_k) with X_k = X + N*X + ... + N^(k-1)*X.

    Both Minkowski sums are the depth-k slices of `lambda_enumerate`, under
    its budget, returned sorted; the powered pair is re-certified
    compatible against the scale N^k before returning.  That re-check
    tests every pair of S_k, so more than LAMBDA_BUDGET pairs raise
    BudgetExceededError before either slice is built.
    """
    if not isinstance(k, int) or k < 1:
        raise PreconditionError(f"power must be a positive integer, got {k!r}")
    if is_compatible(system, candidate) is None:
        raise PreconditionError("pair powers are defined for compatible pairs only")
    size = system.size  # both slices have size^k points: compatible sets differ mod N
    _check_slice_budget(size, k)
    pairs = math.comb(size**k, 2)
    if pairs > systems.LAMBDA_BUDGET:
        raise BudgetExceededError(
            f"the re-check of the power-{k} pair tests C({size}^{k}, 2) = {pairs} pairs, "
            f"over the budget {systems.LAMBDA_BUDGET}"
        )
    digits_k = lambda_enumerate(system.scale, SpectrumCandidate(system.digits), k)
    elements_k = lambda_enumerate(system.scale, candidate, k)
    powered = ScaleDigitSystem(system.scale**k, digits_k)
    if is_compatible(powered, SpectrumCandidate(elements_k)) is None:
        raise ConsistencyError("powered pair failed its exact compatibility re-check")
    return digits_k, elements_k
