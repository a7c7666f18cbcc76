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
is a zero too.  Each candidate set is 0 plus a clique of |D|-1 of them.  By
Mann's reach g of |N| (see `cyclotomic`) every zero is (|N|/g) * t, of the
order of t mod g, so the zero pattern, built from the vanishing orders and
their primes, has period g, not |N|: the window's multiples of |N|/g sit
at consecutive bits, and the neighbours above bit x are that pattern shifted
up to x.  One function of the vertices, the pattern and the clique size
walks them, depth first on int bitsets: it takes the lowest candidate bit
first, intersects the rest with its neighbours and drops a branch once too
few bits remain.  It bounds its work, not only its results: each node
costs about the (2g + x)/8 bytes of the shifted pattern, and past
8 * _PATTERN_BUDGET bytes in all it raises BudgetExceededError.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

from . import systems
from .systems import (
    BudgetExceededError,
    PreconditionError,
    ScaleDigitSystem,
    SpectrumCandidate,
    _Record,
    _check_slice_budget,
)

#: Most candidate sets `search_candidate_s` returns; one more raises
#: BudgetExceededError instead of filling memory.
SEARCH_BUDGET = 100_000

# Most bytes the window search's zero pattern may take, g up to about 1.07e8;
# its clique walk may touch eight times as many
_PATTERN_BUDGET = 1 << 27


class CompatibilityCertificate(_Record):
    """Proof object for a compatible pair.

    `zero_differences` lists one entry (s1, s2, m) per unordered pair of
    distinct candidate elements: the symbol vanishes at s1 - s2 because the
    m-th cyclotomic polynomial divides the reduced digit polynomial, with
    m = |N| / gcd(s2 - s1, |N|).
    """

    __match_args__ = ("system", "candidate", "zero_differences")

    def __init__(
        self, system: ScaleDigitSystem, candidate: SpectrumCandidate, zero_differences: tuple[tuple[int, int, int], ...]
    ):
        self.__dict__.update(system=system, candidate=candidate, zero_differences=zero_differences)


def is_compatible(
    system: ScaleDigitSystem, candidate: SpectrumCandidate
) -> CompatibilityCertificate | None:
    """Certificate that (D/N, S) is a compatible pair, or None.

    The decision is exact: the order |N| / gcd(s2 - s1, |N|) of each
    difference must be one of the system's vanishing orders.  Only these
    orders are decided, each once, however many differences share it.  A
    repeated residue has order 1, which never vanishes.

    The system keeps its last answer in one slot, derived data like its
    vanishing orders: S's elements with the certificate's entries, or with
    None.  Asked about the same elements again, it rebuilds the
    certificate from them and walks no pair; `decide_spectrum`, which asks
    after `construct_spectrum_set`, reads the entries alone and builds no
    certificate.  The slot holds ints and tuples, never the
    certificate, which points back at the system: that cycle would keep
    both alive until the cyclic collector runs.
    """
    entries = _certify(system, candidate.elements)
    return None if entries is None else CompatibilityCertificate(system, candidate, entries)


def _certify(system: ScaleDigitSystem, elems: tuple[int, ...]) -> tuple[tuple[int, int, int], ...] | None:
    """`is_compatible`'s certificate entries for S's elements, or None, read
    from the system's slot or walked into it; for callers that want only
    the answer, such as `decide_spectrum`, no certificate is built."""
    if len(elems) != len(system.digits):
        raise PreconditionError(
            f"compatible pairs require |S| = |D|, got |S| = {len(elems)}, |D| = {len(system.digits)}"
        )
    known = system.__dict__.get("_certified")
    if known is None or known[0] != elems:
        known = system.__dict__["_certified"] = elems, _zero_differences(system, elems)
    return known[1]


def _zero_differences(system: ScaleDigitSystem, elems: tuple[int, ...]) -> tuple[tuple[int, int, int], ...] | None:
    """The certificate's entries (s1, s2, m) for the sorted, distinct `elems`,
    or None at the first difference whose order does not vanish."""
    m = system.modulus
    vanishing: set[int] = set()
    entries = []
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            b = m // math.gcd(elems[j] - elems[i], m)
            if b not in vanishing:
                if not system.is_vanishing_order(b):
                    return None
                vanishing.add(b)
            entries.append((elems[i], elems[j], b))
    return tuple(entries)


def _zero_pattern(orders: dict[int, list[int]], m: int) -> int:
    """Int with bit t < 2m set exactly when m / gcd(t, m) is a key of
    `orders`, {b: primes of b}, m any multiple of every order, such as g.

    The residues of order b are (m/b) * u with u a unit mod b, found by
    sieving out the primes of b.  Only ones are written, since the other
    multiples of m/b may be zeros of another order.
    """
    digits = bytearray(b"0") * m
    for b, primes in orders.items():
        units = bytearray([1]) * b
        for p in primes:
            units[::p] = bytes(len(range(0, b, p)))
        for r in itertools.compress(range(0, m, m // b), units):
            digits[m - 1 - r] = ord("1")
    period = int(digits, 2)
    return period << m | period


def _cliques(vertices: int, pattern: int, size: int) -> Iterator[tuple[int, ...]]:
    """The cliques of `size` bits of `vertices`, x < y joined when bit y - x
    of `pattern` is set, in lexicographic order; see the module docstring."""
    budget, width, touched, nodes = 8 * _PATTERN_BUDGET, pattern.bit_length(), 0, 0
    stack = [((), vertices)]  # (bits chosen, the bits that may follow them), the next on top
    while stack:
        chosen, cand = stack.pop()
        if len(chosen) == size:
            yield chosen
        elif cand.bit_count() >= size - len(chosen):
            bit = cand & -cand
            x, cand = bit.bit_length() - 1, cand ^ bit
            touched, nodes = touched + (width + x) // 8, nodes + 1
            if touched > budget:
                raise BudgetExceededError(f"the clique search touched {touched} bytes of its pattern in {nodes} "
                                          f"nodes, over its work budget of {budget} bytes")
            stack += [(chosen, cand), ((*chosen, x), cand & (pattern << x))]


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
    SEARCH_BUDGET candidates raise BudgetExceededError, and so do a
    period g of the zeros past about 1.07e8, before its pattern is built,
    and a walk that touches more than 2^30 bytes of it.  At |N| = 2 the
    window is {0}, so only |D| = 1 has a candidate, (0,).
    """
    found = list(itertools.islice(_window_candidates(system), SEARCH_BUDGET + 1))
    if len(found) > SEARCH_BUDGET:
        raise BudgetExceededError(
            f"the window search found more than {SEARCH_BUDGET} candidate sets, its result budget"
        )
    return found


def _window_candidates(system: ScaleDigitSystem) -> Iterator[SpectrumCandidate]:
    """The candidates of `search_candidate_s` in the same order, one at a
    time."""
    m, g = system.modulus, system._order_test.reach(system.modulus)
    size = g + g // 4
    if size > _PATTERN_BUDGET:
        raise BudgetExceededError(
            f"the window search at |N| = {m} builds a zero pattern of period g = {g}, about {size} "
            f"bytes (g bytes and a 2g-bit integer), over its budget of {_PATTERN_BUDGET} bytes"
        )
    pattern = _zero_pattern(system._order_test.all_orders(g), g)
    unit = m // g  # every zero is a multiple of |N|/g
    reach = (m - 2) // unit  # bit x of a window bitset stands for the integer (x - reach) * unit
    vertices = (pattern >> (-reach % g)) & ((1 << (2 * reach + 1)) - 1)
    try:
        for clique in _cliques(vertices, pattern, system.size - 1):
            # sorted and distinct: 0 is never a vertex, its bit being bit 0 or g of the pattern, never set
            yield SpectrumCandidate._of(tuple(sorted((0, *((x - reach) * unit for x in clique)))))
    except BudgetExceededError as error:
        raise BudgetExceededError(f"the window search at |N| = {m}, on zeros of period g = {g}: {error}") from None


def reduce_s(scale: int, candidate: SpectrumCandidate) -> SpectrumCandidate:
    """Congruent representative of S inside the window [2-|N|, |N|-2].

    Each element maps to its residue r in [0, |N|), kept as r when
    r <= |N|-2 and as r - |N| otherwise.  Element-wise congruence mod N
    preserves compatibility, so the reduced set is compatible exactly when
    the input is.
    """
    systems._check_scale(scale)
    m = abs(scale)
    if m == 2:
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


def _slice(scale: int, elements: tuple[int, ...], depth: int) -> list[int]:
    """sum_{j<depth} s_j * N^j, one entry per digit string (s_0, ..., s_{depth-1})
    of `elements`, unchecked and unsorted: [0] at depth 0."""
    if len(elements) == 1:  # the one point s * (1 + N + ... + N^(depth-1)); no power at s = 0
        s = elements[0]
        return [s and s * (scale**depth - 1) // (scale - 1)]
    values = list(elements) if depth else [0]  # depth 1: S itself
    for _ in range(depth - 1):  # Horner: the digit added last is s_0; N*v is formed once per v
        values = [w + s for v in values for w in [scale * v] for s in elements]
    return values


def _check_slice(scale: int, size: int, largest: int, depth: int) -> None:
    """Refuse, before it is built, a depth-slice of `size` elements whose
    largest absolute value is `largest`: an N^depth of more than
    LAMBDA_BUDGET bits, then, past the slice budget, its |S|^depth points
    times the 64-bit words of the largest point it can hold,
    1 + (bits of `largest` + (depth - 1) * bits of |N|) // 64.  Elements
    that are all 0 make the one point 0, which passes."""
    if not largest:
        return
    if (bits := depth * math.log2(abs(scale))) > systems.LAMBDA_BUDGET:
        raise BudgetExceededError(f"N^{depth} has about {bits:.0f} bits, over the budget {systems.LAMBDA_BUDGET} bits")
    words = 1 + (largest.bit_length() + (depth - 1) * abs(scale).bit_length()) // 64
    _check_slice_budget(size, depth, words, "words per point")


def lambda_enumerate(
    scale: int,
    candidate: SpectrumCandidate,
    depth: int,
) -> tuple[int, ...]:
    """The depth-slice of the candidate spectrum, sorted and deduplicated.

    Returns { sum_{j=0}^{depth-1} s_j * N^j : s_j in S }.  Slices use
    exactly `depth` digit positions including trailing zeros, so with
    0 in S they are nested as depth grows and exhaust the full spectrum
    in the limit.  Unless S = {0}, BudgetExceededError is raised before
    the slice is built past the budget of bits in N^depth, or of |S|^depth
    points, each counted as the 64-bit words of the largest it can be.
    """
    systems._check_scale(scale)
    systems._int_items((depth,), "depth must be a positive integer", least=1)
    elements = candidate.elements
    _check_slice(scale, len(elements), max(-elements[0], elements[-1]), depth)
    return tuple(sorted(set(_slice(scale, elements, depth))))


def pair_power(
    system: ScaleDigitSystem,
    candidate: SpectrumCandidate,
    k: int,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The k-fold pair (D_k, S_k) with X_k = X + N*X + ... + N^(k-1)*X.

    Both Minkowski sums are the depth-k slices of `lambda_enumerate`,
    returned sorted, under its guard read once for the larger of the two.
    (N^k, D_k, S_k) is compatible because (N, D, S) is, so it is not
    re-checked: for y != y' in S_k, first differing at digit j, the sum over
    D_k of e(x(y - y')/N^k) has the factor sum_d e(d(s_j - s'_j)/N), which
    is 0.  A compatible pair is distinct mod N in D and in S alike, so
    neither slice repeats a point.
    """
    systems._int_items((k,), "power must be a positive integer", least=1)
    if _certify(system, candidate.elements) is None:
        raise PreconditionError("pair powers are defined for compatible pairs only")
    digits, elements = system.digits, candidate.elements
    _check_slice(system.scale, system.size, max(map(abs, digits + elements)), k)
    return tuple(sorted(_slice(system.scale, digits, k))), tuple(sorted(_slice(system.scale, elements, k)))
