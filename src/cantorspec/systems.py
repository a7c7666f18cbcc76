"""Value types shared across the library, plus its error hierarchy and
the enumeration budget that the exact layers share.

Everything here is immutable.  Systems and candidate sets normalize their
element lists to sorted tuples at construction time and validate the
invariants every downstream operation relies on (|N| >= 2, nonempty and
pairwise-distinct entries, and so on), so later code never re-checks them.
Data derived from a system, such as its vanishing orders, is computed on
first use and cached on the instance; it is not a field, so equality,
hashing and repr see only the scale and the digits.  The vanishing orders
are decided one at a time, as callers ask about them (see `cyclotomic`).
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import OrderTest


class PreconditionError(ValueError):
    """A mathematical hypothesis of the requested operation is violated."""


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its configured size budget."""


#: Hard ceiling on the number of points a spectrum slice (or a pair power's
#: Minkowski sum) may enumerate, read at call time.
LAMBDA_BUDGET = 1_000_000

#: Terms M of the polynomial that closes each point's tail in the Q kernel,
#: and the remainder at which the kernel switches to it.
TAIL_TERMS = 14
TAIL_SWITCH_REMAINDER = 2.0**-70
#: Digit spreads from here on (about 3.7e50) are refused by the Q kernel as
#: past its float range.
#: Neither its tail series nor its factors, whose phases are reduced exactly,
#: need such a limit; it keeps the refusal that the former float tail made
#: from about this spread on, so the kernel answers the same digit sets.
SPREAD_LIMIT = 2**168


def _check_slice_budget(size: int, depth: int, grid: int = 1) -> None:
    """Refuse |S|^depth slice points, times `grid` Q points, past the budget.

    With |S| >= 2 the power passes the budget once depth reaches the
    budget's bit length, so a huge depth is refused without building it.
    """
    work = None if size > 1 and depth >= LAMBDA_BUDGET.bit_length() else size**depth * grid
    if work is None or work > LAMBDA_BUDGET:
        what = f"|S|^depth = {size}^{depth}"
        if grid != 1:
            what = f"|S|^depth * grid = {size}^{depth} * {grid}" + ("" if work is None else f" = {work}")
        raise BudgetExceededError(f"{what} exceeds the enumeration budget {LAMBDA_BUDGET}")


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; the computed object contradicts itself."""


def _as_int_tuple(values, what: str) -> tuple[int, ...]:
    items = tuple(values)
    if not items:
        raise PreconditionError(f"{what} must be nonempty")
    for v in items:
        if not isinstance(v, int) or isinstance(v, bool):
            raise PreconditionError(f"{what} must consist of integers, got {v!r}")
    if len(set(items)) != len(items):
        raise PreconditionError(f"{what} must be pairwise distinct, got {sorted(items)}")
    return tuple(sorted(items))


@dataclass(frozen=True)
class ScaleDigitSystem:
    """The pair (N, D): an integer scale with |N| >= 2 and a finite digit set."""

    scale: int
    digits: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.scale, int) or isinstance(self.scale, bool):
            raise PreconditionError(f"scale must be an integer, got {self.scale!r}")
        if abs(self.scale) < 2:
            raise PreconditionError(f"scale must satisfy |N| >= 2, got {self.scale}")
        object.__setattr__(self, "digits", _as_int_tuple(self.digits, "digit set"))

    @property
    def modulus(self) -> int:
        """|N|; all residue arithmetic is insensitive to the sign of N."""
        return abs(self.scale)

    @property
    def size(self) -> int:
        return len(self.digits)

    @functools.cached_property
    def _order_test(self) -> OrderTest:
        return OrderTest(self.digits, self.modulus)

    def is_vanishing_order(self, b: int) -> bool:
        """Whether b > 1 divides |N| with Phi_b dividing the digit
        polynomial.  m_{D/N} vanishes at the integer k exactly when
        |N| / gcd(k, |N|) is such an order; the sign of N conjugates the
        symbol and leaves its zeros alone.  Each order is decided the first
        time it is asked, and at most once per system."""
        return self._order_test(b)

    @property
    def vanishing_orders(self) -> frozenset[int]:
        """Every b with `is_vanishing_order(b)`, built once per system over
        the same reach as a single question; an order asked before or
        after is not tested again."""
        return self._order_test.all_orders()

    @functools.cached_property
    def lipschitz(self) -> float:
        """2*pi*sum|d|/|D|, so |m_D(eta) - 1| <= lipschitz * |eta|; the tail
        bound of the Fourier product is built from it.  Digits past the
        float range are refused."""
        try:
            return 2.0 * math.pi * sum(abs(d) for d in self.digits) / len(self.digits)
        except OverflowError:
            raise PreconditionError(
                "the digits' sum of |d| is past the float range of the Fourier product's tail bound"
            ) from None

    @functools.cached_property
    def difference_weights(self) -> tuple[tuple[int, float], ...]:
        """Pairs (k, 4*c_k/|D|^2) over the positive differences k of the
        digits, c_k = #{(d, d') in D^2 : d - d' = k}, so that
        |m_D(eta)|^2 = 1 - sum_k w_k * sin^2(pi*k*eta)."""
        counts = Counter(b - a for i, a in enumerate(self.digits) for b in self.digits[i + 1 :])
        scale = 4.0 / (self.size * self.size)
        return tuple((k, scale * c) for k, c in sorted(counts.items()))

    @functools.cached_property
    def tail_series(self) -> tuple[float, tuple[float, ...], float, float]:
        """(scale, coeffs, remainder, switch): |mu_hat(t)|^2 as a polynomial
        of M = TAIL_TERMS terms in s = (scale*t)^2.

        With Z = X - Y for X, Y independent of law mu, |mu_hat(t)|^2 =
        E cos(2*pi*t*Z).  Let rho = spread/(|N|-1), the largest |Z|, and
        scale = 2*pi*rho.  Then |mu_hat(t)|^2 = sum_{n<M} c_n s^n + R with
        c_n = (-1)^n E[(Z/rho)^(2n)]/(2n)! and |R| <= remainder * s^M,
        remainder = E[(Z/rho)^(2M)]/(2M)!: the Lagrange remainder of cos,
        then an expectation.  `coeffs` is c_0, ..., c_{M-1}, and `switch`
        is the t where remainder * s^M reaches TAIL_SWITCH_REMAINDER.

        The moments come from Z = (delta + Z')/N in law, delta = d - d':
        E[Z^n](|N|^n - 1) = sum_{i<n} C(n, i) E[delta^(n-i)] E[Z^i], and odd
        moments vanish.  Divided through by (rho*|N|)^n, every moment and
        every power of delta/(rho*|N|) lies in [0, 1] and every term is
        nonnegative, so no digit spread overflows them.  A spread from
        SPREAD_LIMIT on raises OverflowError, which the Q kernel refuses
        as past its float range.
        """
        spread = self.digits[-1] - self.digits[0]
        if not spread:  # D = {0}: the transform is 1 everywhere
            return 0.0, (1.0,) + (0.0,) * (TAIL_TERMS - 1), 0.0, math.inf
        if spread >= SPREAD_LIMIT:
            raise OverflowError(f"digit spread {spread} is past SPREAD_LIMIT")
        base = self.modulus
        shrink = (1 / base) ** 2  # |N|^-2
        # E[(delta/(rho*|N|))^(2j)] for j <= M, from (k/(rho*|N|))^2 and w_k/2
        ratios = [((k * (base - 1)) / (spread * base)) ** 2 for k, _ in self.difference_weights]
        powers = [w / 2.0 for _, w in self.difference_weights]
        delta = [1.0]
        for _ in range(TAIL_TERMS):
            powers = [p * r for p, r in zip(powers, ratios)]
            delta.append(sum(powers))
        moments = [1.0]  # E[(Z/rho)^(2n)]
        for n in range(1, TAIL_TERMS + 1):
            acc = sum(_EVEN_BINOMIALS[n][i] * delta[n - i] * shrink**i * moments[i] for i in range(n))
            moments.append(acc / (1.0 - shrink**n))
        coeffs = tuple(moments[n] * _COS_TAYLOR[n] for n in range(TAIL_TERMS))
        remainder = moments[TAIL_TERMS] * abs(_COS_TAYLOR[TAIL_TERMS])
        scale = 2.0 * math.pi * (spread / (base - 1))
        switch = math.sqrt((TAIL_SWITCH_REMAINDER / remainder) ** (1.0 / TAIL_TERMS)) / scale
        return scale, coeffs, remainder, switch


#: C(2n, 2i) and (-1)^n/(2n)! for n <= TAIL_TERMS, for `tail_series`.
_EVEN_BINOMIALS = [[float(math.comb(2 * n, 2 * i)) for i in range(n)] for n in range(TAIL_TERMS + 1)]
_COS_TAYLOR = [(-1) ** n / math.factorial(2 * n) for n in range(TAIL_TERMS + 1)]


@dataclass(frozen=True)
class SpectrumCandidate:
    """A finite integer set S, candidate for generating a spectrum."""

    elements: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", _as_int_tuple(self.elements, "candidate set"))

    @property
    def size(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class TruncationPolicy:
    """Approximation knobs for the infinite objects: the number of digit
    positions kept when slicing the candidate spectrum, and the tail budget
    for the infinite Fourier product."""

    depth: int = 8
    product_epsilon: float = 1e-12

    def __post_init__(self):
        if not isinstance(self.depth, int) or self.depth < 1:
            raise PreconditionError(f"depth must be a positive integer, got {self.depth!r}")
        if not 0.0 < self.product_epsilon < 1.0:
            raise PreconditionError(
                f"product_epsilon must lie in (0, 1), got {self.product_epsilon!r}"
            )


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class RationalInterval:
    """A closed interval with exact rational endpoints, lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise PreconditionError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    def scaled(self, factor: int) -> "RationalInterval":
        """The interval dilated about 0 by a positive integer factor."""
        if factor < 1:
            raise PreconditionError(f"scale factor must be a positive integer, got {factor!r}")
        return RationalInterval(self.lo * factor, self.hi * factor)
