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
