"""Value types shared across the library, plus its error hierarchy and
the enumeration budget that the exact layers share.

Every value type is immutable: a plain class over `_Record`, which gives
repr, equality and hashing over the fields `__match_args__` names, raises
AttributeError on assignment and lets `dataclasses.replace` and its kin
take the records.  Each `__init__` sets its own fields.
Systems and candidate sets normalize their element lists to sorted tuples
at construction time and validate the invariants every downstream
operation relies on (|N| >= 2, nonempty and pairwise-distinct entries, and
so on), so later code never re-checks them.  Nor does it re-check what it
derives from them: `_Record._of` builds a record from its field values
without `__init__`, and so without its checks, and its one rule is that
the values come from records already validated (the reduced system of a
report, a window candidate, a hull).  Data derived from a system, such as
its vanishing orders, is computed on first use and cached on the instance
by `_cached`; it is not a field, so equality, hashing and repr see only
the scale and the digits.  The vanishing orders are decided one at a time,
as callers ask, once per digit set per process, by a memo of the digits
alone that systems with equal digits share (see `cyclotomic`).  So is a
system's certificate slot, which `compat.is_compatible` keeps in the same
`__dict__`: the last candidate's elements with its certificate's entries,
or with None, ints and tuples only, so that no record points back at the
system from it.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import OrderTest, _order_memo


class PreconditionError(ValueError):
    """A mathematical hypothesis of the requested operation is violated."""


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its configured size budget."""


#: Hard ceiling, read at call time, on the work of an exact enumeration:
#: |S|^depth times what each of its points or cylinders costs (Q points of
#: a grid, 64-bit words of a slice's largest point, integers of a cycle
#: search's cylinder), and the bits of N^depth.  Tiling reads it too, as the
#: most sums of a complement's counting check and translates it may place.
LAMBDA_BUDGET = 1_000_000


def _check_slice_budget(size: int, depth: int, factor: int = 1, unit: str = "") -> None:
    """Refuse |S|^depth slice points or cycle-search cylinders, times
    `factor` of `unit` each (the grid, words per point, integers per
    cylinder), past the budget; the message names the unit.

    With |S| >= 2 the power passes the budget once depth reaches the
    budget's bit length, so a huge depth is refused without building it.
    """
    work = None if size > 1 and depth >= LAMBDA_BUDGET.bit_length() else size**depth * factor
    if work is None or work > LAMBDA_BUDGET:
        what = f"|S|^depth = {size}^{depth}"
        if factor != 1:
            what = f"|S|^depth * {unit} = {size}^{depth} * {factor}" + ("" if work is None else f" = {work}")
        raise BudgetExceededError(f"{what} exceeds the enumeration budget {LAMBDA_BUDGET}")


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; the computed object contradicts itself."""


class _DataclassFields:
    """A record class's `__dataclass_fields__`, made on first read together
    with its `__dataclass_params__` by `make_dataclass`, so that
    `dataclasses.replace`, `fields`, `asdict` and `is_dataclass` take the
    records while importing them loads no `dataclasses`."""

    def __get__(self, record, cls):
        from dataclasses import make_dataclass

        twin = make_dataclass(cls.__qualname__, cls.__match_args__, frozen=True)
        cls.__dataclass_fields__, cls.__dataclass_params__ = twin.__dataclass_fields__, twin.__dataclass_params__
        return twin.__dataclass_fields__


class _Record:
    """Immutable value type over the fields named in `__match_args__`."""

    __dataclass_fields__ = _DataclassFields()

    @classmethod
    def _of(cls, *values):
        """The record of these field values, in `__match_args__` order, built
        without `__init__` and so unchecked: only for values derived from
        records already validated."""
        record = object.__new__(cls)
        record.__dict__.update(zip(cls.__match_args__, values))
        return record

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _cached:
    """A lazy attribute: computed on first read and stored in the instance's
    `__dict__`, where later reads find it before this non-data descriptor.
    Unlike `functools.cached_property` on Python 3.11, it takes no lock."""

    def __init__(self, compute):
        self.compute, self.name, self.__doc__ = compute, compute.__name__, compute.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


def _int_items(values, rule: str, least: int | None = None) -> tuple:
    """values as a tuple, refused with `rule` at the first that is not an
    int (a bool is not) or lies below `least`; repeats are the caller's to
    judge."""
    items = tuple(values)
    for v in items:
        if not isinstance(v, int) or isinstance(v, bool) or least is not None and v < least:
            raise PreconditionError(f"{rule}, got {v!r}")
    return items


def _check_scale(scale) -> None:
    """Refuse a scale that is not an integer (a bool is not) with |N| >= 2."""
    if not isinstance(scale, int) or isinstance(scale, bool) or abs(scale) < 2:
        raise PreconditionError(f"scale must be an integer with |N| >= 2, got {scale!r}")


def _as_int_tuple(values, what: str) -> tuple[int, ...]:
    items = _int_items(values, f"{what} must consist of integers")
    if not items:
        raise PreconditionError(f"{what} must be nonempty")
    if len(set(items)) != len(items):
        raise PreconditionError(f"{what} must be pairwise distinct, got {sorted(items)}")
    return tuple(sorted(items))


class ScaleDigitSystem(_Record):
    """The pair (N, D): an integer scale with |N| >= 2 and a finite digit set."""

    __match_args__ = ("scale", "digits")

    def __init__(self, scale: int, digits: tuple[int, ...]):
        _check_scale(scale)
        self.__dict__.update(scale=scale, digits=_as_int_tuple(digits, "digit set"))

    @property
    def modulus(self) -> int:
        """|N|; all residue arithmetic is insensitive to the sign of N."""
        return abs(self.scale)

    @property
    def size(self) -> int:
        return len(self.digits)

    @_cached
    def _order_test(self) -> OrderTest:
        return _order_memo(self.digits)

    def is_vanishing_order(self, b: int) -> bool:
        """Whether b > 1 divides |N| with Phi_b dividing the digit
        polynomial.  m_{D/N} vanishes at the integer k exactly when
        |N| / gcd(k, |N|) is such an order; the sign of N conjugates the
        symbol and leaves its zeros alone.  Each order is decided the first
        time it is asked, and at most once per digit set per process."""
        return b > 1 and self.scale % b == 0 and self._order_test(b)

    @_cached
    def vanishing_orders(self) -> frozenset[int]:
        """Every b with `is_vanishing_order(b)`, over the same reach as a
        single question; each order is tested once per digit set per
        process, by whichever system with these digits asks it first."""
        return frozenset(self._order_test.all_orders(self.modulus))


class SpectrumCandidate(_Record):
    """A finite integer set S, candidate for generating a spectrum."""

    __match_args__ = ("elements",)

    def __init__(self, elements: tuple[int, ...]):
        self.__dict__.update(elements=_as_int_tuple(elements, "candidate set"))

    @property
    def size(self) -> int:
        return len(self.elements)


class TruncationPolicy(_Record):
    """Approximation knobs for the infinite objects: the number of digit
    positions kept when slicing the candidate spectrum, and the tail budget
    for the infinite Fourier product."""

    __match_args__ = ("depth", "product_epsilon")

    def __init__(self, depth: int = 8, product_epsilon: float = 1e-12):
        _int_items((depth,), "depth must be a positive integer", least=1)
        if not 0.0 < product_epsilon < 1.0:
            raise PreconditionError(f"product_epsilon must lie in (0, 1), got {product_epsilon!r}")
        self.__dict__.update(depth=depth, product_epsilon=product_epsilon)


DEFAULT_POLICY = TruncationPolicy()


class RationalInterval(_Record):
    """A closed interval with exact rational endpoints, lo <= hi."""

    __match_args__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        self.__dict__.update(lo=Fraction(lo), hi=Fraction(hi))
        if self.lo > self.hi:
            raise PreconditionError(f"interval endpoints out of order: {self.lo} > {self.hi}")
