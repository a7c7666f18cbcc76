"""Exact integer-polynomial arithmetic and cyclotomic vanishing tests.

Every verdict-bearing question in this library eventually reduces to "does
a sum of roots of unity vanish?", and those are precisely the numerically
ill-conditioned cases, so the answer is never read off a float.  Instead
the sum is encoded as an integer polynomial and the question becomes exact
divisibility by a cyclotomic polynomial: for b >= 2 and gcd(a, b) = 1,

    sum_d e^(2*pi*i*a*d/b) = 0   <=>   Phi_b(z) divides sum_d z^d,

because the left side evaluates the digit polynomial at a primitive b-th
root of unity, whose minimal polynomial over the rationals is Phi_b.  The
answer depends on the order b alone, not on a, so a zero mask mod |N| is
decided by one test per divisor b of |N|.

The test itself works at the radical.  Write b = k * rad(b).  Then
Phi_b(z) = Phi_rad(z^k), and zeta_b^k is a primitive rad-th root of unity;
since [Q(zeta_b) : Q(zeta_rad)] = phi(b)/phi(rad) = k, the powers
1, zeta_b, ..., zeta_b^(k-1) form a basis of Q(zeta_b) over Q(zeta_rad).
Splitting the exponents of P into their classes j mod k therefore gives

    P(zeta_b) = sum_j zeta_b^j * P_j(zeta_rad),

with class polynomials P_j(z) = sum of z^((e - j)/k mod rad) over the
exponents e = j (mod k), and P(zeta_b) = 0 exactly when every
P_j(zeta_rad) = 0, i.e. when Phi_rad divides every P_j.  At a prime power
this is a coset count: Phi_p divides P_j exactly when its p coefficients
are equal.  At a squarefree index the same basis argument is applied one
prime at a time (see `_squarefree_vanishes`), so no cyclotomic polynomial
is ever built or divided by to answer a vanishing question.

The polynomials themselves, for callers that want them, are built prime
by prime from Phi_1 = z - 1 and

    Phi_np(z) = Phi_n(z^p) / Phi_n(z)   for a prime p not dividing n,

with Phi_2n(z) = Phi_n(-z) for odd n > 1; Phi_n for any n is then
Phi_rad(z^(n/rad)), with no divisor recursion over z^n - 1.

Polynomials are dense coefficient tuples, constant term first, with no
trailing zero on nonzero polynomials; () is the zero polynomial.  This is
enough arithmetic for the library (add/sub/mul, exact division, shifts);
it is not a general polynomial-algebra package.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .arith import divisors, factorize, radical
from .systems import ConsistencyError, PreconditionError, ScaleDigitSystem


class IntPolynomial:
    """A polynomial with arbitrary-precision integer coefficients.

    >>> IntPolynomial((1, 0, 1)).degree
    2
    >>> IntPolynomial((-1, 1)) * IntPolynomial((1, 1))
    IntPolynomial((-1, 0, 1))
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        items = list(coeffs)
        while items and items[-1] == 0:
            items.pop()
        self.coeffs = tuple(items)

    @classmethod
    def from_exponents(cls, exponents) -> "IntPolynomial":
        """Sum of z^e over the (possibly repeating) nonnegative exponents."""
        exps = list(exponents)
        if any(e < 0 for e in exps):
            raise PreconditionError(f"exponents must be nonnegative, got {min(exps)}")
        coeffs = [0] * (max(exps) + 1) if exps else []
        for e in exps:
            coeffs[e] += 1
        return cls(coeffs)

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPolynomial({self.coeffs!r})"

    def __neg__(self):
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        if self.is_zero() or other.is_zero():
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            for j, d in enumerate(other.coeffs):
                out[i + j] += c * d
        return IntPolynomial(out)

    __rmul__ = __mul__

    def shifted(self, k: int) -> "IntPolynomial":
        """Multiply by z^k (k >= 0)."""
        if k < 0:
            raise PreconditionError(f"shift must be nonnegative, got {k}")
        if self.is_zero():
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def evaluate(self, x):
        """Horner evaluation; works for int, Fraction and complex points."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __divmod__(self, other: "IntPolynomial"):
        """Long division over the integers.

        Raises if a leading-coefficient division is inexact; every divisor
        used internally is monic, so this never triggers in library code.
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quot = [0] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        while len(rem) >= len(other.coeffs):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) < len(other.coeffs):
                break
            q, r = divmod(rem[-1], lead)
            if r != 0:
                raise ValueError(
                    f"leading coefficient {rem[-1]} not divisible by {lead}"
                )
            pos = len(rem) - len(other.coeffs)
            quot[pos] = q
            for i, c in enumerate(other.coeffs):
                rem[pos + i] -= q * c
        return IntPolynomial(quot), IntPolynomial(rem)

    def divisible_by(self, other: "IntPolynomial") -> bool:
        _, rem = divmod(self, other)
        return rem.is_zero()


def _dilated(poly: IntPolynomial, k: int) -> IntPolynomial:
    """poly(z^k) for k >= 1."""
    coeffs = [0] * (poly.degree * k + 1)
    coeffs[::k] = poly.coeffs
    return IntPolynomial(coeffs)


def _squarefree_cyclotomic(n: int) -> IntPolynomial:
    """Phi_n for squarefree n, adding the largest prime of n last.

    The step Phi_n(z^p) / Phi_n(z) costs about p * phi(n)^2 operations, so
    adding the largest prime last keeps phi(n) at its smallest there.
    """
    if n == 1:
        return IntPolynomial((-1, 1))
    if n % 2 == 0 and n > 2:
        half = _squarefree_cyclotomic(n // 2)
        return IntPolynomial(-c if i % 2 else c for i, c in enumerate(half.coeffs))
    p = max(factorize(n))
    inner = _squarefree_cyclotomic(n // p)
    quot, rem = divmod(_dilated(inner, p), inner)
    if not rem.is_zero():
        raise ConsistencyError(f"Phi_{n // p}(z^{p}) not divisible by Phi_{n // p}")  # pragma: no cover
    return quot


def cyclotomic(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial Phi_n, monic with integer coefficients.

    Computed as Phi_rad(z^(n/rad)) from the squarefree builder.

    >>> cyclotomic(1)
    IntPolynomial((-1, 1))
    >>> cyclotomic(12)
    IntPolynomial((1, 0, -1, 0, 1))
    """
    if not isinstance(n, int) or n < 1:
        raise PreconditionError(f"cyclotomic index must be a positive integer, got {n!r}")
    rad = radical(n)
    return _dilated(_squarefree_cyclotomic(rad), n // rad)


def _squarefree_vanishes(terms: dict[int, int], n: int, primes: list[int]) -> bool:
    """Whether sum c*zeta^t over the {t: c} terms is 0 for zeta a primitive
    n-th root of unity; n is squarefree with the ascending primes given,
    and every t lies in [0, n).

    For n = p*m with p the largest prime, t = u*m + v*p (mod n) splits the
    sum as sum_u omega^u * R_u(eta) with omega = zeta^m of order p and
    eta = zeta^p of order m.  Over Q(eta) the minimal polynomial of omega
    is Phi_p, whose only linear relation among 1, omega, ..., omega^(p-1)
    is their plain sum, so the sum vanishes exactly when every R_u(eta) is
    the same number: each R_u - R_ref vanishes at eta, tested recursively.
    Taking the class with fewest terms as R_ref keeps sparse sums sparse.
    """
    if not primes:
        return sum(terms.values()) == 0
    p = primes[-1]
    m = n // p
    inv_m, inv_p = pow(m, -1, p), pow(p, -1, m)
    classes: list[dict[int, int]] = [{} for _ in range(p)]
    for t, c in terms.items():
        cls = classes[t * inv_m % p]
        v = t * inv_p % m
        cls[v] = cls.get(v, 0) + c
    ref = min(classes, key=len)
    for cls in classes:
        if cls is ref:
            continue
        diff = dict(cls)
        for v, c in ref.items():
            diff[v] = diff.get(v, 0) - c
        if not _squarefree_vanishes(diff, m, primes[:-1]):
            return False
    return True


def _order_divides(terms, b: int) -> bool:
    """Whether Phi_b divides sum c*z^e over the (e, c) terms; e may be any integer.

    Exponents are reduced mod b and split into the class polynomials mod
    k = b / rad(b), each of which must vanish at a primitive rad-th root of
    unity (see the module docstring).
    """
    primes = sorted(factorize(b))
    rad = math.prod(primes)
    k = b // rad
    classes: dict[int, dict[int, int]] = {}
    for e, c in terms:
        e %= b
        cls = classes.setdefault(e % k, {})
        cls[e // k] = cls.get(e // k, 0) + c
    return all(_squarefree_vanishes(cls, rad, primes) for cls in classes.values())


def order_vanishes(exponents, b: int) -> bool:
    """Whether Phi_b divides sum_e z^e, i.e. the sum of zeta^e vanishes for
    every primitive b-th root of unity zeta.

    Exponents are any integers and are counted with repetition; the empty
    sum vanishes.  This is the library's one exact vanishing test: every
    other test here is a view of it.

    >>> order_vanishes((0, 1, 8, 9), 16)
    True
    >>> order_vanishes((0, 1, 8, 9), 8)
    False
    """
    if not isinstance(b, int) or b < 1:
        raise PreconditionError(f"root order must be a positive integer, got {b!r}")
    return _order_divides(((e, 1) for e in exponents), b)


def vanishes_at_primitive_root(p: IntPolynomial, m: int) -> bool:
    """Whether p vanishes at the primitive m-th roots of unity.

    Equivalent to Phi_m dividing p exactly over the integers.  The zero
    polynomial is rejected: divisibility would hold trivially but the
    question is meaningless for it.
    """
    if p.is_zero():
        raise PreconditionError("vanishing test rejects the zero polynomial")
    if not isinstance(m, int) or m < 1:
        raise PreconditionError(f"root order must be a positive integer, got {m!r}")
    return _order_divides(enumerate(p.coeffs), m)


def digit_polynomial(digits, modulus: int | None = None) -> IntPolynomial:
    """Sum of z^d over the digits, shifted to nonnegative exponents.

    With a modulus, exponents are additionally reduced mod it; this keeps
    values at modulus-th roots of unity unchanged while bounding degree.
    """
    digs = tuple(digits)
    if not digs:
        raise PreconditionError("digit set must be nonempty")
    low = min(digs)
    exps = [d - low for d in digs]
    if modulus is not None:
        exps = [e % modulus for e in exps]
    return IntPolynomial.from_exponents(exps)


def symbol_vanishes_at(digits, point) -> bool:
    """Exact test of whether the digit symbol m_D vanishes at a rational point.

    m_D(a/b) with gcd(a, b) = 1 is a sum of b-th roots of unity; it vanishes
    iff Phi_b divides the digit polynomial.  At integers the symbol equals
    1, so the answer there is always False.
    """
    b = Fraction(point).denominator
    if b == 1:
        return False
    digs = tuple(digits)
    if not digs:
        raise PreconditionError("digit set must be nonempty")
    return order_vanishes(digs, b)


def mask_zero_residues(system: ScaleDigitSystem) -> frozenset[int]:
    """Residues r mod |N| at which the scaled symbol m_{D/N} vanishes.

    For integer k, m_{D/N}(k) depends only on k mod |N| (for negative N the
    value conjugates, leaving zeros unchanged).  The returned set contains
    exactly the r in {1, ..., |N|-1} with m_{D/N}(k) = 0 for every integer
    k congruent to r.  The mask is built once per system and cached on it
    as `system.zero_mask`.
    """
    return system.zero_mask


def _zero_residues(system: ScaleDigitSystem) -> frozenset[int]:
    """Build the zero mask of `mask_zero_residues`.

    Whether r is a zero depends only on its order b = |N| / gcd(r, |N|),
    so each divisor b > 1 of |N| is tested once and, when Phi_b divides the
    digit polynomial, contributes the residues (|N|/b) * u with u a unit
    mod b, found by sieving out the primes of b.
    """
    m = system.modulus
    zeros: list[int] = []
    for b in divisors(m)[1:]:
        if order_vanishes(system.digits, b):
            units = bytearray([1]) * b
            for p in factorize(b):
                units[::p] = bytes(len(range(0, b, p)))
            zeros.extend(itertools.compress(range(0, m, m // b), units))
    return frozenset(zeros)
