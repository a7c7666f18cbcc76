"""The exact cyclotomic vanishing test.

Every verdict-bearing question in this library eventually reduces to "does
a sum of roots of unity vanish?", and those are precisely the numerically
ill-conditioned cases, so the answer is never read off a float.  Instead
the sum is read as an integer polynomial and the question becomes exact
divisibility by a cyclotomic polynomial: for b >= 2 and gcd(a, b) = 1,

    sum_d e^(2*pi*i*a*d/b) = 0   <=>   Phi_b(z) divides sum_d z^d,

because the left side evaluates the digit polynomial at a primitive b-th
root of unity, whose minimal polynomial over the rationals is Phi_b.  The
answer depends on the order b alone, not on a, so the zeros of the symbol
mod |N| are decided by one test per divisor b of |N|: the vanishing orders
of `ScaleDigitSystem.vanishing_orders`.  Few divisors are in the digits'
reach: z^(-min D) * D(z) has degree s = max D - min D, so Phi_b dividing it
forces phi(b) <= s, and each p^k exactly dividing b has p^(k-1)*(p-1) <= s.
Only the primes p <= s + 1 of |N|, each capped at that k, are factorised;
their product M, the part of |N| in reach, is the modulus the batch
works in, and a single digit reaches M = 1.

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
is ever built or divided by.  Sums are sparse {exponent: coefficient}
dicts throughout.

Most divisors of M are not vanishing orders, and `vanishing_orders`
refutes those first with one evaluation in a finite field.  Take the
first prime P = 1 + m*M and an R of order exactly M mod P (R = x^m for
the first x with R^(M/q) != 1 for every prime q of M).  Then
r = R^(M/b) has order b.  Since b divides P - 1, z^b - 1, the product
of the Phi_e(z) over e | b, has b distinct roots mod P, and the roots of
Phi_b are exactly the elements of order b: Phi_b(r) = 0 (mod P).  If
Phi_b divides the integer polynomial sum_d z^(d mod b), the monic
quotient has integer coefficients, so sum_d r^(d mod b) = 0 (mod P).  A
nonzero sum therefore proves that b is not a vanishing order, in
integers only; a zero sum (a vanishing order, or rarely a coincidence
mod P) goes to the exact test, which alone answers yes.  P is proved
prime by Miller-Rabin on the first 13 primes as bases, exact below
psi_13 ~ 3.317e24 (`arith.PRIME_TEST_BOUND`); when no P is found below
that bound within _FIELD_SEARCH multipliers m, every divisor of M
goes to the exact test.
"""

from __future__ import annotations

import itertools
import math

from .arith import PRIME_TEST_BOUND, divisors_from, factorize, is_prime
from .systems import PreconditionError

#: Multipliers m tried for the field prime P = 1 + m*M before the batch
#: falls back to the exact test on every divisor.
_FIELD_SEARCH = 1000


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
    Taking the class with fewest terms as R_ref keeps sparse sums sparse,
    and dropping the zero coefficients of each difference ends the
    recursion as soon as a difference cancels, so a vanishing sum is not
    followed through about phi(n) all-zero differences.
    """
    if not terms:
        return True
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
            c = diff.get(v, 0) - c
            if c:
                diff[v] = c
            else:
                diff.pop(v, None)  # v may be absent: ref can carry a 0 coefficient
        if not _squarefree_vanishes(diff, m, primes[:-1]):
            return False
    return True


def _order_divides(terms, b: int, primes: list[int]) -> bool:
    """Whether Phi_b divides sum c*z^e over the (e, c) terms; e may be any
    integer, and `primes` are the primes of b, ascending.

    Exponents are reduced mod b and split into the class polynomials mod
    k = b / rad(b), each of which must vanish at a primitive rad-th root of
    unity (see the module docstring).
    """
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
    sum vanishes.  This is the library's one public vanishing test, on
    the same exact path as a system's vanishing orders; `is_complementing`
    asks it for the (T1) and (T2) orders of a modulus.

    >>> order_vanishes((0, 1, 8, 9), 16)
    True
    >>> order_vanishes((0, 1, 8, 9), 8)
    False
    """
    if not isinstance(b, int) or b < 1:
        raise PreconditionError(f"root order must be a positive integer, got {b!r}")
    return _order_divides(((e, 1) for e in exponents), b, sorted(factorize(b)))


def _order_n_root(n: int, primes: list[int]) -> tuple[int, int] | None:
    """(P, R) with P = 1 + m*n the first prime for m <= _FIELD_SEARCH and R of
    order exactly n mod P, or None when no such P lies below
    PRIME_TEST_BOUND; `primes` are the primes of n."""
    for m in range(1, _FIELD_SEARCH + 1):
        p = 1 + m * n
        if p >= PRIME_TEST_BOUND:
            return None
        if is_prime(p):
            break
    else:
        return None
    for x in itertools.count(2):  # ends: any generator of the cyclic group works
        root = pow(x, m, p)
        if all(pow(root, n // q, p) != 1 for q in primes):
            return p, root


def vanishing_orders(exponents, n: int) -> frozenset[int]:
    """The divisors b > 1 of n with Phi_b dividing sum_e z^e, in one batch.

    Only the part of n that the exponents can reach is factorised (see
    the module docstring), by one trial division.  Each of its divisors
    is first evaluated at an element of order b in the field of
    `_order_n_root`; a nonzero sum refutes it, and the rest are decided by
    the exact test.  The answer equals `order_vanishes` on every divisor
    of n.
    """
    exps = tuple(exponents)
    span = max(exps) - min(exps) if exps else n  # the empty sum vanishes everywhere
    factors, rest, p = {}, n, 2
    while p <= span + 1 and p * p <= rest:
        while rest % p == 0:
            rest //= p
            if p ** factors.get(p, 0) * (p - 1) <= span:  # phi of one more power of p
                factors[p] = factors.get(p, 0) + 1
        p += 1
    if 1 < rest <= span + 1:  # a prime: every smaller one is divided out
        factors[rest] = 1
    reach = math.prod(q**k for q, k in factors.items())
    primes = sorted(factors)
    terms = [(e, 1) for e in exps]
    field = _order_n_root(reach, primes)
    if field is not None:
        p, root = field
        residues = [e % reach for e, _ in terms]  # r^reach = 1 for every r below
    found = []
    for b in divisors_from(factors)[1:]:
        if field is not None:
            r = pow(root, reach // b, p)
            if sum(pow(r, e, p) for e in residues) % p:
                continue
        if _order_divides(terms, b, [q for q in primes if b % q == 0]):
            found.append(b)
    return frozenset(found)
