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
mod |N| are decided by at most one test per divisor b of |N|; the divisors
that pass are its vanishing orders.  By Mann (On linear relations between
roots of unity, Mathematika 12, 1965), a minimal vanishing sum of k roots
of unity that contains 1 uses only m-th roots, m squarefree with every
prime at most k.  Splitting D(zeta) = 0 into such subsums, every vanishing
order divides P * (d - d') for two digits, P the product of the primes
<= |D|, so it divides g = gcd(|N|, lcm(1..|D|) * lcm of the differences),
which is |N| when |N| divides lcm(1..|D|).  Only g is kept and
factorised, not |N|: its primes are at most max(|D|, s), with
s = max D - min D.  The one reach, for a single question and the batch of
all orders alike: b is tested only when it divides g and phi(b) <= s, as
Phi_b must divide z^(-min D) * D(z) of degree s.  `factorize`, the
library's one trial division, also serves |D| for the tiling conditions.
The orders are decided on demand: each `ScaleDigitSystem` holds an
`OrderTest`, which tests an order the first time a caller asks about it
and remembers the answer.  A compatibility check asks the orders of its
differences, the tiling construction its prime powers and their products,
and `is_complementing` shares one such memo among its (T1) and (T2)
questions; only the window search asks for every order at once, and sieves
their residues with the primes the memo already holds.

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
"""

from __future__ import annotations

import math


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
    Only the occupied classes are built.  An empty class makes R_ref = 0;
    otherwise the class with fewest terms is R_ref, which keeps sparse
    sums sparse.  Dropping the zero coefficients of each difference ends
    the recursion as soon as a difference cancels, so a vanishing sum is
    not followed through about phi(n) all-zero differences.
    """
    if len(terms) <= 1:  # c*zeta^t vanishes only when c = 0
        return not any(terms.values())
    p = primes[-1]
    m = n // p
    inv_m, inv_p = pow(m, -1, p), pow(p, -1, m)
    classes: dict[int, dict[int, int]] = {}
    for t, c in terms.items():
        cls = classes.setdefault(t * inv_m % p, {})
        v = t * inv_p % m
        cls[v] = cls.get(v, 0) + c
    ref = min(classes.values(), key=len) if len(classes) == p else {}
    for cls in classes.values():
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
    sum vanishes.  This is the library's one public vanishing test; it
    decides b alone, by at most one exact test.

    >>> order_vanishes((0, 1, 8, 9), 16)
    True
    >>> order_vanishes((0, 1, 8, 9), 8)
    False
    """
    if not isinstance(b, int) or b < 1:
        from .systems import PreconditionError  # systems imports this module

        raise PreconditionError(f"root order must be a positive integer, got {b!r}")
    exps = tuple(exponents)
    return not exps or OrderTest(exps, b)(b)


def factorize(n: int) -> dict[int, int]:
    """{p: v_p(n)} over every prime p of n, ascending, by trial division.

    >>> factorize(360)
    {2: 3, 3: 2, 5: 1}
    """
    factors, p = {}, 2
    while p * p <= n:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            factors[p] = k
        p += 1
    if n > 1:  # a prime: every smaller one is divided out
        factors[n] = 1
    return factors


class OrderTest:
    """The vanishing orders of sum_e z^e among the divisors of n, each
    decided on first ask and remembered; `ScaleDigitSystem` holds one, and
    `is_complementing` one per call.

    Only g = gcd(n, lcm(1..#exponents) * lcm of the differences) is kept
    and factorised, once: by Mann's bound every vanishing order divides it.
    A single question and `all_orders` alike refuse an order b with no
    exact test when it does not divide g or has phi(b) > max - min.
    """

    __slots__ = ("g", "span", "terms", "factors", "known", "orders")

    def __init__(self, exponents, n: int):
        exps = tuple(exponents)
        self.span = max(exps) - min(exps)
        self.terms = [(e, 1) for e in exps]
        sizes = math.lcm(*range(1, len(exps) + 1))
        self.g = n  # when n divides `sizes`, no difference can add to g
        if sizes % n:  # one gcd per distinct difference; their lcm divides n
            diffs = {e - f for e in exps for f in exps if e > f}
            self.g = math.gcd(n, sizes * math.lcm(*(math.gcd(n, d) for d in diffs)))
        self.factors = factorize(self.g)
        self.known: dict[int, bool] = {}  # every answer given so far
        self.orders: frozenset[int] | None = None  # the vanishing ones, once `all_orders` ran

    def __call__(self, b: int) -> bool:
        """Whether b > 1 divides n and Phi_b divides the sum."""
        verdict = self.known.get(b)
        if verdict is None:
            primes = self._primes(b)
            verdict = primes is not None and _order_divides(self.terms, b, primes)
            self.known[b] = verdict
        return verdict

    def _primes(self, b: int) -> list[int] | None:
        """The primes of b, ascending, when b > 1 divides g and phi(b) <= max - min."""
        if b < 2 or self.g % b:
            return None
        primes = [p for p in self.factors if b % p == 0]  # phi(b) = b * prod(1 - 1/p)
        return primes if b // math.prod(primes) * math.prod(p - 1 for p in primes) <= self.span else None

    def all_orders(self) -> frozenset[int]:
        """Every vanishing order, built once over the divisors in reach;
        an order already asked is not tested again."""
        if self.orders is None:
            span, reach = self.span, [(1, 1, [])]  # (b, phi(b), primes of b)
            for p, k in self.factors.items():
                grown = []
                for b, phi, primes in reach:
                    phi *= p - 1
                    for _ in range(k):
                        if phi > span:
                            break
                        b *= p
                        grown.append((b, phi, [*primes, p]))
                        phi *= p
                reach += grown
            known, terms = self.known, self.terms
            for b, _, primes in reach[1:]:
                if b not in known:
                    known[b] = _order_divides(terms, b, primes)
            self.orders = frozenset(b for b, verdict in known.items() if verdict)
        return self.orders
