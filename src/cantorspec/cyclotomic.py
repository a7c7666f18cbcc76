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
<= |D|, so one that divides n divides its reach gcd(n, lcm(1..|D|) * lcm
of the differences), which is n when n divides lcm(1..|D|).  The reach
depends on D and n alone, so one memo per digit set answers any order
and keeps of the n asked only g, the lcm of their reaches; its primes
are at most max(|D|, s), with s = max D - min D.  The one rule,
for a single question and the batch of all orders at n alike: b is tested
only when it is its own reach and phi(b) <= s, as Phi_b must divide
z^(-min D) * D(z) of degree s.  The batch, on the reach of n, and a single
question, on b, factorise with `factorize`, the library's one trial
division, which also serves |D| for the tiling conditions, only what the
primes found before leave of it, and keep the primes they find.
The orders are decided on demand, once per digit set per process: one
bounded cache, `_order_memo`, keeps an `OrderTest` per sorted digit
multiset, which systems with equal digits at any scale and
`is_complementing` share (an `order_vanishes` call builds its own and
keeps nothing); it tests an order the first time any of them asks and
remembers the answer, but keeps of the scales only the last n whose
reach it had to compute.  A compatibility check asks the orders of its
differences, the tiling conditions the prime powers inside the reach and
their products; only the window search asks for every order at once, at
the reach of its scale, and the batch, rebuilt from the kept answers on
each call, returns each vanishing order with its primes, which sieve its
residues.

The test itself is one integer.  For d >= 1 let F(d) = d * sum_r C_r(d)^2,
with C_r(d) the sum of the coefficients whose exponent is r (mod d); by
the orthogonality of characters F(d) is the sum of |P(zeta)|^2 over all
d-th roots of unity zeta.  Grouping those roots by their exact order,
Moebius inversion gives the trace over the primitive b-th roots,

    T_b = sum_{q | rad b} mu(q) * F(b/q)
        = phi(b) * sum_i c_i^2 + 2 * sum_{i<j} c_i * c_j * c_b(e_j - e_i),

with c_b the Ramanujan sum.  T_b is a sum of the squares |P(zeta)|^2 over
the conjugates zeta of one primitive root, so it is 0 exactly when Phi_b
divides P.  The class sums F(d) are shared: each b/q divides b = reach(b)
and has phi(b/q) <= phi(b), so it is in reach too; `OrderTest` keeps F per
divisor, and its batch sums each divisor in reach once and gets every T_b
from one prime-by-prime Moebius pass.  A single question takes the shorter form: the first needs
2^omega(b) class sums of |D| terms each, the second |D|(|D|-1)/2 pair
terms of one gcd each, plus omega(b) steps per distinct gcd, so the class
form is used exactly when 2^omega(b) <= |D|.  No cyclotomic polynomial is
ever built or divided by.
"""

from __future__ import annotations

import functools
import math


def _class_squares(exponents, d: int) -> int:
    """F(d) = d * sum_r C_r^2, with C_r the number of exponents = r (mod d):
    the sum of |P(zeta)|^2 over the d-th roots of unity zeta."""
    counts: dict[int, int] = {}
    for e in exponents:
        counts[e % d] = counts.get(e % d, 0) + 1
    return d * sum(c * c for c in counts.values())


def _pair_trace(exponents: tuple[int, ...], b: int, primes: list[int]) -> int:
    """T_b from the pairs of exponents, `primes` the primes of b:
    phi(b) * |D| + 2 * sum_{i<j} c_b(e_j - e_i), with the Ramanujan sum
    c_b(h) = mu(m) * phi(b) / phi(m), m = b / gcd(h, b), taken once per gcd."""
    phi = b // math.prod(primes) * math.prod(p - 1 for p in primes)
    weights: dict[int, int] = {}  # gcd(e_j - e_i, b) -> number of pairs
    for i, e in enumerate(exponents):
        for f in exponents[i + 1 :]:
            h = math.gcd(f - e, b)
            weights[h] = weights.get(h, 0) + 1
    trace = phi * len(exponents)
    for h, w in weights.items():
        m, ramanujan = b // h, phi
        for p in primes:
            if m % p == 0:
                ramanujan = 0 if m % (p * p) == 0 else -ramanujan // (p - 1)
        trace += 2 * w * ramanujan
    return trace


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
    from .systems import _int_items  # systems imports this module

    _int_items((b,), "root order must be a positive integer", least=1)
    exps = _int_items(exponents, "exponents must consist of integers")
    return not exps or OrderTest(exps)(b)


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


# A construct round of the benchmark meets at most 13 distinct digit sets,
# and a memo of 1000 wide digits keeps about 20 MB once its differences are
# built: 16 memos hold a round's sets, where 64 could keep about 1.3 GB.
@functools.lru_cache(maxsize=16)
def _order_memo(exponents: tuple[int, ...]) -> OrderTest:
    """The process's one `OrderTest` of a sorted exponent multiset."""
    return OrderTest(exponents)


class OrderTest:
    """The vanishing orders of sum_e z^e, each decided on first ask and
    remembered once per digit set per process: systems and
    `is_complementing` draw it from `_order_memo`.  It keeps only facts of
    the digits: g grows by true reaches alone, never by the scales asked.
    One slot, `last`, keeps the last n that g did not cover, whose reach g
    has taken in, so that asking it again, as a second report at -N does,
    makes no second pass over the differences.

    A single question and `all_orders` alike refuse an order b with no
    exact test when reach(b) != b or phi(b) > max - min.  `all_orders(n)`
    factorises only the part of reach(n), and a single question only the
    part of b, that no earlier factorisation found: at most sqrt of it in
    trial divisions.  A single question then takes min(2^omega(b) * |D|,
    |D|^2 * omega(b)) steps, |D| the number of exponents.  The class sums
    F(d) are kept per divisor, so each is summed at most once.
    """

    __slots__ = ("g", "sizes", "span", "exps", "diffs", "last", "sums", "known", "found")

    def __init__(self, exponents):
        exps = self.exps = tuple(exponents)
        self.span = max(exps) - min(exps)
        self.g = self.sizes = math.lcm(*range(1, len(exps) + 1))
        self.diffs: tuple[int, ...] = ()  # the distinct differences, built when an n first needs them
        self.last = 1  # the last n that g did not cover
        self.sums = {1: len(exps) ** 2}  # d -> F(d); F(1) = |D|^2 needs no sum
        self.known: dict[int, bool] = {}  # every answer given so far
        self.found: list[int] = []  # the primes factorised so far, ascending

    def reach(self, n: int) -> int:
        """Mann's gcd(n, lcm(1..|D|) * lcm of the differences): gcd(n, g) when
        n divides g, the lcm of lcm(1..|D|) and the reaches found so far; else
        one gcd per distinct difference, with no lcm of them formed, as
        gcd(n, lcm d) = lcm gcd(n, d) prime by prime, and g takes the reach
        in.  So g divides Mann's lcm for all of D, whatever the n asked.  The
        last such n is kept, and gcd(n, g) then gives its reach, so asking
        it again makes no second pass."""
        if self.g % n and n != self.last:
            diffs = self.diffs = self.diffs or tuple({e - f for e in self.exps for f in self.exps if e > f})
            self.last = n
            self.g = math.lcm(self.g, math.gcd(n, self.sizes * math.lcm(*(math.gcd(n, d) for d in diffs))))
        return math.gcd(n, self.g)

    def __call__(self, b: int) -> bool:
        """Whether b > 1 and Phi_b divides the sum."""
        verdict = self.known.get(b)
        if verdict is None:
            primes = self._primes(b)
            if primes is None:
                verdict = False
            elif 2 ** len(primes) <= len(self.exps):  # the shorter form, see the module docstring
                verdict = self._class_trace(b, primes) == 0
            else:
                verdict = _pair_trace(self.exps, b, primes) == 0
            self.known[b] = verdict
        return verdict

    def _primes(self, b: int) -> list[int] | None:
        """The primes of b, ascending, when b > 1 is its own reach and phi(b) <= max - min."""
        if b < 2 or self.reach(b) != b:
            return None
        primes = self._primes_of(b)  # phi(b) = b * prod(1 - 1/p)
        return primes if b // math.prod(primes) * math.prod(p - 1 for p in primes) <= self.span else None

    def _primes_of(self, n: int) -> list[int]:
        """The primes of n, ascending, factorising only what the primes found before leave of n."""
        rest, found = n, math.prod(self.found)
        while (h := math.gcd(rest, found)) > 1:  # divide out the primes found before
            rest //= h
        if rest > 1:  # primes no earlier factorisation has found
            self.found = sorted([*self.found, *factorize(rest)])
        return [p for p in self.found if n % p == 0]

    def _class_sum(self, d: int) -> int:
        """F(d), summed on first use."""
        total = self.sums.get(d)
        if total is None:
            total = self.sums[d] = _class_squares(self.exps, d)
        return total

    def _class_trace(self, b: int, primes: list[int]) -> int:
        """T_b = sum_{q | rad b} mu(q) * F(b/q), from the kept class sums."""
        terms = [(b, 1)]
        for p in primes:
            terms += [(d // p, -sign) for d, sign in terms]
        return sum(sign * self._class_sum(d) for d, sign in terms)

    def all_orders(self, n: int) -> dict[int, list[int]]:
        """{b: primes of b} for every vanishing order b | n, over the
        divisors in reach(n): each not summed yet is summed, and T_b
        follows for all from one Moebius pass, at most omega(reach(n))
        steps per divisor.  The batch itself is not kept, so that a sweep
        of scales does not grow the memo."""
        factors = self._primes_of(reach := self.reach(n))
        span, inside = self.span, [(1, 1, [])]  # (b, phi(b), primes of b)
        for p in factors:
            grown = []
            for b, phi, primes in inside:
                phi *= p - 1
                while phi <= span and reach % (b * p) == 0:
                    b *= p
                    grown.append((b, phi, [*primes, p]))
                    phi *= p
            inside += grown
        trace = {b: self._class_sum(b) for b, _, _ in inside}
        for p in factors:  # b / p precedes b in inside: still untouched by p
            for b, _, _ in reversed(inside):
                if b % p == 0:
                    trace[b] -= trace[b // p]
        for b, _, _ in inside[1:]:  # an order asked before is known already, with the same answer
            self.known.setdefault(b, trace[b] == 0)
        return {b: primes for b, _, primes in inside[1:] if self.known[b]}
