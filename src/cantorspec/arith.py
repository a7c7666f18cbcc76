"""Elementary integer arithmetic shared by the exact layers.

Factorisation is by trial division, which is ample for the moduli this
library meets: |N| and the orders dividing it.  Divisors are built from the
factorisation, so their cost follows their count, not sqrt(n).
"""

from __future__ import annotations


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} of a positive integer, by trial division."""
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def radical(n: int) -> int:
    """Product of the distinct primes dividing n; radical(1) = 1."""
    out = 1
    for p in factorize(n):
        out *= p
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending, as products of its prime powers."""
    found = [1]
    for p, e in factorize(n).items():
        found = [d * p**i for d in found for i in range(e + 1)]
    return sorted(found)
