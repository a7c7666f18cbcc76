"""Elementary integer arithmetic shared by the exact layers.

Factorisation is by trial division, which is ample for the moduli this
library meets: |N| and the orders dividing it.  Divisors are built from the
factorisation, so their cost follows their count, not sqrt(n).  Primality
is a deterministic Miller-Rabin test, exact below `PRIME_TEST_BOUND`.
"""

from __future__ import annotations

#: The first 13 primes, the Miller-Rabin bases of `is_prime`.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: psi_k (OEIS A014233): the least odd composite that is a strong probable
#: prime to each of the first k primes as bases.  Below psi_k the first k
#: bases decide primality.
_STRONG_PSEUDOPRIME_BOUNDS = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)

#: `is_prime` is exact below this bound, psi_13 (about 3.317e24).
PRIME_TEST_BOUND = _STRONG_PSEUDOPRIME_BOUNDS[-1]


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


def divisors_from(factors: dict[int, int]) -> list[int]:
    """All positive divisors of the integer with the given {p: exponent}
    factorization, ascending."""
    found = [1]
    for p, e in factors.items():
        found = [d * p**i for d in found for i in range(e + 1)]
    return sorted(found)


def is_prime(n: int) -> bool:
    """Whether n is prime, for n < PRIME_TEST_BOUND.

    Trial division by the first 13 primes, then a strong probable-prime
    test to as many of them as bases as the size of n needs: below psi_k
    the first k bases admit no composite.  Larger n raise ValueError, since
    the 13 bases no longer decide them.
    """
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"primality is decided below {PRIME_TEST_BOUND} only, got {n}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    bases = next(k for k, bound in enumerate(_STRONG_PSEUDOPRIME_BOUNDS, 1) if n < bound)
    for a in _SMALL_PRIMES[:bases]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
