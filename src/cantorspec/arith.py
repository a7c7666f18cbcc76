"""Elementary integer arithmetic shared by the exact layers.

Factorisation is by trial division, which is ample for the moduli this
library factorises in full: |D| and the tiling moduli built from it, and
the scales of `pair_power`.  The vanishing orders trial-divide |N| only as
far as the digits reach (see `cyclotomic`).
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
