import pytest

from cantorspec.arith import PRIME_TEST_BOUND, factorize, is_prime
from oracles import divisors


def reference_divisors(n):
    """The former divisor list: trial division up to sqrt(n)."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def test_divisors_match_trial_division():
    for n in range(1, 3000):
        assert divisors(n) == reference_divisors(n), n


def test_divisors_of_a_large_prime_power_come_from_its_factorisation():
    # trial division up to sqrt(4^60) = 2^60 would never finish
    assert factorize(4**60) == {2: 120}
    assert divisors(4**60) == [2**i for i in range(121)]
    n = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23
    found = divisors(n)
    assert len(found) == 2**9 and found == sorted(found) and found[-1] == n
    assert all(n % d == 0 for d in found)


def test_is_prime_matches_trial_division_below_10_5():
    sieve = bytearray([1]) * 100_000
    sieve[0] = sieve[1] = 0
    for p in range(2, 317):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, 100_000, p)))
    assert [n for n in range(100_000) if is_prime(n)] == [n for n in range(100_000) if sieve[n]]


def test_is_prime_rejects_the_strong_pseudoprimes_of_fewer_bases():
    # psi_k passes the first k bases, so each needs the next one
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert is_prime(2**31 - 1) and is_prime(2**61 - 1)
    assert is_prime(2**64 - 59)  # the largest prime below 2^64
    with pytest.raises(ValueError):
        is_prime(PRIME_TEST_BOUND)
