from cantorspec.arith import factorize
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

