"""Reference oracles for the tests: the former radical-basis vanishing
test, exact integer-polynomial algebra, the float digit symbol, the former
batch of a system's vanishing orders, the zero residues of a system, the
two former factorisers, the radical and divisor list of an integer, the
former prime-power sets of a tiling, two former completeness sums (one
with its sixth-order closed tail, and one that closes every slice point
with the tail series), and the closed-form spectrality of a measure with
at most three digits.

No verdict path of the library builds a polynomial: every vanishing
question goes through `cantorspec.cyclotomic.order_vanishes`.  The algebra
kept here lets the tests state the same questions the textbook way, as
divisibility by an explicitly built cyclotomic polynomial, and compare.
Polynomials are dense coefficient tuples, constant term first, with no
trailing zero on nonzero polynomials; () is the zero polynomial.

Cyclotomic polynomials are built prime by prime from Phi_1 = z - 1 and

    Phi_np(z) = Phi_n(z^p) / Phi_n(z)   for a prime p not dividing n,

with Phi_2n(z) = Phi_n(-z) for odd n > 1; Phi_n for any n is then
Phi_rad(z^(n/rad)), with no divisor recursion over z^n - 1.

This is a plain helper module: its name does not match test_*.py, so
pytest imports it from the tests and never collects it.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from cantorspec.cyclotomic import order_vanishes
from cantorspec.kernel import TAIL_TERMS, _difference_weights, _split, _symbol_sq, _tail_series
from cantorspec.systems import ConsistencyError, PreconditionError


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


def radical_order_divides(terms, b: int, primes: list[int]) -> bool:
    """Whether Phi_b divides sum c*z^e over the (e, c) terms; e may be any
    integer, and `primes` are the primes of b, ascending.

    Exponents are reduced mod b and split into the class polynomials mod
    k = b / rad(b), each of which must vanish at a primitive rad-th root of
    unity: with b = k * rad(b), zeta_b^k is a primitive rad-th root and
    1, zeta_b, ..., zeta_b^(k-1) are a basis of Q(zeta_b) over Q(zeta_rad).
    """
    rad = math.prod(primes)
    k = b // rad
    classes: dict[int, dict[int, int]] = {}
    for e, c in terms:
        e %= b
        cls = classes.setdefault(e % k, {})
        cls[e // k] = cls.get(e // k, 0) + c
    return all(_squarefree_vanishes(cls, rad, primes) for cls in classes.values())


def trial_factorize(n: int) -> dict[int, int]:
    """The former full factoriser: {p: exponent} of a positive integer by
    trial division up to its square root."""
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


def reach_factors(n: int, span: int) -> list[tuple[int, int]]:
    """The former reach-bounded factoriser: (p, v_p(n)) for the primes
    p <= span + 1 of n, ascending, the primes an order b with
    phi(b) <= span can have; the rest of n is never factorised."""
    factors, rest, p = [], n, 2
    while p <= span + 1 and p * p <= rest:
        k = 0
        while rest % p == 0:
            rest //= p
            k += 1
        if k:
            factors.append((p, k))
        p += 1
    if 1 < rest <= span + 1:  # a prime: every smaller one is divided out
        factors.append((rest, 1))
    return factors


def radical(n: int) -> int:
    """Product of the distinct primes dividing n; radical(1) = 1."""
    return math.prod(trial_factorize(n))


def divisors_from(factors: dict[int, int]) -> list[int]:
    """All positive divisors of the integer with the given {p: exponent}
    factorization, ascending."""
    found = [1]
    for p, e in factors.items():
        found = [d * p**i for d in found for i in range(e + 1)]
    return sorted(found)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending, as products of its prime powers."""
    return divisors_from(trial_factorize(n))


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
        used here is monic, so this never triggers in the oracles.
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
    p = max(trial_factorize(n))
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
    return radical_order_divides(enumerate(p.coeffs), m, sorted(trial_factorize(m)))


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


def symbol_eval(digits, xi) -> complex:
    """The float symbol m_D(xi) = (1/|D|) * sum_d e^(-2*pi*i*d*xi)."""
    digs = tuple(digits)
    return sum(cmath.exp(-2j * math.pi * d * xi) for d in digs) / len(digs)


def orders_in_reach(n: int, span: int) -> list[tuple[int, list[int]]]:
    """(b, primes of b) for the divisors b > 1 of n with phi(b) <= span,
    ascending; n is trial-divided by the primes p <= span + 1 only, since
    every p of such a b has p - 1 <= phi(b)."""
    orders = [(1, 1, [])]  # (b, phi(b), primes of b)
    for p, k in reach_factors(n, span):
        grown = []
        for b, phi, primes in orders:
            phi *= p - 1
            for _ in range(k):
                if phi > span:
                    break
                b *= p
                grown.append((b, phi, [*primes, p]))
                phi *= p
        orders += grown
    return sorted((b, primes) for b, _, primes in orders[1:])


def vanishing_orders(exponents, n: int) -> frozenset[int]:
    """The former batch behind `ScaleDigitSystem.vanishing_orders`, kept as
    the reference for the orders decided on demand: the divisors b > 1 of
    n with Phi_b dividing sum_e z^e, every divisor in the exponents' reach
    phi(b) <= max - min decided by the exact test, in one pass."""
    exps = tuple(exponents)
    span = max(exps) - min(exps) if exps else n  # the empty sum vanishes everywhere
    terms = [(e, 1) for e in exps]
    return frozenset(b for b, primes in orders_in_reach(n, span) if radical_order_divides(terms, b, primes))


def zero_residues(system) -> frozenset[int]:
    """Residues r in [1, |N|) at which m_{D/N} vanishes, expanded from the
    library's `system.vanishing_orders`: r is a zero exactly when its order
    |N| / gcd(r, |N|) is a vanishing order."""
    m = system.modulus
    orders = system.vanishing_orders
    return frozenset(r for r in range(1, m) if m // math.gcd(r, m) in orders)


def prime_power_sets(digits, modulus: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The former public prime-power sets of the tiling construction: per
    prime p of |D| = p^alpha * q^beta, the powers p^k dividing the modulus
    with Phi_{p^k} dividing the digit polynomial, checked to number alpha
    (resp. beta).  Three primes in |D| raise PreconditionError, a wrong
    count ConsistencyError."""
    digs = tuple(digits)
    size_factors = trial_factorize(len(digs))
    if len(size_factors) > 2:
        raise PreconditionError(
            f"|D| = {len(digs)} has {len(size_factors)} distinct prime factors; "
            "the construction covers at most two"
        )
    modulus_factors = trial_factorize(modulus)
    groups = []
    for p, alpha in sorted(size_factors.items()):
        cap = modulus_factors.get(p, 0)
        powers = tuple(p**k for k in range(1, cap + 1) if order_vanishes(digs, p**k))
        if len(powers) != alpha:
            raise ConsistencyError(
                f"expected {alpha} dividing powers of {p} below {p}**{cap}, found {powers}"
            )
        groups.append(powers)
    groups += [()] * (2 - len(groups))
    return groups[0], groups[1]


def small_digit_spectral(scale: int, digits) -> bool:
    """Whether the measure of (N, D) with |D| <= 3 is spectral, in closed
    form, after D is reduced so that 0 is in D and gcd(D) = 1.

    - |D| = 1: the point mass, spectral.
    - |D| = 2: D = {0, 1} and D(z) = 1 + z, whose only roots of unity have
      order 2; spectral exactly when N is even, with S = {0, N/2}.  At
      |N| = 2 that is Lebesgue measure on a unit interval.
    - |D| = 3: D = {0, a, b} with gcd(a, b) = 1.  A root zeta of modulus 1
      makes 1, zeta^a and zeta^b an equilateral triangle, so zeta^a and
      zeta^b have order 3 and the order of zeta divides 3*gcd(a, b) = 3;
      such a root exists exactly when D is a complete residue system mod 3.
      Spectral exactly when it is and 3 divides N, with S = {0, N/3, 2N/3}.
    """
    low = min(digits)
    factor = math.gcd(*(d - low for d in digits)) or 1
    reduced = sorted((d - low) // factor for d in digits)
    if len(reduced) == 1:
        return True
    if len(reduced) == 2:
        return scale % 2 == 0
    if len(reduced) == 3:
        return sorted(d % 3 for d in reduced) == [0, 1, 2] and scale % 3 == 0
    raise ValueError(f"the closed form covers at most three digits, got {len(reduced)}")


def closed_tail_q_eval(system, candidate, xi, policy) -> tuple[float, float]:
    """The former `q_eval_with_bound`, kept as the reference for the tail
    series: the same prefix tree and factors, each phase reduced mod its
    period, until c6*t^6 <= 2^-53 and one closed form for the rest, whose
    log is c2*t^2 + c4*t^4 within c6*t^6, with bound p2 * expm1(c6*t^6) on
    a point's squared modulus p2.  With w_k = 4*c_k/|D|^2,
    a2 = pi^2 sum_k w_k k^2 and a4 = pi^4 sum_k w_k k^4 / 3,

        c2 = -a2/(N^2-1),  c4 = (a4 - a2^2/2)/(N^4-1),  c6 = K/(N^6-1),
        K = 2 pi^6 sum_k w_k k^6/45 + a2 a4 + 2 a2^3/3,

    from sin^2 x = x^2 - x^4/3 + R with 0 <= R <= 2x^6/45 and
    log(1 - u) = -u - u^2/2 - R' with 0 <= R' <= 2u^3/3 for u <= 1/2."""
    whole, frac = _split(xi)
    base = system.modulus
    weights = _difference_weights(system)
    cutoff = (policy.product_epsilon / 4.0) ** 2
    a2 = math.pi**2 * sum(w * k**2 for k, w in weights)
    a4 = math.pi**4 * sum(w * k**4 for k, w in weights) / 3.0
    k6 = 2.0 * math.pi**6 * sum(w * k**6 for k, w in weights) / 45.0 + a2 * a4 + 2.0 * a2**3 / 3.0
    n2 = base * base
    c2 = -a2 * (1 / (n2 - 1))
    c4 = (a4 - a2 * a2 / 2.0) * (1 / (n2 * n2 - 1))
    c6 = k6 * (1 / (n2**3 - 1))
    switch = (2.0**-53 / c6) ** (1.0 / 6.0) if c6 > 0.0 else math.inf
    level = {whole: 1.0}
    power = 1
    step = 1
    for _ in range(policy.depth):
        power *= base
        deeper = {}
        for node, p2 in level.items():
            for s in candidate.elements:
                child = node + s * step
                if child not in deeper:
                    deeper[child] = p2 if p2 < cutoff else p2 * _symbol_sq(weights, child, frac, power)
        level = deeper
        step *= system.scale
    total = 0.0
    err = 0.0
    for node, p2 in level.items():
        period = power
        while p2 >= cutoff and (period <= abs(node) or abs(node + frac) / period > switch):
            period *= base
            p2 *= _symbol_sq(weights, node, frac, period)
        t = abs(node + frac) / period
        if p2 < cutoff:
            err += p2
        else:
            t2 = t * t
            p2 *= math.exp(t2 * (c2 + c4 * t2))
            err += p2 * math.expm1(c6 * t2 * t2 * t2)
        total += p2
    return total, err


def leaf_tail_q_eval(system, candidate, xi, policy) -> tuple[float, float]:
    """The former `q_eval_with_bound`, kept as the reference for the slice
    closure: the prefix tree runs to the full depth, and every slice point
    closes its own tail with the series `cantorspec.kernel._tail_series`, of
    bound p2 * remainder * s^M on its squared modulus p2 before the series,
    after factors while its t is above the switch."""
    whole, frac = _split(xi)
    base = system.modulus
    weights = _difference_weights(system)
    cutoff = (policy.product_epsilon / 4.0) ** 2
    scale, coeffs, remainder, switch = _tail_series(system, weights)
    level = {whole: 1.0}
    power = 1
    step = 1
    for _ in range(policy.depth):
        power *= base
        deeper = {}
        for node, p2 in level.items():
            for s in candidate.elements:
                child = node + s * step
                if child not in deeper:
                    deeper[child] = p2 if p2 < cutoff else p2 * _symbol_sq(weights, child, frac, power)
        level = deeper
        step *= system.scale
    total = 0.0
    err = 0.0
    for node, p2 in level.items():
        period = power
        while p2 >= cutoff and (period <= abs(node) or abs(node + frac) / period > switch):
            period *= base
            p2 *= _symbol_sq(weights, node, frac, period)
        t = abs(node + frac) / period
        if p2 < cutoff:
            err += p2
        else:
            s = scale * t
            s *= s
            err += p2 * remainder * s**TAIL_TERMS
            series = 0.0
            for c in reversed(coeffs):
                series = series * s + c
            p2 *= series
        total += p2
    return total, err
