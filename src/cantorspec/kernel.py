"""Numeric diagnostics for a scale/digit system.

This module houses the analytic objects, all in floats: the Fourier
transform of the self-similar measure as a truncated infinite product with
a guaranteed tail bound, and the completeness sum Q over a slice of the
candidate spectrum.  Nothing here carries a verdict; the exact decisions,
the slices and the attractor's hull live in `compat`, `decide` and
`tiling`, and these functions corroborate them numerically.

Q needs only |mu_hat|^2, so its factors are real:
|m_D(eta)|^2 = 1 - (4/|D|^2) * sum_k c_k sin^2(pi*k*eta), with c_k the
number of digit pairs at difference k > 0 (`_symbol_sq`, one sine per
distinct difference).  The digits are integers, so m_D has period 1 and
factor j of mu_hat(xi + lambda) depends on lambda only mod |N|^j: the
slice is built digit by digit and each prefix's partial product is shared
by every point that extends it.  Phases never carry an integer part into
a float: xi is split exactly into integer and fraction, k*frac exactly
into an integer and a rest in [0, 1] (`_phases`), and the integer part of
each phase is reduced mod |N|^j in integers, in every factor.  Once |N|^j
exceeds a point's integer part and t = |x|/|N|^j is within the switch,
the rest of the infinite product is one polynomial.

The tail series.  Past an argument t the factors left multiply to
|mu_hat(t)|^2 = E cos(2*pi*t*Z), Z = X - Y for X, Y independent of law mu,
|Z| <= rho = spread/(|N|-1).  In s = (scale*t)^2, scale = 2*pi*rho, that
is sum_{n<M} (-1)^n m_n s^n/(2n)! + R, m_n = E[(Z/rho)^(2n)], M =
TAIL_TERMS, and |R| <= m_M s^M/(2M)!, the Lagrange remainder of cos, then
an expectation (`_tail_series`); the switch, where that reaches 2^-70, is
t = 0.39 (|N|-1)/spread or more.  The moments come from Z = (delta + Z')/N in law,
delta = d - d': E[Z^n](|N|^n - 1) = sum_{i<n} C(n, i) E[delta^(n-i)]
E[Z^i], and odd moments vanish.  Scaled by (rho*|N|)^-n, every moment and
power of delta lies in [0, 1] and every term is nonnegative, so no digit
spread overflows them.

The slice closure.  The points of a prefix n = floor(xi) + lambda' of
depth - k digits with product p2 sum to p2 Q_k(y), y = (n + frac(xi)) /
N^(depth-k), and Q_k(y) = sum_s M_s(y) Q_(k-1)((y+s)/N), M_s(y) =
|m_D((y+s)/N)|^2, by the transfer recursion.  In v = scale*y, P_0 is the
tail series on [-scale*switch, scale*switch], and a lift makes P_k =
sum_s M_s(v) P_(k-1)((v + scale*s)/N) to 2M terms (M_s by its exact Taylor
series, the shift exactly) on the v of P_0's domain whose preimages
(v + scale*s)/N lie in P_(k-1)'s: an interval, which must hold 0, for k
up to 4 (`_SLICE_POLYS`).  The error goes along pointwise (P_(k-1)'s at
the preimages times M_s <= M_s(0) + L|v|, plus what truncating drops) to
remainder * v^(2M) + offset + slope * |v|, offset 0 where M_s(0) = 0 for
every s but 0.  Once per pair (N, D, S), keyed by the pair's integers,
`_slice_closure` takes the pair's weights and tail series, finds the
domains and then builds each M_s once: 2|S| series products
whatever the size of s.  It holds only tuples, so no caller can change
it, and gives P_0 alone for D = {0}, where S has two elements congruent
mod |N| (points may coincide), or where P_1's domain is empty or past the
float range.

The level loop.  `_completeness_sum` adds one slice digit per level, then
digit 0 (a point itself) past the slice, one factor per open prefix each.
Before a level with k digits left, P_k, where it exists, closes each open
prefix n of j factors with |n| < |N|^j and v = (n + frac(xi)) scale/N^j in
its domain, as p2 P_k(v) with bound p2 times P_k's at v; a prefix whose p2
is below the early-stop cutoff (epsilon/4)^2 stops there as |S|^k points
of p2, with bound p2 each (P_k for k >= 1 needs S distinct mod |N|, so no
two of them coincide).  Past the slice no point moves: one stops as it
meets its next factor, and P_0 is tried only once |N|^j passes the
nearest.  No polynomial's rounding, like no factor's, is in the bound.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from collections import Counter
from fractions import Fraction
from itertools import accumulate

from .systems import (
    DEFAULT_POLICY,
    PreconditionError,
    ScaleDigitSystem,
    SpectrumCandidate,
    TruncationPolicy,
    _Record,
    _check_slice_budget,
)

_TWO_PI = 2.0 * math.pi
#: Terms M of the tail series, and its remainder at the switch.
TAIL_TERMS = 14
TAIL_SWITCH_REMAINDER = 2.0**-70
#: Digit spreads from here on (about 3.7e50) are refused as past the float
#: range, where the former float tail refused them; no computation needs it.
SPREAD_LIMIT = 2**168
#: Terms 2M of each P_k, and 1/n! for n <= 2M: their Taylor coefficients
#: and the tail series' cos.
_ORDER = 2 * TAIL_TERMS
_INV_FACTORIALS = tuple(1.0 / math.factorial(n) for n in range(_ORDER + 1))
#: Polynomials P_0..P_4 of the slice closure: each lift costs about 0.1 ms
#: per element of S once per pair and divides the prefixes per point by |S|.
_SLICE_POLYS = 5


class TruncatedProduct(_Record):
    """A finite product approximation together with its guaranteed error."""

    __match_args__ = ("value", "error_bound", "factors")

    def __init__(self, value: complex, error_bound: float, factors: int):
        self.__dict__.update(value=value, error_bound=error_bound, factors=factors)


def _split(xi) -> tuple[int, float]:
    """xi as an exact integer part and the float fraction left over; a
    Fraction loses nothing but the rounding of that fraction."""
    if isinstance(xi, Fraction):
        whole = math.trunc(xi)
        return whole, float(xi - whole)
    x = float(xi)
    if not math.isfinite(x):
        raise PreconditionError(f"xi must be finite, got {xi!r}")
    frac, whole = math.modf(x)
    return int(whole), frac


def _lipschitz(system) -> float:
    """2*pi*sum|d|/|D|, so |m_D(eta) - 1| <= lipschitz * |eta|; `mu_hat`'s
    tail bound is built from it.  Digits past the float range are refused."""
    try:
        return _TWO_PI * sum(abs(d) for d in system.digits) / system.size
    except OverflowError:
        raise PreconditionError(
            "the digits' sum of |d| is past the float range of the Fourier product's tail bound"
        ) from None


def _truncation(lipschitz: float, base: int, x: float, target: float) -> tuple[int, float]:
    """The factor count J for the argument x and the tail bound e^t - 1.

    J is the least count, floored at what |x| = 1 would need, for which
    t = lipschitz*|x| / (|N|^J * (|N|-1)) stays below target = log(1 + epsilon).
    Past the float range (|N|, lipschitz*|x| / ((|N|-1)*target) or |N|^J
    too large for a float) no bound can be formed and x is refused.
    """
    size = abs(x)
    reach = lipschitz * max(size, 1.0)
    j_stop = 1
    try:
        ratio = reach / ((base - 1) * target)
        if ratio > base:
            j_stop = max(1, math.ceil(math.log(ratio) / math.log(base)))
        while reach / (base**j_stop * (base - 1)) > target:
            j_stop += 1
        return j_stop, math.expm1(lipschitz * size / (base**j_stop * (base - 1)))
    except OverflowError:
        raise PreconditionError(
            f"|xi| = {size!r} with |N| = {base} is past the float range of the Fourier product's tail bound"
        ) from None


def _difference_weights(system) -> tuple[tuple[int, float], ...]:
    """Pairs (k, 4*c_k/|D|^2) over the positive differences k of the
    digits, c_k = #{(d, d') in D^2 : d - d' = k}, so that
    |m_D(eta)|^2 = 1 - sum_k w_k * sin^2(pi*k*eta)."""
    counts = Counter(b - a for i, a in enumerate(system.digits) for b in system.digits[i + 1 :])
    scale = 4.0 / (system.size * system.size)
    return tuple((k, scale * c) for k, c in sorted(counts.items()))


def _phases(weights, frac: float):
    """(k, w, q, r) per digit difference, k*frac = q + r exactly for an
    integer q and a float r in [0, 1]: frac = num/den in integers, and
    (q, r*den) = divmod(k*num, den)."""
    num, den = frac.as_integer_ratio()
    return [(k, w, q, r / den) for k, w in weights for q, r in [divmod(k * num, den)]]


def _symbol_sq(weights, whole: int, frac: float, power: int) -> float:
    """|m_D((whole + frac) / power)|^2 for a positive integer power.

    Uses |m_D(eta)|^2 = 1 - sum_k w_k sin^2(pi*k*eta) over the digit
    differences (`_difference_weights`).  sin^2(pi*x) has
    period 1, so the integer part k*whole + q of each phase (`_phases`) is
    reduced mod power in integers before it and the rest r meet a float.
    Clamped at 0 against rounding.
    """
    turn = math.pi / power
    acc = 1.0
    for k, w, q, r in _phases(weights, frac):
        s = math.sin(turn * ((k * whole + q) % power + r))
        acc -= w * s * s
    return acc if acc > 0.0 else 0.0


def mu_hat(system: ScaleDigitSystem, xi, policy: TruncationPolicy = DEFAULT_POLICY) -> TruncatedProduct:
    """Fourier transform of the self-similar measure at xi.

    Evaluates prod_{j=1..J} m_D(N^-j * xi) with J chosen so the neglected
    tail moves the value by at most policy.product_epsilon.  The tail
    control uses |m_D(eta) - 1| <= 2*pi*(sum|d|/|D|)*|eta| and the geometric
    decay of N^-j; the sum t of those bounds past J gives
    |true - finite product| <= e^t - 1, which the chosen J pushes below
    epsilon.  J is floored at what an argument of magnitude 1 would need,
    so sub-unit arguments come back tighter than epsilon by their own
    magnitude.  If the running product drops below epsilon/4 in magnitude
    the loop stops early: the remaining factors have modulus at most 1, so
    the absolute error is below epsilon either way.

    The bound also holds for large |xi| and wide digits: xi is split exactly
    into an integer k and a fraction f, d*f = q + r exactly with q an
    integer and r in [0, 1] (as in `_phases`), and digit d's phase in factor
    j is taken as (a + r) / |N|^j with the sign of N^j, where a is d*k + q
    reduced mod |N|^j into [-|N|^j/2, |N|^j/2], so no float ever carries an
    integer part that the symbol's 1-periodicity discards.
    """
    x = float(xi)
    whole, frac = _split(x)
    lipschitz = _lipschitz(system)
    if x == 0.0 or lipschitz == 0.0:  # lipschitz 0: D = {0}, the point mass
        return TruncatedProduct(complex(1.0), 0.0, 0)
    base = system.modulus
    j_stop, tail_bound = _truncation(lipschitz, base, x, math.log1p(policy.product_epsilon))
    cutoff = policy.product_epsilon / 4.0
    num, den = frac.as_integer_ratio()
    splits = [(d, q, r / den) for d in system.digits for q, r in [divmod(d * num, den)]]
    value = complex(1.0)
    power = 1
    turn = -_TWO_PI
    for j in range(1, j_stop + 1):
        power *= base
        if system.scale < 0:
            turn = -turn
        acc = 0j
        for d, q, r in splits:
            a = (d * whole + q) % power
            if 2 * a > power:  # centre the integer part: a phase near 1 would lose digits
                a -= power
            acc += cmath.exp(complex(0.0, turn * ((a + r) / power)))
        value *= acc / system.size
        if abs(value) < cutoff:
            return TruncatedProduct(value, abs(value) * (2.0 + tail_bound), j)
    return TruncatedProduct(value, tail_bound, j_stop)


def q_eval_with_bound(
    system: ScaleDigitSystem,
    candidate: SpectrumCandidate,
    xi,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> tuple[float, float]:
    """Completeness sum over the depth-slice, with its error bound.

    Q_depth(xi) = sum over the slice of |mu_hat(xi + lambda)|^2.  For a
    compatible pair the exact Q never exceeds 1 and the slices increase to
    it; the returned bound accounts for the tail of each infinite product.

    The slice is summed as the module docstring sets out: a map from each
    open prefix to its squared partial product, one factor per level, and
    before each level the polynomial for the digits left closes what it
    can; past the slice that is the tail series.  The bound sums each
    closed prefix's polynomial bound times its product, or that product
    where it stopped early: it is the whole infinite product that is summed.
    Only the digits' differences enter, so a translate of D gives the same
    answer.  Refused are a non-finite xi, a slice past the budget, a digit
    spread from `SPREAD_LIMIT` on and a point whose own sum passes the float
    range.  Each pair's slice closure is built once, keyed by the pair's integers.
    """
    _check_slice_budget(candidate.size, policy.depth)
    closure = _slice_closure(system, candidate)
    whole, frac = _split(xi)
    try:
        return _completeness_sum(system, candidate, whole, frac, policy, closure)
    except OverflowError:
        raise PreconditionError(
            f"the Q kernel at xi = {xi!r} with |N|^depth = {system.modulus}^{policy.depth} "
            "passes the float range"
        ) from None


def _tail_series(system, weights):
    """(scale, coeffs, remainder, switch) of the tail series (module
    docstring), coeffs being its M coefficients in s."""
    spread = system.digits[-1] - system.digits[0]
    if not spread:  # D = {0}: the transform is 1 everywhere
        return 0.0, (1.0,) + (0.0,) * (TAIL_TERMS - 1), 0.0, math.inf
    base = system.modulus
    shrink = (1 / base) ** 2  # |N|^-2
    # E[(delta/(rho*|N|))^(2j)] for j <= M, from (k/(rho*|N|))^2 and w_k/2
    ratios = [((k * (base - 1)) / (spread * base)) ** 2 for k, _ in weights]
    powers = [w / 2.0 for _, w in weights]
    delta = [1.0]
    for _ in range(TAIL_TERMS):
        powers = [p * r for p, r in zip(powers, ratios)]
        delta.append(sum(powers))
    moments = [1.0]  # E[(Z/rho)^(2n)]
    for n in range(1, TAIL_TERMS + 1):
        acc = sum(math.comb(2 * n, 2 * i) * delta[n - i] * shrink**i * moments[i] for i in range(n))
        moments.append(acc / (1.0 - shrink**n))
    coeffs = tuple((-1) ** n * moments[n] * _INV_FACTORIALS[2 * n] for n in range(TAIL_TERMS))
    remainder = moments[TAIL_TERMS] * _INV_FACTORIALS[_ORDER]
    scale = _TWO_PI * (spread / (base - 1))
    switch = math.sqrt((TAIL_SWITCH_REMAINDER / remainder) ** (1.0 / TAIL_TERMS)) / scale
    return scale, coeffs, remainder, switch


def _slice_closure(system, candidate):
    """(weights, scale, polys), all tuples: the pair's difference weights
    and tail scale for `_completeness_sum`, and polys = (P_0, ..., P_k) for
    a k <= 4, P_k = (coeffs, lo, hi, remainder, offset, slope), from
    `_closure_memo` of the pair's integers."""
    return _closure_memo(system.scale, system.digits, candidate.elements)


@functools.lru_cache(maxsize=64)  # ints, not records: a warm key neither hashes nor compares a record
def _closure_memo(scale, digits, elements):
    """`_slice_closure` of N = scale, D = digits and S = elements, its records
    rebuilt unchecked from the values of validated ones.  M_s(0) is
    `_symbol_sq`, 0 at the exact zeros where the points' products are, and
    M_s^(n)(0) = sum_k w_k/2 rate_k^n cos^(n)(phase_k)."""
    system, candidate = ScaleDigitSystem._of(scale, digits), SpectrumCandidate._of(elements)
    spread = system.digits[-1] - system.digits[0]
    if spread >= SPREAD_LIMIT:
        raise PreconditionError(
            f"the Q kernel refuses the digit spread {spread}: from "
            f"SPREAD_LIMIT = 2^{SPREAD_LIMIT.bit_length() - 1} on it passes the float range"
        )
    weights = _difference_weights(system)
    scale, coeffs, remainder, switch = _tail_series(system, weights)
    reach = scale * switch if remainder else math.inf  # D = {0}: P_0 = 1 for every v; 0 * inf is nan
    polys = [(tuple(x for c in coeffs for x in (c, 0.0)), -reach, reach, remainder, 0.0, 0.0)]
    closure = weights, scale, tuple(polys)
    base = system.modulus
    if not remainder or len({s % base for s in candidate.elements}) < candidate.size:
        return closure  # D = {0}, or slice points that may coincide
    domains = [(-reach, reach)]
    try:
        centres = [scale * s for s in candidate.elements]
        while len(domains) < _SLICE_POLYS:
            lo, hi = sorted(system.scale * edge for edge in domains[-1])
            lo, hi = max(-reach, lo - min(centres)), min(reach, hi - max(centres))
            if not lo < 0.0 < hi:
                break
            domains.append((lo, hi))
    except OverflowError:
        return closure  # s or N past the float range: the sum refuses its points
    if len(domains) == 1:
        return closure
    rates = [k * (base - 1) / (spread * base) for k, _ in weights]
    decays = [[w / 2.0 * rate**n * f for n, f in enumerate(_INV_FACTORIALS[:_ORDER])] for (_, w), rate in zip(weights, rates)]
    series = []
    for s in candidate.elements:
        m = [_symbol_sq(weights, s, 0.0, base)] + [0.0] * (_ORDER - 1)
        for (k, _), decay in zip(weights, decays):
            phase = _TWO_PI * ((k * s) % base) / base
            c, sn = math.cos(phase), math.sin(phase)
            m[1:] = [f + a * t for f, a, t in zip(m[1:], (-sn, -c, sn, c) * TAIL_TERMS, decay[1:])]
        series.append(m)
    # L = max |M_s'|, and M_s's remainder over v^(2M)
    steps = sum(decay[1] for decay in decays), sum(decay[-1] * rate for decay, rate in zip(decays, rates)) / _ORDER
    for count, domain in enumerate(domains[1:]):
        polys.append(_lift(polys[-1], domain, system.scale, centres, series, steps, candidate.size**count))
    return weights, scale, tuple(polys)


def _lift(level, domain, scale, centres, series, steps, points):
    """P_k on `domain` from P_(k-1) = `level`.  With G(v) P_(k-1)'s error
    bound at (v + c_s)/N, convex in v, M_s G <= M_s(0) G(0) + (M_s(0) sigma
    + L max G)|v|, sigma G's steeper chord from 0 to an end; the product's
    dropped degrees are below |v|^(2M) sum_(i+j >= 2M) |m_i p_j|
    reach^(i+j-2M), and M_s's remainder multiplies |P_(k-1)| <= `points` + max G."""
    coeffs, _, _, remainder, offset, slope = level
    (lo, hi), (lipschitz, tail) = domain, steps
    reach = max(-lo, hi)
    shrink = 1.0 / scale
    moments = [c * math.factorial(n) for n, c in enumerate(coeffs)]  # P_(k-1)'s derivatives at 0
    powers = [shrink**j * f for j, f in enumerate(_INV_FACTORIALS[:_ORDER])]
    spans = [reach**n for n in range(_ORDER)]
    lifted = [0.0] * _ORDER
    far = near = lever = 0.0
    for centre, m in zip(centres, series):
        shift = centre * shrink
        shifts = [shift**n * f for n, f in enumerate(_INV_FACTORIALS)] if shift else [1.0]
        shifted = [sum(map(operator.mul, moments[j:], shifts)) * g for j, g in enumerate(powers)]
        rev = shifted[::-1]  # the product, truncated to 2M terms
        lifted = [a + sum(map(operator.mul, m, rev[_ORDER - 1 - n :])) for n, a in enumerate(lifted)]
        dropped = accumulate(map(operator.mul, map(abs, rev), spans[::-1]))  # suffix sums of |p_j| reach^j
        far += sum(map(operator.mul, map(abs, m[1:]), map(operator.mul, spans[1:], dropped))) / (reach * spans[-1])
        ends = (shift, (lo + centre) * shrink, (hi + centre) * shrink)  # the preimages of 0, lo and hi
        g0, glo, ghi = (remainder * x**_ORDER + offset + slope * abs(x) for x in ends)
        near += m[0] * g0
        lever += m[0] * max((ghi - g0) / hi, (glo - g0) / -lo) + lipschitz * max(glo, ghi)
        far += tail * (points + max(glo, ghi))
    return tuple(lifted), lo, hi, far, near, lever


def _close_prefixes(level, poly, frac, vstep, period, cutoff, count):
    """(the prefixes left open, the closed ones' sum, its bound), v = (node +
    frac) * vstep: a prefix whose p2 is below the cutoff stops there, as
    `count` points at p2 each, and one closes if |node| < period and lo <= v
    <= hi."""
    coeffs, lo, hi, remainder, offset, slope = poly
    # 2M coefficients: the Horner sum is unrolled below; a loop over them
    # made the benchmark's qgrid items about 18 % slower at the median
    (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13,
     a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24, a25, a26, a27) = coeffs
    rest = {}
    total = mass = lever = near = stopped = 0.0
    for node, p2 in level.items():
        if p2 < cutoff:
            stopped += p2
            continue
        if -period < node < period:
            v = (node + frac) * vstep
            if lo <= v <= hi:
                total += p2 * (a0 + v * (a1 + v * (a2 + v * (a3 + v * (a4 + v * (a5 + v * (a6 + v * (
                    a7 + v * (a8 + v * (a9 + v * (a10 + v * (a11 + v * (a12 + v * (a13 + v * (
                    a14 + v * (a15 + v * (a16 + v * (a17 + v * (a18 + v * (a19 + v * (a20 + v * (
                    a21 + v * (a22 + v * (a23 + v * (a24 + v * (a25 + v * (a26 + v * a27)))))))))))))))))))))))))))
                mass += p2
                lever += p2 * abs(v)
                near += p2 * (v * v) ** TAIL_TERMS
                continue
        rest[node] = p2
    stopped *= count
    return rest, total + stopped, remainder * near + offset * mass + slope * lever + stopped


def _completeness_sum(system, candidate, whole: int, frac: float, policy, closure) -> tuple[float, float]:
    """`q_eval_with_bound` past its checks; a float overflow anywhere here
    means the input is past the float range."""
    weights, scale, polys = closure
    base = system.modulus
    phases = _phases(weights, frac)
    cutoff = (policy.product_epsilon / 4.0) ** 2
    level = {whole: 1.0}  # xi's integer part plus a slice prefix -> |product|^2
    left = policy.depth  # slice digits not yet added
    power = step = 1
    nearest = 0  # past the slice, where nodes stay put: the least |node| open
    total = err = 0.0
    while level or left:
        shifts = [s * step for s in candidate.elements] if left else [0]  # past the slice, digit 0
        if level and left < len(polys) and nearest < power:  # P_left closes a prefix with left digits to add
            level, closed, bound = _close_prefixes(
                level, polys[left], frac, scale / step, power, cutoff, candidate.size**left
            )
            total += closed
            err += bound
            nearest = 0 if left else min(map(abs, level), default=0)
        power *= base
        turn = math.pi / power
        deeper = {}
        for node, p2 in level.items():
            for shift in shifts:
                child = node + shift
                if child not in deeper:
                    if p2 < cutoff:  # stopped: a point of p2 past the slice, else closed later
                        if left:
                            deeper[child] = p2
                        else:
                            total, err = total + p2, err + p2
                        continue
                    acc = 1.0  # _symbol_sq(weights, child, frac, power), inlined
                    for k, w, q, r in phases:
                        s = math.sin(turn * ((k * child + q) % power + r))
                        acc -= w * s * s
                    deeper[child] = p2 * acc if acc > 0.0 else 0.0
        level = deeper
        step *= system.scale
        left = max(left - 1, 0)
    return total, err


def transfer_residual(
    system: ScaleDigitSystem,
    candidate: SpectrumCandidate,
    xi,
    depth: int,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> float:
    """Defect of the averaging-operator recursion at finite depth.

    Exact transforms satisfy
        Q_{d+1}(xi) = sum_s |m_D((xi+s)/N)|^2 * Q_d((xi+s)/N)
    because each (d+1)-digit point splits uniquely as s + N*(d-digit point)
    and the symbol is 1-periodic at integer translates.  The |S| + 1 sums
    are `q_eval_with_bound`'s (the lhs, at depth + 1, meets its refusals
    first) at exact points (xi + s)/N, and share one slice closure.  Each
    takes every infinite product to within a small multiple of 2^-70, so
    the returned |lhs - rhs| is rounding plus the early stops at
    (product_epsilon/4)^2, which fall at different factors on the two sides
    and shrink with product_epsilon.
    """
    if candidate.size != system.size:
        raise PreconditionError(
            f"recursion requires |S| = |D|, got |S| = {candidate.size}, |D| = {system.size}"
        )
    lhs = q_eval_with_bound(system, candidate, xi, TruncationPolicy(depth + 1, policy.product_epsilon))[0]
    inner_policy = TruncationPolicy(depth, policy.product_epsilon)
    weights = _slice_closure(system, candidate)[0]
    whole, frac = _split(xi)
    rhs = 0.0
    for s in candidate.elements:
        inner = (Fraction(float(xi)) + s) / system.scale
        weight = _symbol_sq(weights, whole + s, frac, system.modulus)
        rhs += weight * q_eval_with_bound(system, candidate, inner, inner_policy)[0]
    return abs(lhs - rhs)
