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
a float: xi is split exactly into integer and fraction, and the integer
part of each phase is reduced mod |N|^j in integers.  Once |N|^j exceeds a
point's integer part its next factors run in floats, and the rest of the
infinite product is one polynomial.

The tail series.  Past an argument t the factors left multiply to
|mu_hat(t)|^2 = E cos(2*pi*t*Z), with Z = X - Y for X, Y independent of law
mu.  Its Taylor series to M = TAIL_TERMS terms is off by at most
(2*pi*t)^(2M) E[Z^(2M)]/(2M)!, the Lagrange remainder of cos, then an
expectation (`ScaleDigitSystem.tail_series`); that is 2^-70 at the switch,
t = 0.39 (|N|-1)/spread or more.

The slice closure.  The prefix map stops at depth - 1.  The |S| points of
a prefix n = floor(xi) + lambda' with product p2 sum to p2 * Q_1(y), with
y = (n + frac(xi))/N^(depth-1) and Q_1(y) = sum_{s in S} |mu_hat(y+s)|^2.
Each term's 2M-th derivative in y is at most (2*pi)^(2M) E[Z^(2M)], so the
Taylor polynomial of Q_1 at 0 with 2M coefficients is off by at most |S|
times the tail series' remainder at y, 2^-70 at radius = switch *
|S|^(-1/(2M)), plus what the series' own remainder puts into the
coefficients.  Built once per call (`_slice_closure`), it closes a prefix
with |y| <= radius at the cost of one polynomial of 2M terms, not |S|
points.  A prefix keeps its points where S has two elements congruent mod
|N| (points may coincide, and the map merges them), where |y| > radius or
|n| >= |N|^(depth-1), or below the early-stop cutoff.  Such a point pays
its last factor, float factors t -> t/|N| while t is above the switch,
and the tail series, with bound p2 times the series' remainder at its t.
No polynomial's rounding, like no float factor's, is in the bound.  A
point or prefix whose product falls below the cutoff (epsilon/4)^2 is left
there with bound p2: the rest of the product lies in [0, 1].
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, replace

from .systems import (
    DEFAULT_POLICY,
    PreconditionError,
    SPREAD_LIMIT,
    ScaleDigitSystem,
    SpectrumCandidate,
    TAIL_TERMS,
    TruncationPolicy,
    _check_slice_budget,
)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TruncatedProduct:
    """A finite product approximation together with its guaranteed error."""

    value: complex
    error_bound: float
    factors: int


def _split(xi) -> tuple[int, float]:
    """xi as an exact integer part and the float fraction left over."""
    x = float(xi)
    if not math.isfinite(x):
        raise PreconditionError(f"xi must be finite, got {xi!r}")
    frac, whole = math.modf(x)
    return int(whole), frac


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


def _symbol_sq(weights, whole: int, frac: float, power: int) -> float:
    """|m_D((whole + frac) / power)|^2 for a positive integer power.

    Uses |m_D(eta)|^2 = 1 - sum_k w_k sin^2(pi*k*eta) over the digit
    differences (`ScaleDigitSystem.difference_weights`).  sin^2(pi*x) has
    period 1, so the integer part k*whole of each phase is reduced mod power
    exactly before it meets a float.  Clamped at 0 against rounding.
    """
    turn = math.pi / power
    acc = 1.0
    for k, w in weights:
        s = math.sin(turn * ((k * whole) % power + k * frac))
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
    magnitude.  If
    the running product drops below epsilon/4 in magnitude the loop stops
    early: the remaining factors have modulus at most 1, so the absolute
    error is below epsilon either way.

    The bound also holds for large |xi|: xi is split exactly into an integer
    k and a fraction f, and digit d's phase in factor j is taken as
    (r + d*f) / |N|^j with the sign of N^j, where r is d*k reduced mod |N|^j
    into [-|N|^j/2, |N|^j/2], so no float ever carries an integer part that
    the symbol's 1-periodicity discards.
    """
    x = float(xi)
    whole, frac = _split(x)
    lipschitz = system.lipschitz
    if x == 0.0 or lipschitz == 0.0:  # lipschitz 0: D = {0}, the point mass
        return TruncatedProduct(complex(1.0), 0.0, 0)
    base = system.modulus
    j_stop, tail_bound = _truncation(lipschitz, base, x, math.log1p(policy.product_epsilon))
    cutoff = policy.product_epsilon / 4.0
    value = complex(1.0)
    power = 1
    turn = -_TWO_PI
    for j in range(1, j_stop + 1):
        power *= base
        if system.scale < 0:
            turn = -turn
        acc = 0j
        for d in system.digits:
            r = (d * whole) % power
            if 2 * r > power:  # centre the integer part: a phase near 1 would lose digits
                r -= power
            acc += cmath.exp(complex(0.0, turn * ((r + d * frac) / power)))
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
    prefix of depth - 1 digits to its squared partial product, one
    `_symbol_sq` per factor and shared by every point that extends it,
    then one polynomial per prefix within the closure's radius and the
    prefix's |S| points otherwise.  The bound sums the closure's remainder
    at each closed prefix and the tail series' at each point, times the
    product before it, or that product where it stopped early.  No factor
    count J is formed: it is the whole infinite product that is summed.
    |xi + lambda| is refused where `mu_hat` would refuse it, and so is any
    phase period or point past the float range, or a digit spread from
    `SPREAD_LIMIT` on.
    """
    _check_slice_budget(candidate.size, policy.depth)
    return _q_eval(system, candidate, xi, policy, _slice_closure(system, candidate))


def _q_eval(system, candidate, xi, policy, closure):
    """`q_eval_with_bound` past the slice budget, with the pair's closure."""
    whole, frac = _split(xi)
    try:
        return _completeness_sum(system, candidate, whole, frac, policy, closure)
    except OverflowError:
        raise PreconditionError(
            f"the Q kernel at xi = {xi!r} with |N|^depth = {system.modulus}^{policy.depth} "
            "passes the float range"
        ) from None


#: Terms 2M of Q_1, and 1/n! for its Taylor coefficients.
_ORDER = 2 * TAIL_TERMS
_INV_FACTORIALS = tuple(1.0 / math.factorial(n) for n in range(_ORDER))


def _times(a, b):
    """Two power series of _ORDER terms multiplied and truncated to _ORDER,
    which is exact through degree _ORDER - 1."""
    b = b[::-1]
    return [sum(map(operator.mul, a, b[_ORDER - 1 - n :])) for n in range(_ORDER)]


def _slice_closure(system, candidate):
    """(coeffs, reach, remainder, offset, slope): Q_1 at v = scale*y is sum_i
    coeffs[i] v^i within remainder * v^(2M) + offset + slope * |v| while
    |v| <= reach, or None where no prefix closes.  s = 0 adds the tail
    series itself.  For s != 0, with P_j = |N|^j and J the least level with
    (|s| + radius)/P_J <= switch/2, |mu_hat(y+s)|^2 = prod_{j<=J}
    |m_D((y+s)/P_j)|^2 * T((y+s)/P_J): each factor by its exact series
    (phase 2*pi*((k*s) mod P_j)/P_j, derivatives cycling through cos, -sin,
    -cos, sin), T the tail series expanded about its centre c = scale*s/P_J,
    each product truncated at 2M terms.  T's own remainder R reaches the
    coefficients through the product G*R, G the factors' series: at most
    G+(|v|) * R+(|v|), the two series with their coefficients' absolute
    values, a product convex in |v| and so below its chord.  At 0 that is
    |G_0| * remainder * |c|^(2M), the Lagrange bound of R at c; at reach,
    G+(reach) * remainder * u^(2M) * cosh(u), u = |c| + reach/P_J, the
    moment series past M terms, whose moments never grow.  `offset` and
    `slope` sum the chord over s; where a factor vanishes at y = 0 it
    starts at 0.  Rates and centres in v stay below about scale*switch, so
    no digit spread overflows them.
    """
    spread = system.digits[-1] - system.digits[0]
    try:
        scale, coeffs, remainder, switch = system.tail_series
    except OverflowError:
        raise PreconditionError(
            f"the Q kernel refuses the digit spread {spread}: from "
            f"SPREAD_LIMIT = 2^{SPREAD_LIMIT.bit_length() - 1} on it passes the float range"
        ) from None
    base = system.modulus
    size = candidate.size
    if not remainder or len({s % base for s in candidate.elements}) < size:
        return None  # D = {0}, or slice points that may coincide
    radius = switch * size ** (-1.0 / _ORDER)
    levels = []
    for s in candidate.elements:
        level = 1 if s else 0
        try:
            while level and abs(s) + radius > switch / 2 * base**level:
                level += 1
        except OverflowError:
            return None  # s past the float range: the sum refuses its points
        levels.append(level)
    reach = scale * radius
    halves = [(k, w / 2.0) for k, w in system.difference_weights]
    decays = []  # per level j <= J: (rate*v)^n/n! for each difference k, rate = k/(rho*P_j)
    for j in range(1, max(levels) + 1):
        rates = [k * (base - 1) / (spread * base**j) for k, _ in halves]
        decays.append([[r**n * f for n, f in enumerate(_INV_FACTORIALS)] for r in rates])
    moments = [c * math.factorial(2 * n) for n, c in enumerate(coeffs)]  # (-1)^n E[(Z/rho)^(2n)]
    poly = [0.0] * _ORDER
    if 0 in candidate.elements:  # |mu_hat(y)|^2 is the tail series in v
        poly[0::2] = coeffs
    offset = slope = 0.0
    for s, level in zip(candidate.elements, levels):
        if not s:
            continue
        series = None
        power = 1
        for decay in decays[:level]:
            power *= base
            factor = [1.0 - sum(w for _, w in halves)] + [0.0] * (_ORDER - 1)
            for (k, w), terms in zip(halves, decay):  # w cos(phase + rate*v)
                phase = _TWO_PI * ((k * s) % power) / power
                c, sn = w * math.cos(phase), w * math.sin(phase)
                factor = [f + a * t for f, a, t in zip(factor, (c, -sn, -c, sn) * (_ORDER // 4), terms)]
            series = factor if series is None else _times(series, factor)
        centre = scale * (s / power)
        shifted = [centre**j * f for j, f in enumerate(_INV_FACTORIALS)]
        even, odd = shifted[0::2], shifted[1::2]
        shrink = 1.0 / power
        tail = [  # T(centre + v/P_J) = sum_i T^(i)(centre) (v/P_J)^i / i!
            sum(map(operator.mul, moments[(i + 1) // 2 :], odd if i & 1 else even)) * f * shrink**i
            for i, f in enumerate(_INV_FACTORIALS)
        ]
        poly = [p + q for p, q in zip(poly, _times(series, tail))]
        u = abs(centre) + reach * shrink
        low = abs(series[0]) * remainder * abs(centre) ** _ORDER
        high = sum(abs(g) * reach**a for a, g in enumerate(series)) * remainder * u**_ORDER * math.cosh(u)
        offset += low
        slope += (high - low) / reach
    return poly, reach, size * remainder, offset, slope


def _close_prefixes(level, closure, frac, vstep, period, cutoff):
    """(the prefixes left open, the closed ones' sum, its bound), v = (node +
    frac) * vstep: a prefix closes if p2 >= cutoff, |node| < period and
    |v| <= reach."""
    coeffs, reach, remainder, offset, slope = closure
    # 2M coefficients: the Horner sum is unrolled below; a loop over them
    # made the benchmark's qgrid items about 18 % slower at the median
    (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13,
     a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24, a25, a26, a27) = coeffs
    rest = {}
    total = mass = lever = near = 0.0
    for node, p2 in level.items():
        if p2 >= cutoff and -period < node < period:
            v = (node + frac) * vstep
            if -reach <= v <= reach:
                total += p2 * (a0 + v * (a1 + v * (a2 + v * (a3 + v * (a4 + v * (a5 + v * (a6 + v * (
                    a7 + v * (a8 + v * (a9 + v * (a10 + v * (a11 + v * (a12 + v * (a13 + v * (
                    a14 + v * (a15 + v * (a16 + v * (a17 + v * (a18 + v * (a19 + v * (a20 + v * (
                    a21 + v * (a22 + v * (a23 + v * (a24 + v * (a25 + v * (a26 + v * a27)))))))))))))))))))))))))))
                mass += p2
                lever += p2 * abs(v)
                near += p2 * (v * v) ** TAIL_TERMS
                continue
        rest[node] = p2
    return rest, total, remainder * near + offset * mass + slope * lever


def _completeness_sum(system, candidate, whole: int, frac: float, policy, closure) -> tuple[float, float]:
    """`q_eval_with_bound` past its checks; a float overflow anywhere here
    means the input is past the float range."""
    base = system.modulus
    weights = system.difference_weights
    cutoff = (policy.product_epsilon / 4.0) ** 2
    scale, coeffs, remainder, switch = system.tail_series
    # TAIL_TERMS coefficients: the Horner sum is unrolled below, which costs
    # about half what a loop over them costs per point
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13 = coeffs
    level = {whole: 1.0}  # xi's integer part plus a slice prefix -> |product|^2
    power = 1
    step = 1
    total = 0.0
    err = 0.0
    for j in range(1, policy.depth + 1):
        power *= base
        turn = math.pi / power
        shifts = [s * step for s in candidate.elements]
        if j == policy.depth:
            # refuse as mu_hat would: the slice's largest |xi + lambda| is at one end
            far = max(abs(min(level) + min(shifts) + frac), abs(max(level) + max(shifts) + frac))
            _truncation(system.lipschitz, base, far, math.log1p(policy.product_epsilon))
            if closure is not None:
                level, total, err = _close_prefixes(level, closure, frac, scale / step, power // base, cutoff)
        deeper = {}
        for node, p2 in level.items():
            for shift in shifts:
                child = node + shift
                if child not in deeper:
                    if p2 < cutoff:
                        deeper[child] = p2
                        continue
                    acc = 1.0  # _symbol_sq(weights, child, frac, power), inlined
                    for k, w in weights:
                        s = math.sin(turn * ((k * child) % power + k * frac))
                        acc -= w * s * s
                    deeper[child] = p2 * acc if acc > 0.0 else 0.0
        level = deeper
        step *= system.scale
    tail_terms = [(math.pi * k, w) for k, w in weights]  # _symbol_sq with whole = 0, power = 1
    for node, p2 in level.items():
        period = power
        while period <= abs(node) and p2 >= cutoff:
            # |node| >= |N|^j: the float x/|N|^j would carry integer digits
            period *= base
            p2 *= _symbol_sq(weights, node, frac, period)
        t = abs(node + frac) / period
        while t > switch and p2 >= cutoff:
            t /= base
            factor = 1.0
            for turn, w in tail_terms:
                s = math.sin(turn * t)
                factor -= w * s * s
            p2 = p2 * factor if factor > 0.0 else 0.0
        if p2 < cutoff:
            err += p2
        else:
            s = scale * t
            s *= s
            err += p2 * remainder * s**TAIL_TERMS
            p2 *= c0 + s * (c1 + s * (c2 + s * (c3 + s * (c4 + s * (c5 + s * (c6 + s * (
                c7 + s * (c8 + s * (c9 + s * (c10 + s * (c11 + s * (c12 + s * c13))))))))))))
        total += p2
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
    share one slice closure, and each sums every infinite product to
    within 2^-70, so the returned |lhs - rhs| is rounding plus the early
    stops at (product_epsilon/4)^2, which fall at different factors on the
    two sides and shrink with product_epsilon.
    """
    if candidate.size != system.size:
        raise PreconditionError(
            f"recursion requires |S| = |D|, got |S| = {candidate.size}, |D| = {system.size}"
        )
    _check_slice_budget(candidate.size, depth + 1)
    closure = _slice_closure(system, candidate)
    lhs = _q_eval(system, candidate, xi, replace(policy, depth=depth + 1), closure)[0]
    inner_policy = replace(policy, depth=depth)
    whole, frac = _split(xi)
    rhs = 0.0
    for s in candidate.elements:
        inner = (float(xi) + s) / system.scale
        weight = _symbol_sq(system.difference_weights, whole + s, frac, system.modulus)
        rhs += weight * _q_eval(system, candidate, inner, inner_policy, closure)[0]
    return abs(lhs - rhs)
