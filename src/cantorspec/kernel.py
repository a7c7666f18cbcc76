"""Numeric diagnostics for a scale/digit system.

This module houses the analytic objects: the Fourier transform of the
self-similar measure as a truncated infinite product with a guaranteed tail
bound, the finite-depth slices of the candidate spectrum, the exact
rational enclosure of the attractor, and the completeness sum Q.
Nothing here carries a verdict; the exact decisions live in `compat`,
`decide` and `tiling`, and these functions corroborate them numerically.

Q needs only |mu_hat|^2, so its factors are real:
|m_D(eta)|^2 = 1 - (4/|D|^2) * sum_k c_k sin^2(pi*k*eta), with c_k the
number of digit pairs at difference k > 0 (`_symbol_sq`, one sine per
distinct difference).  The digits are integers, so m_D has period 1 and
factor j of mu_hat(xi + lambda) depends on lambda only mod |N|^j: the
slice is built digit by digit and each prefix's partial product is shared
by every point that extends it.  Phases never carry an integer part into
a float: xi is split exactly into integer and fraction, and the integer
part of each phase is reduced mod |N|^j in integers.  Once |N|^j exceeds a
point's integer part its remaining factors run in floats, until one rounds
to exactly 1.0 in the range where no later one can differ from 1.0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .systems import (
    DEFAULT_POLICY,
    BudgetExceededError,
    PreconditionError,
    RationalInterval,
    ScaleDigitSystem,
    SpectrumCandidate,
    TruncationPolicy,
)

#: Hard ceiling on the number of points a spectrum slice (or a pair power's
#: Minkowski sum) may enumerate, read at call time.
LAMBDA_BUDGET = 1_000_000

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
    Past the float range (lipschitz*|x| / ((|N|-1)*target) or |N|^J too
    large for a float) no bound can be formed and x is refused.
    """
    size = abs(x)
    reach = lipschitz * max(size, 1.0)
    ratio = reach / ((base - 1) * target)
    j_stop = 1
    try:
        if ratio > base:
            j_stop = max(1, math.ceil(math.log(ratio) / math.log(base)))
        while reach / (base**j_stop * (base - 1)) > target:
            j_stop += 1
        return j_stop, math.expm1(lipschitz * size / (base**j_stop * (base - 1)))
    except OverflowError:
        raise PreconditionError(
            f"|xi| = {size!r} is too large for a bounded Fourier product with |N| = {base}"
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
    magnitude; that floor is what makes the recursion defect measured by
    `transfer_residual` actually track epsilon instead of cancelling.  If
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


def attractor_bounds(scale: int, elements) -> RationalInterval:
    """Exact rational enclosure of the attractor of x -> (x+s)/N over s.

    [a/(N-1), b/(N-1)] for N > 0 and [(a+N*b)/(N^2-1), (b+N*a)/(N^2-1)] for
    N < 0, where a and b are the smallest and largest elements.  The
    interval is forward-invariant under every map, which is what the cycle
    search relies on.
    """
    elems = tuple(elements)
    if not elems:
        raise PreconditionError("element set must be nonempty")
    if not isinstance(scale, int) or abs(scale) < 2:
        raise PreconditionError(f"scale must be an integer with |N| >= 2, got {scale!r}")
    a, b = min(elems), max(elems)
    if scale > 0:
        return RationalInterval(Fraction(a, scale - 1), Fraction(b, scale - 1))
    den = scale * scale - 1
    return RationalInterval(Fraction(a + scale * b, den), Fraction(b + scale * a, den))


def _check_slice_budget(size: int, depth: int) -> None:
    if size**depth > LAMBDA_BUDGET:
        raise BudgetExceededError(
            f"|S|^depth = {size}^{depth} exceeds the enumeration budget {LAMBDA_BUDGET}"
        )


def lambda_enumerate(
    scale: int,
    candidate: SpectrumCandidate,
    depth: int,
) -> tuple[int, ...]:
    """The depth-slice of the candidate spectrum, sorted and deduplicated.

    Returns { sum_{j=0}^{depth-1} s_j * N^j : s_j in S }.  Slices use
    exactly `depth` digit positions including trailing zeros, so with
    0 in S they are nested as depth grows and exhaust the full spectrum
    in the limit.
    """
    if not isinstance(depth, int) or depth < 1:
        raise PreconditionError(f"depth must be a positive integer, got {depth!r}")
    _check_slice_budget(candidate.size, depth)
    values = {0}
    power = 1
    for _ in range(depth):
        values = {v + s * power for v in values for s in candidate.elements}
        power *= scale
    return tuple(sorted(values))


def q_eval_with_bound(
    system: ScaleDigitSystem,
    candidate: SpectrumCandidate,
    xi,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> tuple[float, float]:
    """Completeness sum over the depth-slice, with its truncation bound.

    Q_depth(xi) = sum over the slice of |mu_hat(xi + lambda)|^2.  For a
    compatible pair the exact Q never exceeds 1 and the slices increase to
    it; the returned bound accounts for the per-factor product truncation.

    Each point keeps `mu_hat`'s factor count J, early stop and bound, but
    only the squared modulus is formed, one `_symbol_sq` per factor.  Factor
    j depends on lambda only mod |N|^j, which is the slice prefix of its
    first j digits, so the slice is built level by level as a map from
    prefix to the product of its first j factors, shared by every point
    that extends it; a prefix already below the early-stop cutoff passes
    its product on unchanged.  Past the slice depth a point's factors are
    still reduced exactly while |N|^j is at most its integer part; then
    they run in floats, t -> t/|N|, until one rounds to exactly 1.0 with
    every k*t below 1/2: each sin^2(pi*k*t) only shrinks from there, so
    every later factor rounds to 1.0 too.  (Above 1/2 a factor can be
    exactly 1 at a period of the symbol, t in Z/gcd(D - D), and the next
    one not.)  Where J is below the depth the extra prefix factors only
    tighten the value, so J's bound still holds.
    """
    depth = policy.depth
    _check_slice_budget(candidate.size, depth)
    base = system.modulus
    weights = system.difference_weights
    lipschitz = system.lipschitz
    target = math.log1p(policy.product_epsilon)
    cutoff = (policy.product_epsilon / 4.0) ** 2
    whole, frac = _split(xi)
    level = {whole: 1.0}  # xi's integer part plus a slice prefix -> |product|^2
    power = 1
    step = 1
    for _ in range(depth):
        power *= base
        shifts = [s * step for s in candidate.elements]
        deeper = {}
        for node, p2 in level.items():
            for shift in shifts:
                child = node + shift
                if child not in deeper:
                    deeper[child] = p2 if p2 < cutoff else p2 * _symbol_sq(weights, child, frac, power)
        level = deeper
        step *= system.scale
    tail_terms = [(math.pi * k, w) for k, w in weights]  # _symbol_sq with whole = 0, power = 1
    # Below 1/(2 k_max) every sin^2(pi k t) shrinks with t, so a factor that
    # rounds to 1.0 there is followed only by factors that round to 1.0.
    monotone = 0.5 / weights[-1][0] if weights else math.inf
    total = 0.0
    err = 0.0
    for node, p2 in level.items():
        x = node + frac
        j_stop, tail_bound = _truncation(lipschitz, base, x, target)
        j = depth
        period = power
        while period <= abs(node) and j < j_stop and p2 >= cutoff:
            # |node| >= |N|^j: the float x/|N|^j would carry integer digits
            j += 1
            period *= base
            p2 *= _symbol_sq(weights, node, frac, period)
        t = abs(x) / period
        for _ in range(j, j_stop if p2 >= cutoff else j):
            t /= base
            factor = 1.0
            for turn, w in tail_terms:
                s = math.sin(turn * t)
                factor -= w * s * s
            if factor == 1.0 and t < monotone:
                break
            p2 = p2 * factor if factor > 0.0 else 0.0
            if p2 < cutoff:
                break
        mag = math.sqrt(p2)
        bound = mag * (2.0 + tail_bound) if p2 < cutoff else tail_bound
        total += p2
        err += bound * (2.0 * mag + bound)
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
    and the symbol is 1-periodic at integer translates.  Both sides here
    are computed from truncated products, so the returned |lhs - rhs|
    isolates product-truncation error and shrinks with product_epsilon.
    """
    if candidate.size != system.size:
        raise PreconditionError(
            f"recursion requires |S| = |D|, got |S| = {candidate.size}, |D| = {system.size}"
        )
    lhs = q_eval_with_bound(system, candidate, xi, replace(policy, depth=depth + 1))[0]
    inner_policy = replace(policy, depth=depth)
    whole, frac = _split(xi)
    rhs = 0.0
    for s in candidate.elements:
        inner = (float(xi) + s) / system.scale
        weight = _symbol_sq(system.difference_weights, whole + s, frac, system.modulus)
        rhs += weight * q_eval_with_bound(system, candidate, inner, inner_policy)[0]
    return abs(lhs - rhs)
