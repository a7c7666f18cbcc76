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
infinite product is one polynomial (`ScaleDigitSystem.tail_series`).

The tail series.  Past an argument t the factors left multiply to
|mu_hat(t)|^2 = E cos(2*pi*t*Z), with Z = X - Y for X, Y independent of law
mu.  Expanding cos to M = TAIL_TERMS terms,

    |mu_hat(t)|^2 = sum_{n<M} (-1)^n (2*pi*t)^(2n) E[Z^(2n)]/(2n)! + R,
    |R| <= (2*pi*t)^(2M) E[Z^(2M)]/(2M)!,

the Lagrange remainder of cos, then an expectation.  The even moments of Z
come once per system from Z = (delta + Z')/N in law, delta = d - d'.  The
kernel switches to the series at the first t where that remainder is at
most 2^-70 (`TAIL_SWITCH_REMAINDER`), far below a float's rounding; with
M = 14 that is t = 0.39 (|N|-1)/spread or more, and t starts below 1.  A
point's error bound is p2 times the remainder at its t, on its squared
modulus p2 before the series.  So a point costs its shared prefix
factors, float factors t -> t/|N| only while t is above the switch, and
one polynomial of M terms.  The polynomial's own rounding, like the float
factors', is not in the bound.  A point whose product falls below the
early-stop cutoff is left there with bound p2: the rest of the product
lies in [0, 1].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

from .systems import (
    DEFAULT_POLICY,
    PreconditionError,
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

    Only the squared modulus of each point's product is formed, one
    `_symbol_sq` per factor.  Factor j depends on lambda only mod |N|^j,
    which is the slice prefix of its first j digits, so the slice is built
    level by level as a map from prefix to the product of its first j
    factors, shared by every point that extends it; a prefix already below
    the early-stop cutoff (epsilon/4)^2 passes its product on unchanged.
    Past the slice depth a point's factors are still reduced exactly while
    |N|^j is at most its integer part, leaving an argument t below 1.  The
    factors left multiply to |mu_hat(t)|^2 = E cos(2*pi*t*Z), Z = X - Y, and
    its Taylor series to M = TAIL_TERMS terms, sum_{n<M} (-1)^n
    (2*pi*t)^(2n) E[Z^(2n)]/(2n)!, is off by at most the next term's size
    (`ScaleDigitSystem.tail_series`).  The switch is the t where that
    remainder reaches 2^-70: a point costs float factors t -> t/|N| while
    t is above it, then one polynomial of M terms.  Its bound is p2 times
    the remainder at its t, on its squared modulus p2 before the
    polynomial, or p2 itself if it stopped early.  No factor count J is formed: it is the whole infinite
    product that is summed.  |xi + lambda| is refused where `mu_hat` would
    refuse it, and so is any phase period or point past the float range,
    or a digit spread from `SPREAD_LIMIT` on.
    """
    _check_slice_budget(candidate.size, policy.depth)
    whole, frac = _split(xi)
    try:
        return _completeness_sum(system, candidate, whole, frac, policy)
    except OverflowError:
        raise PreconditionError(
            f"the Q kernel at xi = {xi!r} with |N|^depth = {system.modulus}^{policy.depth} "
            "passes the float range"
        ) from None


def _completeness_sum(system, candidate, whole: int, frac: float, policy) -> tuple[float, float]:
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
    for _ in range(policy.depth):
        power *= base
        turn = math.pi / power
        shifts = [s * step for s in candidate.elements]
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
    # refuse as mu_hat would: the slice's largest |xi + lambda| is at one end
    far = max(abs(min(level) + frac), abs(max(level) + frac))
    _truncation(system.lipschitz, base, far, math.log1p(policy.product_epsilon))
    tail_terms = [(math.pi * k, w) for k, w in weights]  # _symbol_sq with whole = 0, power = 1
    total = 0.0
    err = 0.0
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
    and the symbol is 1-periodic at integer translates.  Both sides sum
    every infinite product to within 2^-70, so the returned |lhs - rhs| is
    rounding plus the early stops at (product_epsilon/4)^2, which fall at
    different factors on the two sides and shrink with product_epsilon.
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
