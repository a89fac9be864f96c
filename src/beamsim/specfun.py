"""Self-contained special-function and numerical kernel.

Provides the three scalar kernels the analytic layer is built on:

* ``ln_gamma``          -- log Gamma function, absolute error <= 1e-12 on
                           [0.5, 200]
* ``reg_lower_gamma``   -- regularized lower incomplete gamma P(m, x),
                           absolute error <= 1e-10 for m in [0.5, 50],
                           x in [0, 500]
* ``exp_integral_e1``   -- exponential integral E1(x), relative error
                           <= 1e-10 for x in [1e-8, 700]

``exp_e1_scaled`` returns ``exp(x) * E1(x)`` without forming the
over/underflowing factors separately; the bound evaluators depend on it
for large arguments.

The module also holds the two numerical methods that the bounds, the
planner and the validation oracles need, so the package depends on numpy
alone:

* ``de_quad``           -- double-exponential quadrature (Takahasi & Mori
                           1974): tanh-sinh on a finite interval, exp-sinh
                           on a half-line, numpy-vectorized over the nodes
                           of each level, with the change between step-halved
                           levels as its error estimate
* ``brent_root``        -- Brent's bracketed root finder (Brent 1973)

All routines are pure functions and are safe for unrestricted concurrent
use.  Iterative kernels are capped at ``MAX_ITERATIONS`` and raise
:class:`~beamsim.errors.ConvergenceError` instead of silently returning a
partial sum.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import ConvergenceError, NumericalError

MAX_ITERATIONS = 10_000

EULER_GAMMA = 0.5772156649015329

# Lanczos approximation, rational shift 671/128 with 14 correction terms.
# Close to full double precision for log Gamma on the positive real axis.
_LANCZOS_SHIFT = 671.0 / 128.0
_LANCZOS_SER0 = 0.999999999999997092
_LANCZOS_COEF = (
    57.1562356658629235,
    -59.5979603554754912,
    14.1360979747417471,
    -0.491913816097620199,
    0.339946499848118887e-4,
    0.465236289270485756e-4,
    -0.983744753048795646e-4,
    0.158088703224912494e-3,
    -0.210264441724104883e-3,
    0.217439618115212643e-3,
    -0.164318106536763890e-3,
    0.844182239838527433e-4,
    -0.261908384015814087e-4,
    0.368991826595316234e-5,
)
_SQRT_TWO_PI = 2.5066282746310005

# Smallest positive normal double, used to guard Lentz continued fractions.
_FPMIN = 2.2250738585072014e-308
_EPS = 2.220446049250313e-16


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0.

    Uses the Lanczos series directly for x >= 0.5 and the reflection
    formula below that, so the full positive axis is covered even though
    the accuracy contract is only stated for [0.5, 200].
    """
    if not x > 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x!r}")
    if x < 0.5:
        # ln Gamma(x) = ln(pi / sin(pi x)) - ln Gamma(1 - x)
        return math.log(math.pi / math.sin(math.pi * x)) - ln_gamma(1.0 - x)
    return _lanczos_ln_gamma(x)


def _lanczos_ln_gamma(x: float) -> float:
    base = x + _LANCZOS_SHIFT
    ser = _LANCZOS_SER0
    for j, c in enumerate(_LANCZOS_COEF, start=1):
        ser += c / (x + j)
    return (x + 0.5) * math.log(base) - base + math.log(_SQRT_TWO_PI * ser / x)


def reg_lower_gamma(m: float, x: float) -> float:
    """Regularized lower incomplete gamma P(m, x) = gamma(m, x) / Gamma(m).

    Power series for x < m + 1, Lentz continued fraction of the upper
    tail otherwise.  The result is clamped to [0, 1] to absorb the last
    ulp of rounding.
    """
    if not m > 0.0:
        raise ValueError(f"reg_lower_gamma requires m > 0, got {m!r}")
    if x < 0.0:
        raise ValueError(f"reg_lower_gamma requires x >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    # Prefactor x^m e^{-x} / Gamma(m), evaluated in log space.
    log_pref = m * math.log(x) - x - ln_gamma(m)
    if x < m + 1.0:
        total = _lower_series(m, x)
        return min(1.0, max(0.0, total * math.exp(log_pref) / m))
    q = _upper_continued_fraction(m, x) * math.exp(log_pref)
    return min(1.0, max(0.0, 1.0 - q))


def _lower_series(m: float, x: float) -> float:
    # sum_{k>=0} x^k / ((m+1)...(m+k)), so that P = pref/m * sum
    term = 1.0
    total = 1.0
    ap = m
    for _ in range(MAX_ITERATIONS):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total
    raise ConvergenceError(
        f"reg_lower_gamma series did not converge for m={m!r}, x={x!r}"
    )


def _upper_continued_fraction(m: float, x: float) -> float:
    # Modified Lentz evaluation of the upper-tail continued fraction.
    b = x + 1.0 - m
    c = 1.0 / _FPMIN
    d = 1.0 / max(b, _FPMIN)
    h = d
    for i in range(1, MAX_ITERATIONS + 1):
        an = -i * (i - m)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ConvergenceError(
        f"reg_lower_gamma continued fraction did not converge for m={m!r}, x={x!r}"
    )


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = int_x^inf exp(-t)/t dt for x > 0.

    For x > ~745 the result underflows the double range and 0.0 is
    returned; the stated accuracy contract covers x in [1e-8, 700].
    """
    if not x > 0.0:
        raise ValueError(f"exp_integral_e1 requires x > 0, got {x!r}")
    if x <= 1.0:
        return _e1_series(x)
    return math.exp(-x) * _e1_continued_fraction(x)


def exp_e1_scaled(x: float) -> float:
    """Scaled exponential integral exp(x) * E1(x).

    Stays well-conditioned for arbitrarily large x (value ~ 1/x), where
    the unscaled E1 underflows.  Satisfies exp(x)*E1(x) <= log(1 + 1/x).
    """
    if not x > 0.0:
        raise ValueError(f"exp_e1_scaled requires x > 0, got {x!r}")
    if x <= 1.0:
        return math.exp(x) * _e1_series(x)
    return _e1_continued_fraction(x)


def _e1_series(x: float) -> float:
    # E1(x) = -gamma - ln x + sum_{k>=1} (-1)^{k+1} x^k / (k k!)
    total = -EULER_GAMMA - math.log(x)
    term = 1.0
    for k in range(1, MAX_ITERATIONS + 1):
        term *= -x / k
        contrib = -term / k
        total += contrib
        if abs(contrib) < (abs(total) + _FPMIN) * _EPS:
            return total
    raise ConvergenceError(f"exp_integral_e1 series did not converge for x={x!r}")


def _e1_continued_fraction(x: float) -> float:
    # Lentz evaluation of E1(x) * exp(x) = 1/(x+1- 1/(x+3- 4/(x+5- ...)))
    b = x + 1.0
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, MAX_ITERATIONS + 1):
        a = -i * i
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ConvergenceError(
        f"exp_integral_e1 continued fraction did not converge for x={x!r}"
    )


# =====================================================================
#  Double-exponential quadrature
# =====================================================================

# Level l samples t = k h_l, h_l = _DE_H0 / 2^l, over [-_DE_T_MAX, _DE_T_MAX].
# At |t| = 4.5 the tanh-sinh nodes sit ~1e-61 from the endpoints (with
# weights as small) and the exp-sinh nodes span ~1e-31 .. 5e30.
_DE_H0 = 0.5
_DE_T_MAX = 4.5
DE_MIN_LEVEL = 2
DE_MAX_LEVEL = 8


@functools.cache
def _de_level(half_line: bool, level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes added at ``level``: (offset from a, complement to b, weight).

    For tanh-sinh on the unit interval the offset (1 + x)/2 and complement
    (1 - x)/2 of x = tanh(pi/2 sinh t) are both formed from exponentials,
    so neither loses digits next to its endpoint.  The exp-sinh map of
    [0, inf) is exp(pi/2 sinh t); its complement is +inf.  Weights are
    dx/dt; the caller multiplies by the step.
    """
    h = _DE_H0 / 2**level
    n = int(_DE_T_MAX / h)
    k = np.arange(-n, n + 1, dtype=float)
    if level > 0:
        k = k[1::2]          # the previous levels already hold the even multiples
    t = k * h
    u = 0.5 * math.pi * np.sinh(t)
    dudt = 0.5 * math.pi * np.cosh(t)
    if half_line:
        offset = np.exp(u)
        arrays = (offset, np.full_like(offset, math.inf), dudt * offset)
    else:
        cosh_u = np.cosh(u)
        offset = 0.5 * np.exp(u) / cosh_u
        arrays = (offset, 0.5 * np.exp(-u) / cosh_u, 0.5 * dudt / (cosh_u * cosh_u))
    for arr in arrays:
        arr.flags.writeable = False      # shared by every call through the cache
    return arrays


def de_quad(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: float,
    b: float,
    rtol: float = 1e-11,
    atol: float = 1e-13,
) -> tuple[float, float]:
    """Integral of ``f`` over [a, b] by double-exponential quadrature.

    ``f(x, c)`` is called on arrays of nodes, where ``c = b - x`` is
    computed without cancellation (+inf when ``b`` is +inf), so integrands
    with an endpoint singularity at ``b`` can evaluate it from ``c``; c
    never rounds to 0, nor does x when a = 0 (x itself may round to a
    nonzero a, or to b).  A finite [a, b] uses the tanh-sinh map and
    [a, inf) the exp-sinh map.  Each level halves the step; the estimate
    of a level is its change from the previous one, which overstates the
    error of the finer sum (DE quadrature roughly doubles its correct
    digits per level).  Returns ``(value, error_estimate)`` after the first
    level >= ``DE_MIN_LEVEL`` whose estimate is within
    ``max(atol, rtol * |value|)``, or after ``DE_MAX_LEVEL`` with whatever
    estimate it reached; a non-finite sum has estimate +inf.  Callers
    decide what estimate they accept.
    """
    if not (math.isfinite(a) and b > a):
        raise ValueError(f"de_quad needs finite a < b, got [{a!r}, {b!r}]")
    half_line = b == math.inf
    width = 1.0 if half_line else b - a
    total = 0.0
    value = err = math.inf
    for level in range(DE_MAX_LEVEL + 1):
        offset, complement, weight = _de_level(half_line, level)
        x = a + width * offset
        c = complement if half_line else width * complement
        total += float(np.dot(weight, f(x, c)))
        previous, value = value, total * width * _DE_H0 / 2**level
        if not math.isfinite(value):
            return value, math.inf
        err = abs(value - previous)
        if level >= DE_MIN_LEVEL and err <= max(atol, rtol * abs(value)):
            break
    return value, err


# =====================================================================
#  Brent root finder
# =====================================================================

# Absolute part of the stopping tolerance.
_BRENT_XTOL = 2e-12


def brent_root(f: Callable[[float], float], a: float, b: float, *, rtol: float, maxiter: int) -> float:
    """Root of ``f`` in the bracket [a, b] by Brent's method (Brent 1973).

    Each step takes the inverse-quadratic (or secant) step when it stays
    well inside the bracket and shrinks fast enough, and bisects
    otherwise, so convergence is superlinear on smooth ``f`` and never
    slower than bisection.  Stops once the bracket half-width is below
    (2e-12 + rtol |x|)/2.  Raises :class:`NumericalError` when f(a) and
    f(b) do not have opposite signs, and
    :class:`~beamsim.errors.ConvergenceError` after ``maxiter`` steps.
    """
    x_pre, x_cur = float(a), float(b)
    f_pre, f_cur = f(x_pre), f(x_cur)
    if f_pre == 0.0:
        return x_pre
    if f_cur == 0.0:
        return x_cur
    if math.isnan(f_pre) or math.isnan(f_cur) or (f_pre < 0.0) == (f_cur < 0.0):
        raise NumericalError(
            f"brent_root: f(a) = {f_pre!r} and f(b) = {f_cur!r} do not bracket a root"
        )
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(maxiter):
        if f_pre != 0.0 and f_cur != 0.0 and (f_pre < 0.0) != (f_cur < 0.0):
            # x_cur and x_pre bracket the root: x_pre becomes the far side.
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            # Keep the best estimate in x_cur.
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = (_BRENT_XTOL + rtol * abs(x_cur)) / 2.0
        s_bis = (x_blk - x_cur) / 2.0
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:
                # secant through the two bracket ends
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:
                # inverse quadratic interpolation through three points
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (d_blk * d_pre * (f_blk - f_pre))
            if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else math.copysign(delta, s_bis)
        f_cur = f(x_cur)
    raise ConvergenceError(f"brent_root did not converge in {maxiter} steps (last x = {x_cur!r})")
