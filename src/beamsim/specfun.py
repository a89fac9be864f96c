"""Self-contained special-function and numerical kernel.

Provides the special functions the analytic layer is built on:

* ``ln_gamma``          -- log Gamma function (scalar) for x > 0, the C
                           library's; +inf past the double range
                           (x > ~2.56e305)
* ``reg_gamma_pq``      -- regularized incomplete gammas P(a, x) and
                           Q(a, x) = 1 - P(a, x), elementwise over arrays,
                           each without cancellation where it is small
* ``reg_lower_gamma``   -- its P half, absolute error <= 1e-10 for m in
                           [0.5, 50], x in [0, 500]
* ``exp_integral_e1``   -- exponential integral E1(x) (scalar), relative
                           error <= 1e-10 for x in [1e-8, 700]

``exp_e1_scaled`` returns ``exp(x) * E1(x)`` without forming the
over/underflowing factors separately; the bound evaluators depend on it
for large arguments.  ``reg_gamma_pq`` is the one incomplete-gamma
implementation: the optimal-power laws of ``analytic`` and the Monte
Carlo engine's quantile tables both evaluate it over arrays.

The module also holds the two numerical methods that the bounds, the
planner and the validation oracles need, so the package depends on numpy
alone:

* ``de_quad``           -- double-exponential quadrature (Takahasi & Mori
                           1974): tanh-sinh on a finite interval, exp-sinh
                           on a half-line, numpy-vectorized over the nodes
                           of each level and over rows of integrands, with the
                           change between step-halved levels as its error
                           estimate
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

# Smallest positive normal double, used to guard Lentz continued fractions.
_FPMIN = 2.2250738585072014e-308
_EPS = 2.220446049250313e-16


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0, the package's one
    log-Gamma: ``math.lgamma``, with +inf, its limit, where that overflows."""
    if not x > 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x!r}")
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def reg_lower_gamma(m, x):
    """Regularized lower incomplete gamma P(m, x) = gamma(m, x) / Gamma(m),
    elementwise over the broadcast arrays ``m`` > 0 and ``x`` >= 0.

    The P half of :func:`reg_gamma_pq`; a float for scalar input.
    """
    p = reg_gamma_pq(m, x)[0]
    return float(p) if p.ndim == 0 else p


def reg_gamma_pq(a, x) -> tuple[np.ndarray, np.ndarray]:
    """Regularized incomplete gammas P(a, x) and Q(a, x) = 1 - P(a, x),
    elementwise over the broadcast arrays ``a`` > 0 and ``x`` >= 0.

    The package's one incomplete-gamma kernel: the power series gives P
    where x < a + 1 and the modified Lentz continued fraction gives Q
    elsewhere, and the other is one minus it.  That complement is at least
    ~0.08 for a >= 0.5 (it is Q(a, x) >= Q(a, a + 1) in the series region,
    P >= 1/2 in the other), so it loses at most four bits; neither is formed
    by cancellation where it is small, and Q keeps its relative accuracy
    down to the double range.  Each loop runs until every element has
    converged.  A NaN anywhere in ``a`` or ``x`` raises ``ValueError``.
    """
    a, x = np.asarray(a, dtype=float), np.asarray(x, dtype=float)
    if not ((a > 0.0).all() and (x >= 0.0).all()):
        raise ValueError("the regularized incomplete gamma requires a > 0 and x >= 0 (no NaN)")
    with np.errstate(over="ignore"):     # an overflowing element is +inf
        lgam = np.vectorize(ln_gamma, otypes=[float])(a)
    a, x, lgam = np.broadcast_arrays(a, x, lgam)
    p, q = np.zeros(a.shape), np.ones(a.shape)
    p[x == math.inf], q[x == math.inf] = 1.0, 0.0
    series = (x > 0.0) & (x < a + 1.0)
    fraction = (x >= a + 1.0) & (x < math.inf)
    for region, sum_of in ((series, _lower_series_array), (fraction, _upper_fraction_array)):
        if region.any():
            ar, xr = a[region], x[region]
            # x^a e^-x / Gamma(a), in log space
            value = np.exp(ar * np.log(xr) - xr - lgam[region]) * sum_of(ar, xr)
            if sum_of is _lower_series_array:
                p[region] = value
                q[region] = 1.0 - value
            else:
                q[region] = value
                p[region] = 1.0 - value
    return p, q


def _lower_series_array(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    # sum_{k>=0} x^k / (a (a+1)...(a+k)), so that P = prefactor * sum
    term = 1.0 / a
    total = term.copy()
    ap = a.copy()
    for _ in range(MAX_ITERATIONS):
        ap += 1.0
        term *= x / ap
        total += term
        if (term <= total * _EPS).all():
            return total
    raise ConvergenceError("reg_gamma_pq series did not converge")


def _upper_fraction_array(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    # modified Lentz evaluation of the upper-tail continued fraction;
    # x >= a + 1 keeps b >= 2
    b = x + 1.0 - a
    c = np.full_like(b, 1.0 / _FPMIN)
    d = 1.0 / b
    h = d.copy()
    done = np.zeros(b.shape, dtype=bool)
    for i in range(1, MAX_ITERATIONS + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d[np.abs(d) < _FPMIN] = _FPMIN
        c = b + an / c
        c[np.abs(c) < _FPMIN] = _FPMIN
        d = 1.0 / d
        delta = d * c
        delta[done] = 1.0      # a converged element keeps its value
        h *= delta
        done |= np.abs(delta - 1.0) < _EPS
        if done.all():
            return h
    raise ConvergenceError("reg_gamma_pq continued fraction did not converge")


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = int_x^inf exp(-t)/t dt for x > 0.

    For x > ~745, +inf included, the result underflows the double range
    and 0.0 is returned; the stated accuracy contract covers x in
    [1e-8, 700].
    """
    if not x > 0.0:
        raise ValueError(f"exp_integral_e1 requires x > 0, got {x!r}")
    if x <= 1.0:
        return _e1_series(x)
    return math.exp(-x) * _e1_continued_fraction(x)


def exp_e1_scaled(x: float) -> float:
    """Scaled exponential integral exp(x) * E1(x).

    Stays well-conditioned for arbitrarily large x (value ~ 1/x), where
    the unscaled E1 underflows, and is 0.0, its limit, at x = +inf.
    Satisfies exp(x)*E1(x) <= log(1 + 1/x).
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
    if x == math.inf:
        return 0.0  # the limit of E1(x) * exp(x) ~ 1/x
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
# Most rows times nodes in one integrand call of a row-batched quadrature,
# which bounds its temporaries however many rows a caller passes.
_DE_BLOCK = 1 << 16


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
    f: Callable[..., np.ndarray],
    a: float,
    b: float,
    rtol: float = 1e-11,
    atol: float = 1e-13,
    rows: int | None = None,
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
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

    With ``rows`` given, ``f(x, c, active)`` evaluates that many integrands
    at once: it returns a (len(active) x nodes) array for ``active``, the
    list of the row indices still running, and ``de_quad`` returns per-row
    arrays ``(values, errors)``.  Each row stops by the rule above at its
    own level and gets the bits of its one-row call (the scalar form is that
    one-row case); a level is evaluated in blocks of rows, so its
    temporaries stay near ``_DE_BLOCK`` elements.
    """
    if not (math.isfinite(a) and b > a):
        raise ValueError(f"de_quad needs finite a < b, got [{a!r}, {b!r}]")
    if rows is None:
        (value,), (err,) = _de_rows(lambda x, c, active: (f(x, c),), a, b, rtol, atol, 1)
        return value, err
    values, errors = _de_rows(f, a, b, rtol, atol, rows)
    return np.array(values), np.array(errors)


def _de_rows(
    f: Callable[..., np.ndarray], a: float, b: float, rtol: float, atol: float, rows: int
) -> tuple[list[float], list[float]]:
    """The levels of :func:`de_quad` for ``rows`` integrands: per-row lists
    of values and error estimates."""
    half_line = b == math.inf
    width = 1.0 if half_line else b - a
    totals = [0.0] * rows
    values = [math.inf] * rows
    errors = [math.inf] * rows
    active = list(range(rows))
    for level in range(DE_MAX_LEVEL + 1):
        if not active:
            break
        offset, complement, weight = _de_level(half_line, level)
        x = a + width * offset
        c = complement if half_line else width * complement
        block = max(1, _DE_BLOCK // weight.size)
        running = []
        for start in range(0, len(active), block):
            part = active[start:start + block]
            # one dot per row: a matrix product may round differently
            for i, fx in zip(part, f(x, c, part)):
                totals[i] += float(np.dot(weight, fx))
                value = totals[i] * width * _DE_H0 / 2**level
                if math.isfinite(value):
                    err = abs(value - values[i])
                    if level < DE_MIN_LEVEL or err > max(atol, rtol * abs(value)):
                        running.append(i)
                else:
                    err = math.inf
                values[i], errors[i] = value, err
        active = running
    return values, errors


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
