"""Quantile tables of one path's normalized power, for the Monte Carlo engine.

:func:`beamsim.channel.sample_max_path_power` draws the strongest of k
i.i.d. path powers as F^-1(u^(1/k)).  For Nakagami and Rician fading F^-1
has no closed form, so :func:`build` tabulates it once per fading law:
4096 nodes of ln z on a uniform grid of xi = ln(s) + s, s = -ln F(z),
each solved by Newton's method on the power's CDF (for Nakagami
``analytic.gamma_power_law``, for Rician a Poisson mixture of
``specfun.reg_gamma_pq``), with the slopes from the density.
Read by cubic Hermite interpolation, the table's relative error is below
1e-10 for every u in [2^-53, 1) and k up to 2^63.  The module is imported
on the first table build only, so runs that simulate neither law do not
compile it.
"""

from __future__ import annotations

import math

import numpy as np

from .analytic import gamma_power_law
from .channel import FadingFamily, FadingModel
from .errors import ConvergenceError
from .specfun import ln_gamma, reg_gamma_pq

# The table's abscissa is xi = ln(s) + s for s = -ln(v), v the CDF value:
# ln(s) spreads the upper tail (s -> 0, where ln z is nearly linear in
# ln s) and s the lower tail (where ln z is nearly linear in s), so a
# uniform grid needs no extra nodes at the bend between them; on a grid of
# ln(s) alone a Rician law at K ~ 10 needs 16 times as many for the same
# error.  s = -ln(u) / k for a uniform u in [2^-53, 1) and k in [1, 2^63)
# lies in [1.2e-35, 36.74], inside the grid.
_TABLE_NODES = 4096
_S_MIN, _S_MAX = 1e-35, 37.0
_XI_MIN, _XI_MAX = math.log(_S_MIN) + _S_MIN, math.log(_S_MAX) + _S_MAX
_XI_STEP = (_XI_MAX - _XI_MIN) / (_TABLE_NODES - 1)
_NEWTON_STEPS = 60
_RICIAN_BLOCK = 256


def _rician_power_law(k: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(CDF, complementary CDF, density) of the Rician power at ``z`` > 0.

    With x = (1 + K) z the power is Gamma(1 + J, 1) / (1 + K) for
    J ~ Poisson(K), so its CDF is the Poisson mixture sum_j Pois(j; K)
    P(1 + j, x), its complement the same mixture of Q(1 + j, x) and its
    density (1 + K) sum_j Pois(j; K) Pois(j; x).  Q(1 + j, x) grows with
    j by Pois(j; x) and P(1 + j, x) falls by it, so over a range of j both
    mixtures are an incomplete gamma at one end plus sums of positive
    terms.  Each block of 256 values takes the j range that holds the
    Poisson(K) bulk and the terms' peak near sqrt(K x), which in either
    tail has standard deviation ~sqrt(sqrt(K x) / 2), with 9 sqrt of each
    centre and 20 terms to spare.
    """
    x = (1.0 + k) * z
    starts = np.arange(0, len(x), _RICIAN_BLOCK)
    centre_lo = np.minimum(k, np.sqrt(k * np.minimum.reduceat(x, starts)))
    centre_hi = np.maximum(k, np.sqrt(k * np.maximum.reduceat(x, starts)))
    first = np.maximum(0.0, np.floor(centre_lo - 9.0 * np.sqrt(centre_lo) - 20.0))
    last = np.ceil(centre_hi + 9.0 * np.sqrt(centre_hi) + 20.0)
    first_row = np.repeat(first, _RICIAN_BLOCK)[: len(x)]
    # Q(1 + first, x), which is e^-x for first = 0
    first_tail = reg_gamma_pq(first_row + 1.0, x)[1] if first.any() else np.exp(-x)
    with np.errstate(over="ignore"):     # an overflowing element is +inf
        log_fact = np.vectorize(ln_gamma, otypes=[float])(np.arange(first.min(), last.max() + 1.0) + 1.0)
    cdf, tail, density = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    for lo, j0, j1 in zip(starts, first, last):
        block = slice(lo, lo + _RICIAN_BLOCK)
        j = np.arange(j0, j1 + 1.0)
        lf = log_fact[int(j0 - first.min()):][: len(j)]
        weight = np.exp(j * math.log(k) - k - lf) if k > 0.0 else (j == 0.0).astype(float)
        # columns: Pois(j; K); its sum over j' >= j and over j' < j (0 at j0)
        below = np.concatenate([[0.0], np.cumsum(weight[:-1])])
        above = np.concatenate([[0.0], np.cumsum(weight[:0:-1])[::-1]])
        xb = x[block, None]
        pois = np.log(xb) * j
        pois -= xb
        pois -= lf
        np.exp(pois, out=pois)                                   # Pois(j; x)
        dens, upper, lower = (pois @ np.stack([weight, above, below], axis=1)).T
        density[block] = (1.0 + k) * dens
        tail[block] = first_tail[block] * weight.sum() + upper
        cdf[block] = lower
    # The sum above leaves out P(1 + last, x) sum_j Pois(j; K), the chance
    # that Poisson(x) exceeds last: below ~1e-18 of the CDF where it is
    # < 1/2 (x is then below the median, last 9 sqrt(K) + 20 above K).
    cdf = np.where(tail < 0.5, 1.0 - tail, cdf)
    return cdf, tail, density


def _xi_of_log_power(model: FadingModel, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """xi = ln(s) + s of s = -ln F(z) at z = e^y, and d xi / dy."""
    z = np.exp(y)
    if model.family is FadingFamily.RICIAN_K:
        cdf, tail, density = _rician_power_law(float(model.parameter), z)  # type: ignore[arg-type]
    else:
        cdf, tail, density = gamma_power_law(model.effective_nakagami_m(), z)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.where(tail < 0.5, -np.log1p(-tail), -np.log(cdf))
        # d s / dy = -z f(z) / F(z), and d xi / ds = 1 + 1/s
        return np.log(s) + s, -(1.0 + s) / s * z * density / cdf


def _log_plus_inverse(value: np.ndarray) -> np.ndarray:
    """The u with u + e^u = ``value``, by Newton's method from above."""
    u = np.where(value < 1.0, value, np.log(np.maximum(value, 1.0)))
    for _ in range(_NEWTON_STEPS):
        step = (u + np.exp(u) - value) / (1.0 + np.exp(u))
        u -= step
        if not np.abs(step).max() > 1e-15 * max(1.0, np.abs(u).max()):
            return u
    raise ConvergenceError("u + e^u = value did not converge")


# Where the bracket search looks for the ends of the table: ln z from -128
# (a Nakagami m = 0.5 quantile at v = e^-37 is ~e^-73) to ln 256 (its upper
# tail reaches e^-80 near z = 170).
_BRACKET_Y = np.concatenate([-(2.0 ** np.arange(7, -1, -1)), np.log(2.0 ** np.arange(1, 9))])


def build(model: FadingModel) -> tuple[float, float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The quantile table of one path's power under ``model`` (Nakagami or
    Rician): (xi_min, xi_step, c0, c1, c2, c3), the grid's first node and
    step and the power-basis coefficients of the cubic Hermite interpolant
    of ln z over it, one interval per entry; the last entry, reached only
    by xi = +inf, is ln 0.

    Each node solves xi(ln z) = xi_i by Newton's method in ln z, vectorized
    over the nodes still moving, from the inverse cubic Hermite interpolant
    of a coarser grid of ln z, and safeguarded by that grid's bracket
    (bisection when a step leaves it); the slopes d ln z / d xi come from
    the density.
    """
    xi = _xi_of_log_power(model, _BRACKET_Y)[0]
    ends = np.flatnonzero(xi >= _XI_MAX)[-1:], np.flatnonzero(xi <= _XI_MIN)[:1]
    if not (len(ends[0]) and len(ends[1])):
        raise ConvergenceError(f"no bracket for the quantile table of {model}")
    # the coarse grid is uniform in ln z + z, along which xi runs nearly
    # uniformly: ~ -m ln z in the lower tail, ~ -m z in the upper
    eta = _BRACKET_Y[[ends[0][0], ends[1][0]]] + np.exp(_BRACKET_Y[[ends[0][0], ends[1][0]]])
    grid_y = _log_plus_inverse(np.linspace(eta[0], eta[1], _TABLE_NODES // 2))
    grid_xi, grid_slope = _xi_of_log_power(model, grid_y)
    target = _XI_MIN + _XI_STEP * np.arange(_TABLE_NODES)
    hi = np.clip(np.searchsorted(-grid_xi, -target), 1, len(grid_y) - 1)
    lo_y, hi_y = grid_y[hi - 1], grid_y[hi]
    with np.errstate(divide="ignore", invalid="ignore"):
        width = grid_xi[hi] - grid_xi[hi - 1]
        f = (target - grid_xi[hi - 1]) / width
        d0, d1 = width / grid_slope[hi - 1], width / grid_slope[hi]
        y = (lo_y * (2 * f**3 - 3 * f**2 + 1) + hi_y * (3 * f**2 - 2 * f**3)
             + d0 * (f**3 - 2 * f**2 + f) + d1 * (f**3 - f**2))
    slope = np.empty_like(y)
    active = np.arange(_TABLE_NODES)
    for _ in range(_NEWTON_STEPS):
        ya, la, ha = y[active], lo_y[active], hi_y[active]
        outside = ~((ya >= la) & (ya <= ha))
        ya[outside] = 0.5 * (la[outside] + ha[outside])
        xi, slope_a = _xi_of_log_power(model, ya)
        above = xi > target[active]
        lo_y[active] = np.where(above, ya, la)
        hi_y[active] = np.where(above, ha, ya)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (xi - target[active]) / slope_a
        y[active] = ya - step
        slope[active] = slope_a
        # a step <= 1e-9 leaves ln z exact to ~1e-18 and the slope to ~1e-9
        active = active[~(np.abs(step) <= 1e-9)]
        if not len(active):
            break
    else:
        raise ConvergenceError(f"quantile table of {model} did not converge")
    dy = _XI_STEP / slope          # d ln z per grid step
    rise = np.diff(y)
    c0 = np.append(y[:-1], -math.inf)
    c1 = np.append(dy[:-1], 0.0)
    c2 = np.append(3.0 * rise - 2.0 * dy[:-1] - dy[1:], 0.0)
    c3 = np.append(dy[:-1] + dy[1:] - 2.0 * rise, 0.0)
    return _XI_MIN, _XI_STEP, c0, c1, c2, c3
