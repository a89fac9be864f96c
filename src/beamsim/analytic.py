"""Closed-form statistics of the optimally beamformed link.

Under the sparse-occupancy approximation each of the B beam pairs holds a
multipath component independently with probability p = 1 - exp(-lambda0/B),
and an occupied pair carries a single unit-mean Gamma(m, 1/m) fading power.
The normalized optimal power is the maximum over pairs, a mixed random
variable with an atom at zero (all pairs empty).  This module provides its
conditional CDF and density, a proper surrogate density built from the
exponential-power CDF approximation (1 - e^{-a x})^m of the Gamma CDF (the
three evaluate arrays of powers elementwise), and four spectral-efficiency
expressions:

* an upper bound for Nakagami-m fading (integer-shape surrogate, evaluated
  by double-exponential (tanh-sinh) quadrature, ``specfun.de_quad``, over
  a sequence of points in one row-batched call; the closed binomial
  mixture of exponential order statistics is kept only as a small-B oracle
  in ``validation``),
* a simplified large-B upper bound for Rayleigh fading,
* a no-fading lower bound,
* and the common small-lambda0 limit of both, lambda0 * ln(1 + rho).

All spectral efficiencies are unconditional (the all-empty event
contributes zero rate) and in nats per channel use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError
from .specfun import de_quad, exp_e1_scaled, ln_gamma, reg_gamma_pq


@dataclass(frozen=True)
class SparseModel:
    """Bernoulli-occupancy channel summary: (p, B, m, lambda0).

    ``lambda0`` and ``p`` are linked through p = 1 - exp(-lambda0/B), so
    (1-p)^B = exp(-lambda0) exactly; use the constructors to keep the pair
    consistent.
    """

    p: float
    b: int
    m: float
    lambda0: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"occupancy probability must be in (0,1), got {self.p!r}")
        if self.b < 1:
            raise ValueError(f"pair count must be >= 1, got {self.b!r}")
        if not (math.isfinite(self.m) and self.m >= 0.5):
            raise ValueError(f"Nakagami shape must be finite and >= 0.5, got {self.m!r}")
        if not (math.isfinite(self.lambda0) and self.lambda0 > 0.0):
            raise ValueError(f"lambda0 must be finite and > 0, got {self.lambda0!r}")

    @classmethod
    def from_occupancy(cls, lambda0: float, b: int, m: float) -> "SparseModel":
        p = bernoulli_p(lambda0, b)
        if not 0.0 < p < 1.0:
            raise ValueError(
                f"lambda0 = {lambda0!r} over b = {b!r} beam pairs makes the occupancy "
                f"probability 1 - exp(-lambda0/b) round to {p!r}; it must lie in (0, 1)"
            )
        return cls(p=p, b=int(b), m=float(m), lambda0=float(lambda0))

    @classmethod
    def from_p(cls, p: float, b: int, m: float) -> "SparseModel":
        """Model with an explicitly chosen p; lambda0 is implied."""
        if not 0.0 < p < 1.0:
            raise ValueError(f"occupancy probability must be in (0,1), got {p!r}")
        return cls(p=float(p), b=int(b), m=float(m), lambda0=-b * math.log1p(-p))

    def log_all_empty(self) -> float:
        """log((1-p)^B), the log-probability that every pair is empty."""
        return self.b * math.log1p(-self.p)

    def prob_any(self) -> float:
        """1 - (1-p)^B, the probability that some pair is occupied."""
        return -math.expm1(self.log_all_empty())


def bernoulli_p(lambda0: float, b: int) -> float:
    """Per-pair occupancy probability p = 1 - exp(-lambda0/b)."""
    if not lambda0 > 0.0:
        raise ValueError(f"lambda0 must be > 0, got {lambda0!r}")
    if b < 1:
        raise ValueError(f"pair count must be >= 1, got {b!r}")
    return -math.expm1(-lambda0 / b)


# =====================================================================
#  Distribution of the normalized optimal power
# =====================================================================

def gamma_power_law(m: float, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(CDF, complementary CDF, density) of the unit-mean Gamma(m, 1/m) power
    of one path at ``z`` >= 0, elementwise.

    The CDF and its complement are ``specfun.reg_gamma_pq`` at m z, each
    accurate where it is small; the density m (m z)^(m-1) e^(-m z) / Gamma(m)
    is +inf at z = 0 for m < 1.
    """
    x = m * np.asarray(z, dtype=float)
    cdf, tail = reg_gamma_pq(m, x)
    with np.errstate(divide="ignore"):
        shape_term = 0.0 if m == 1.0 else (m - 1.0) * np.log(x)
    density = np.exp(math.log(m) + shape_term - x - ln_gamma(m))
    return cdf, tail, density


def _powers(p_star) -> np.ndarray:
    # at least 1-d: numpy computes on 0-d operands with its scalar code, which
    # can round differently from the array loops
    z = np.atleast_1d(np.asarray(p_star, dtype=float))
    if not (z >= 0.0).all():
        raise ValueError(f"powers must be >= 0 and not NaN, got {p_star!r}")
    return z


def _like(p_star, value: np.ndarray):
    """``value`` as a float when the power ``p_star`` is a scalar."""
    return float(value[0]) if np.ndim(p_star) == 0 else value


def opt_power_cdf(p_star, model: SparseModel):
    """Conditional CDF of the normalized optimal power, given >= 1 path,
    elementwise over an array of powers (a float for a float).

    F(P) = [ (1 - p(1 - G(P)))^B - (1-p)^B ] / (1 - (1-p)^B) with G the
    Gamma(m, 1/m) CDF; 1 - G is the exact complementary regularized
    incomplete gamma, and the B-th powers are formed through log1p/expm1.
    """
    z = _powers(p_star)
    tail = gamma_power_law(model.m, z)[1]
    log_all = model.log_all_empty()
    num = np.exp(model.b * np.log1p(-model.p * tail)) - math.exp(log_all)
    cdf = np.clip(num / -math.expm1(log_all), 0.0, 1.0)
    return _like(p_star, np.where(z > 0.0, cdf, 0.0))


def surrogate_rate(m: float) -> float:
    """Exponential rate a = m * Gamma(m+1)^(-1/m) of the power surrogate.

    (1 - e^{-a x})^m matches the Gamma(m, 1/m) CDF from below and is exact
    at m = 1.
    """
    return m * math.exp(-ln_gamma(m + 1.0) / m)


def opt_power_pdf_bound(p_star, model: SparseModel):
    """Density of the surrogate optimal-power model (conditional on >= 1 path),
    elementwise over an array of powers (a float for a float).

    Replaces the Gamma CDF by (1 - e^{-a P})^m with a = m Gamma(m+1)^(-1/m);
    the result is a proper density (integrates to 1) that upper-bounds the
    spectral efficiency when pushed through ln(1 + rho P).  For m < 1 the
    density diverges (integrably) at P = 0 and +inf is returned there.
    """
    z = _powers(p_star)
    m, p, b = model.m, model.p, model.b
    a = surrogate_rate(m)
    u = -np.expm1(-a * z)
    lead = m * a * p * b / model.prob_any()
    with np.errstate(divide="ignore"):
        shape_term = 1.0 if m == 1.0 else u ** (m - 1.0)
    bracket = np.exp((b - 1) * np.log1p(-p * (1.0 - u**m)))
    return _like(p_star, lead * shape_term * bracket * np.exp(-a * z))


def opt_power_pdf_exact(p_star, model: SparseModel):
    """Exact conditional density matching :func:`opt_power_cdf`, elementwise
    over an array of powers (a float for a float).

    f(P) = B p m g(mP) (1 - p(1 - G(P)))^{B-1} / (1 - (1-p)^B) with g and
    G the unit-scale Gamma(m) pdf and CDF; at P = 0 it is 0 for m > 1 and
    +inf for m < 1.  Used as the reference when the surrogate density is
    assessed.
    """
    z = _powers(p_star)
    _, tail, density = gamma_power_law(model.m, z)
    bracket = np.exp((model.b - 1) * np.log1p(-model.p * tail))
    return _like(p_star, model.b * model.p * density * bracket / model.prob_any())


# =====================================================================
#  Spectral-efficiency bounds
# =====================================================================

def se_lower(model: SparseModel, rho: float) -> float:
    """No-fading lower expression: (1 - (1-p)^B) * ln(1 + rho).

    Treats every occupied pair as carrying exactly its mean power.  Note
    this is a true lower bound only when selection gain dominates the
    fading (Jensen) penalty; in the very sparse high-SNR regime it can
    exceed the exact spectral efficiency.
    """
    if not rho > 0.0:
        raise ValueError(f"rho must be > 0, got {rho!r}")
    return model.prob_any() * math.log1p(rho)


def se_sparse_approx(lambda0: float, rho: float) -> float:
    """Common small-lambda0 envelope of both bounds: lambda0 * ln(1 + rho)."""
    if not (math.isfinite(lambda0) and lambda0 >= 0.0):
        raise ValueError(f"lambda0 must be finite and >= 0, got {lambda0!r}")
    if not rho > 0.0:
        raise ValueError(f"rho must be > 0, got {rho!r}")
    return lambda0 * math.log1p(rho)


def se_upper_rayleigh(model: SparseModel, rho: float) -> float:
    """Closed-form large-B upper expression for Rayleigh (m = 1) fading.

    p B [ e^{1/rho} E1(1/rho) - (1 - e^{-lambda0})/2 * e^{2/rho} E1(2/rho) ],
    derived for p ~ lambda0/B; intended for the sparse regime.
    """
    if not rho > 0.0:
        raise ValueError(f"rho must be > 0, got {rho!r}")
    lam0 = model.lambda0
    return model.p * model.b * (
        exp_e1_scaled(1.0 / rho)
        - 0.5 * (-math.expm1(-lam0)) * exp_e1_scaled(2.0 / rho)
    )


def se_upper_nakagami(
    model: SparseModel | Sequence[SparseModel], rho: float | Sequence[float]
) -> float | np.ndarray:
    """Upper bound on SE under Nakagami-m fading (nats per channel use).

    The Gamma power of an occupied pair is replaced by the surrogate CDF
    (1 - e^{-a P})^shape with shape = floor(m) for m >= 1 (the max of
    floor(m) exponentials, which stochastically dominates the Gamma power)
    and shape = m for m < 1.  The bound is the SE of that surrogate model,
    evaluated by tanh-sinh quadrature (``specfun.de_quad``); raises
    :class:`NumericalError` when its error estimate exceeds 1e-7 relative.

    ``model`` and ``rho`` may be equal-length sequences of points: the
    points are one row-batched quadrature and the result is an array, each
    element the bits of that point's own call.  A sequence raises the
    ``ValueError`` of its first rho <= 0, else the ``NumericalError`` of its
    first point whose quadrature fails, with that point's position as the
    error's ``index``.
    """
    models = [model] if isinstance(model, SparseModel) else list(model)
    rhos = [rho] if np.ndim(rho) == 0 else list(rho)
    for r in rhos:
        if not r > 0.0:
            raise ValueError(f"rho must be > 0, got {r!r}")
    if len(models) != len(rhos):
        raise ValueError(f"{len(models)} models do not pair with {len(rhos)} rho values")
    shapes = [float(math.floor(mdl.m)) if mdl.m >= 1.0 else mdl.m for mdl in models]
    values, errors = _upper_bound_quadrature(
        [mdl.p for mdl in models], [mdl.b for mdl in models], shapes, rhos
    )
    for index, (value, err) in enumerate(zip(values.tolist(), errors.tolist())):
        if not (math.isfinite(err) and err <= 1e-7 * max(abs(value), 1e-12)):
            exc = NumericalError(
                f"se_upper_nakagami: quadrature failed to converge (estimate {value!r}, "
                f"error {err!r})"
            )
            exc.index = index
            raise exc
    return float(values[0]) if isinstance(model, SparseModel) and np.ndim(rho) == 0 else values


def _upper_bound_quadrature(
    p: list[float], b: list[int], shape: list[float], rho: list[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Row-batched quadrature of the surrogate-density SE integrand, one row
    per point: the ``de_quad`` values and error estimates.

    Substituting y = (1 - e^{-aP})^shape turns the integrand into
    p B ln(1 + rho P(y)) (1 - p(1-y))^{B-1} on (0, 1), which is smooth up
    to a log singularity of P at y = 1 and free of the endpoint singularity
    the raw form has for shape < 1.  The quadrature supplies c = 1 - y
    beside y; near y = 1, 1 - y^(1/shape) is formed as
    -expm1(log1p(-c)/shape), so the log never sees a y rounded to 1.
    """
    # per-row columns, each formed as a one-row call's scalar arithmetic forms it
    columns = np.array([
        [1.0 / s for s in shape],
        [surrogate_rate(s) for s in shape],
        [pr * br for pr, br in zip(p, b)],
        [float(br - 1) for br in b],
        p,
        rho,
    ], dtype=float)

    def integrand(y: np.ndarray, c: np.ndarray, rows: list[int]) -> np.ndarray:
        inv_shape, a, pb, b_less_one, p, rho = columns[:, rows, np.newaxis]
        # P(y) = -ln(1 - y^(1/shape)) / a, from whichever of y, c is small
        # (the clamp is a no-op unless y rounds above 1/2 where c does not
        # fall below it).  Inputs near the float range overflow here; the
        # non-finite result fails the caller's convergence check, which
        # reports it once, so numpy's per-operation warnings are silenced.
        near_one = c < 0.5
        near_zero = ~near_one
        power = np.empty((len(rows), y.size))
        with np.errstate(all="ignore"):
            power[:, near_one] = -np.log(-np.expm1(np.log1p(-c[near_one]) * inv_shape))
            power[:, near_zero] = -np.log1p(-(np.minimum(y[near_zero], 0.5) ** inv_shape))
            # p B ln(1 + rho P) (1 - p c)^(B-1), in place on the (rows x nodes) arrays
            power /= a
            power *= rho
            np.log1p(power, out=power)
            power *= pb
            tail = np.log1p(-p * c)
            tail *= b_less_one
            power *= np.exp(tail, out=tail)
            return power

    return de_quad(integrand, 0.0, 1.0, rtol=1e-11, atol=1e-13, rows=len(p))
