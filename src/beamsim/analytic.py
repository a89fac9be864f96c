"""Closed-form statistics of the optimally beamformed link.

Under the sparse-occupancy approximation each of the B beam pairs holds a
multipath component independently with probability p = 1 - exp(-lambda0/B),
and an occupied pair carries a single unit-mean Gamma(m, 1/m) fading power.
The normalized optimal power is the maximum over pairs, a mixed random
variable with an atom at zero (all pairs empty).  This module provides its
conditional CDF, a proper surrogate density built from the exponential-power
CDF approximation (1 - e^{-a x})^m of the Gamma CDF, and four
spectral-efficiency expressions:

* an upper bound for Nakagami-m fading (integer-shape surrogate, evaluated
  by double-exponential (tanh-sinh) quadrature, ``specfun.de_quad``; the
  closed binomial mixture of exponential order statistics is kept only as
  a small-B oracle in ``validation``),
* a simplified large-B upper bound for Rayleigh fading,
* a no-fading lower bound,
* and the common small-lambda0 limit of both, lambda0 * ln(1 + rho).

All spectral efficiencies are unconditional (the all-empty event
contributes zero rate) and in nats per channel use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beam import BeamGrid
from .channel import LinkBudget
from .errors import NumericalError
from .specfun import de_quad, exp_e1_scaled, ln_gamma


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
        if self.m < 0.5:
            raise ValueError(f"Nakagami shape must be >= 0.5, got {self.m!r}")
        if not self.lambda0 > 0.0:
            raise ValueError(f"lambda0 must be > 0, got {self.lambda0!r}")

    @classmethod
    def from_occupancy(cls, lambda0: float, b: int, m: float) -> "SparseModel":
        if not lambda0 > 0.0:
            raise ValueError(f"lambda0 must be > 0, got {lambda0!r}")
        if b < 1:
            raise ValueError(f"pair count must be >= 1, got {b!r}")
        return cls(p=bernoulli_p(lambda0, b), b=int(b), m=float(m), lambda0=float(lambda0))

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


@dataclass(frozen=True)
class SnrScale:
    """Linear SNR scales of the link.

    ``rho`` multiplies the normalized optimal power inside ln(1 + rho P);
    ``k`` is the per-beam scale with rho = B * k for sectored grids (the
    gain product of a sectored grid always equals B).
    """

    rho: float
    k: float

    def __post_init__(self) -> None:
        if not self.rho > 0.0 or not self.k > 0.0:
            raise ValueError("SNR scales must be positive")


def bernoulli_p(lambda0: float, b: int) -> float:
    """Per-pair occupancy probability p = 1 - exp(-lambda0/b)."""
    if not lambda0 > 0.0:
        raise ValueError(f"lambda0 must be > 0, got {lambda0!r}")
    if b < 1:
        raise ValueError(f"pair count must be >= 1, got {b!r}")
    return -math.expm1(-lambda0 / b)


def snr_scale(link: LinkBudget, grid: BeamGrid) -> SnrScale:
    """SNR scales implied by a link budget and a sectored beam grid."""
    k = link.path_gain / (link.lambda0 * link.noise_power)
    return SnrScale(rho=k * grid.gain_t * grid.gain_r, k=k)


# =====================================================================
#  Distribution of the normalized optimal power
# =====================================================================

def _gamma_cdf(m: float, x: float) -> float:
    from .specfun import reg_lower_gamma

    return reg_lower_gamma(m, x)


def opt_power_cdf(p_star: float, model: SparseModel) -> float:
    """Conditional CDF of the normalized optimal power, given >= 1 path.

    F(P) = [ (1 - p(1 - G(P)))^B - (1-p)^B ] / (1 - (1-p)^B) with G the
    Gamma(m, 1/m) CDF; evaluated with the exact regularized incomplete
    gamma, stabilized through log1p/expm1.
    """
    if p_star < 0.0:
        raise ValueError(f"power must be >= 0, got {p_star!r}")
    if p_star == 0.0:
        return 0.0
    g = _gamma_cdf(model.m, model.m * p_star)
    log_all = model.log_all_empty()
    num = math.exp(model.b * math.log1p(-model.p * (1.0 - g))) - math.exp(log_all)
    den = -math.expm1(log_all)
    return min(1.0, max(0.0, num / den))


def surrogate_rate(m: float) -> float:
    """Exponential rate a = m * Gamma(m+1)^(-1/m) of the power surrogate.

    (1 - e^{-a x})^m matches the Gamma(m, 1/m) CDF from below and is exact
    at m = 1.
    """
    return m * math.exp(-ln_gamma(m + 1.0) / m)


def opt_power_pdf_bound(p_star: float, model: SparseModel) -> float:
    """Density of the surrogate optimal-power model (conditional on >= 1 path).

    Replaces the Gamma CDF by (1 - e^{-a P})^m with a = m Gamma(m+1)^(-1/m);
    the result is a proper density (integrates to 1) that upper-bounds the
    spectral efficiency when pushed through ln(1 + rho P).  For m < 1 the
    density diverges (integrably) at P = 0 and +inf is returned there.
    """
    if p_star < 0.0:
        raise ValueError(f"power must be >= 0, got {p_star!r}")
    m, p, b = model.m, model.p, model.b
    a = surrogate_rate(m)
    if p_star == 0.0 and m != 1.0:
        return 0.0 if m > 1.0 else math.inf
    u = -math.expm1(-a * p_star)
    lead = m * a * p * b / model.prob_any()
    shape_term = 1.0 if m == 1.0 else u ** (m - 1.0)
    bracket = math.exp((b - 1) * math.log1p(-p * (1.0 - u**m)))
    return lead * shape_term * bracket * math.exp(-a * p_star)


def opt_power_pdf_exact(p_star: float, model: SparseModel) -> float:
    """Exact conditional density matching :func:`opt_power_cdf`.

    f(P) = B p m g(mP) (1 - p(1 - G(P)))^{B-1} / (1 - (1-p)^B) with g and
    G the unit-scale Gamma(m) pdf and CDF.  Used as the reference when the
    surrogate density is assessed.
    """
    if p_star < 0.0:
        raise ValueError(f"power must be >= 0, got {p_star!r}")
    m, p, b = model.m, model.p, model.b
    if p_star == 0.0:
        if m > 1.0:
            return 0.0
        if m < 1.0:
            return math.inf
        gamma_pdf = 1.0
        bracket = math.exp((b - 1) * math.log1p(-p))
        return b * p * gamma_pdf * bracket / model.prob_any()
    x = m * p_star
    gamma_pdf = math.exp((m - 1.0) * math.log(x) - x - ln_gamma(m))
    g = _gamma_cdf(m, x)
    bracket = math.exp((b - 1) * math.log1p(-p * (1.0 - g)))
    return b * p * m * gamma_pdf * bracket / model.prob_any()


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
    if lambda0 < 0.0:
        raise ValueError(f"lambda0 must be >= 0, got {lambda0!r}")
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


def se_upper_nakagami(model: SparseModel, rho: float) -> float:
    """Upper bound on SE under Nakagami-m fading (nats per channel use).

    The Gamma power of an occupied pair is replaced by the surrogate CDF
    (1 - e^{-a P})^shape with shape = floor(m) for m >= 1 (the max of
    floor(m) exponentials, which stochastically dominates the Gamma power)
    and shape = m for m < 1.  The bound is the SE of that surrogate model,
    evaluated by tanh-sinh quadrature (``specfun.de_quad``); raises
    :class:`NumericalError` when its error estimate exceeds 1e-7 relative.
    """
    if not rho > 0.0:
        raise ValueError(f"rho must be > 0, got {rho!r}")
    shape = float(math.floor(model.m)) if model.m >= 1.0 else model.m
    return _upper_bound_quadrature(model.p, model.b, shape, surrogate_rate(shape), rho)


def _upper_bound_quadrature(
    p: float, b: int, shape: float, a: float, rho: float
) -> float:
    """Quadrature of the surrogate-density SE integrand.

    Substituting y = (1 - e^{-aP})^shape turns the integrand into
    p B ln(1 + rho P(y)) (1 - p(1-y))^{B-1} on (0, 1), which is smooth up
    to a log singularity of P at y = 1 and free of the endpoint singularity
    the raw form has for shape < 1.  The quadrature supplies c = 1 - y
    beside y; near y = 1, 1 - y^(1/shape) is formed as
    -expm1(log1p(-c)/shape), so the log never sees a y rounded to 1.
    """
    inv_shape = 1.0 / shape

    def integrand(y: np.ndarray, c: np.ndarray) -> np.ndarray:
        # P(y) = -ln(1 - y^(1/shape)) / a, from whichever of y, c is small;
        # the clamps keep the branch np.where discards finite.
        near_one = -np.log(-np.expm1(np.log1p(-np.minimum(c, 0.5)) * inv_shape))
        near_zero = -np.log1p(-(np.minimum(y, 0.5) ** inv_shape))
        power = np.where(c < 0.5, near_one, near_zero) / a
        return p * b * np.log1p(rho * power) * np.exp((b - 1) * np.log1p(-p * c))

    value, err = de_quad(integrand, 0.0, 1.0, rtol=1e-11, atol=1e-13)
    if not (math.isfinite(err) and err <= 1e-7 * max(abs(value), 1e-12)):
        raise NumericalError(
            f"se_upper_nakagami: quadrature failed to converge (estimate {value!r}, "
            f"error {err!r})"
        )
    return value
