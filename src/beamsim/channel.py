"""Fading laws of the sparse multipath channel and their power draws.

The propagation model is a per-beam-pair view of an extended
Saleh-Valenzuela channel: with ``B`` transmit/receive beam pairs and a
mean total path count ``lambda0``, each pair independently holds a
Poisson(lambda0 / B) number of multipath components, and every component
carries an i.i.d. small-scale fading power normalized to unit mean.  The
large-scale link budget (path loss, noise) enters only through the SNR
scale rho that the Monte Carlo engine and the bounds take, so fading
powers here are dimensionless.  This module holds the fading families,
the Rician-K to Nakagami-m moment mapping, and the two draws the engine
makes: a pair's summed power in one draw, and the largest of k
single-path powers from one uniform.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np


def _finite_at_least(value: float | None, low: float) -> bool:
    return value is not None and math.isfinite(value) and value >= low


class FadingFamily(enum.Enum):
    NAKAGAMI_M = "nakagami_m"
    RAYLEIGH = "rayleigh"
    RICIAN_K = "rician_k"


@dataclass(frozen=True)
class FadingModel:
    """Small-scale fading family plus its parameter.

    ``parameter`` is the finite Nakagami shape m (>= 0.5) for NAKAGAMI_M,
    the finite linear Rician factor K (>= 0) for RICIAN_K, and unused for
    RAYLEIGH.
    """

    family: FadingFamily
    parameter: float | None = None

    def __post_init__(self) -> None:
        if self.family is FadingFamily.NAKAGAMI_M:
            if not _finite_at_least(self.parameter, 0.5):
                raise ValueError(
                    f"Nakagami shape must be finite and >= 0.5, got {self.parameter!r}"
                )
        elif self.family is FadingFamily.RICIAN_K:
            if not _finite_at_least(self.parameter, 0.0):
                raise ValueError(
                    f"Rician K factor must be finite and >= 0, got {self.parameter!r}"
                )
            rician_k_to_nakagami_m(self.parameter)  # the analytic bounds need it finite

    @classmethod
    def nakagami(cls, m: float) -> "FadingModel":
        return cls(FadingFamily.NAKAGAMI_M, float(m))

    @classmethod
    def rayleigh(cls) -> "FadingModel":
        return cls(FadingFamily.RAYLEIGH)

    @classmethod
    def rician(cls, k_linear: float) -> "FadingModel":
        return cls(FadingFamily.RICIAN_K, float(k_linear))

    def effective_nakagami_m(self) -> float:
        """Nakagami shape to use when a Gamma-power analytic model is needed."""
        if self.family is FadingFamily.NAKAGAMI_M:
            return float(self.parameter)  # type: ignore[arg-type]
        if self.family is FadingFamily.RAYLEIGH:
            return 1.0
        return rician_k_to_nakagami_m(float(self.parameter))  # type: ignore[arg-type]


def rician_k_to_nakagami_m(k_linear: float) -> float:
    """Moment-matched Nakagami shape for a Rician factor K: (K+1)^2/(2K+1)."""
    if k_linear < 0.0:
        raise ValueError(f"K must be >= 0, got {k_linear!r}")
    try:
        return (k_linear + 1.0) ** 2 / (2.0 * k_linear + 1.0)
    except OverflowError:
        raise ValueError(
            f"Rician K factor {k_linear!r} is too large: its moment-matched Nakagami shape overflows"
        ) from None


def sample_pair_power_sums(
    model: FadingModel, counts: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Summed normalized power for pairs holding ``counts`` paths each, every
    count >= 1.

    Uses the additivity of the per-family power laws: a sum of n
    Gamma(m, 1/m) powers (Rayleigh: m = 1) is Gamma(n*m, 1/m), and a sum of
    n Rician powers is noncentral chi-square with 2n degrees of freedom and
    noncentrality 2nK (same 1/(2(1+K)) scale).
    """
    n = np.asarray(counts, dtype=float)
    if model.family is not FadingFamily.RICIAN_K:
        m = model.effective_nakagami_m()
        sums = rng.standard_gamma(m * n)
        sums *= 1.0 / m
        return sums
    k = float(model.parameter)  # type: ignore[arg-type]
    return rng.noncentral_chisquare(2.0 * n, 2.0 * k * n) / (2.0 * (1.0 + k))


@functools.cache
def max_power_table(model: FadingModel) -> tuple[float, float, np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """The quantile table :func:`sample_max_path_power` reads for ``model``,
    built on its first use in the process by :func:`beamsim.quantile.build`;
    None for Rayleigh, whose quantile is closed form."""
    if model.family is FadingFamily.RAYLEIGH:
        return None
    from . import quantile   # compiled only by runs that simulate these laws

    return quantile.build(model)


def sample_max_path_power(model: FadingModel, k1: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The largest of ``k1[i]`` i.i.d. normalized path powers, for each i,
    from one uniform u each; 0 where ``k1[i]`` is 0.

    The maximum of k i.i.d. powers with CDF F is F^-1(u^(1/k)) (the order
    statistic identity; Devroye 1986, ch. V).  Rayleigh inverts in closed
    form, -ln(1 - u^(1/k)); the other laws read the cubic Hermite table of
    :func:`max_power_table` (see :mod:`beamsim.quantile`) at
    xi = ln(s) + s, s = -ln(u) / k, whose relative error is below 1e-10
    (``tests/test_channel.py`` holds it to 1e-9 against scipy).  u = 0
    gives 0, and u < 1 keeps the power finite.
    """
    table = max_power_table(model)
    u = rng.random(len(k1))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(u, out=u)
        np.divide(u, k1, out=u)        # ln v = ln(u) / k, -inf for k = 0
        if table is None:
            # Rayleigh: -ln(1 - v) as -ln(-expm1(ln v)), which loses digits only
            # for v < e^-15 (relative error ~1e-16 / v); -ln1p(-v) there
            small = u < -15.0
            v_small = u[small]
            np.expm1(u, out=u)
            np.negative(u, out=u)
            np.log(u, out=u)
            np.negative(u, out=u)
            u[small] = -np.log1p(-np.exp(v_small))
            return u
        xi_min, xi_step, c0, c1, c2, c3 = table
        np.negative(u, out=u)          # s
        t = np.log(u)
        t += u
        t -= xi_min
        t *= 1.0 / xi_step
    # t >= 0 as s is above the grid's least; s = inf (u = 0 or k = 0) reads
    # the last entry, ln 0
    np.minimum(t, len(c0) - 1.0, out=t)
    i = np.floor(t)
    t -= i
    i = i.astype(np.intp)
    z = c3.take(i, mode="clip")
    z *= t
    z += c2.take(i, mode="clip")
    z *= t
    z += c1.take(i, mode="clip")
    z *= t
    z += c0.take(i, mode="clip")
    return np.exp(z, out=z)
