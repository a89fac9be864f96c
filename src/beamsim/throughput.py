"""Beam-training overhead, throughput objective, and optimal beam count.

With M_t = M_r = sqrt(B) beams per node, an exhaustive sector-level sweep
plus refinement costs T_o = 2 (2 sqrt(B) + N_b^2) T_f of control-frame
time out of each coherence interval T.  Throughput is the no-fading
spectral-efficiency expression scaled by the residual data fraction:

    TP(B) = (1 - F_t (2 sqrt(B) + N_b^2)) * (1 - e^{-lambda0}) * ln(1 + B K)

with F_t = 2 T_f / T and K the per-beam SNR scale.  The throughput-optimal
beam count solves a one-dimensional stationarity equation; an approximate
closed form follows from (1+x) ln(1+x) ~ x sqrt(x), which is usable for
moderate B*K but degrades badly when B*K is large.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ApproximationInvalidError, InfeasibleConfigError
from .specfun import brent_root

SPEED_OF_LIGHT = 299_792_458.0
# Largest 1/F_t whose square, the planner's upper bracket, is a finite float.
_MAX_INV_F_T = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class ThroughputConfig:
    """Overhead and link parameters of the beam-count planner.

    ``t_f`` is the control-frame duration, ``t_total`` the coherence
    interval shared by training and data, ``n_b`` the beam-refinement
    parameter, ``k`` the per-beam linear SNR scale, and ``lambda0`` the
    mean total path count.
    """

    t_f: float
    t_total: float
    k: float
    lambda0: float
    n_b: int = 4

    def __post_init__(self) -> None:
        for key in ("t_f", "t_total", "k", "lambda0"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{key} must be finite and > 0, got {value!r}")
        if self.n_b < 1:
            raise ValueError(f"n_b must be >= 1, got {self.n_b!r}")
        # The overhead terms take N_b^2 as a float.
        if self.n_b**2 > sys.float_info.max:
            raise ValueError(f"n_b must have a square below {sys.float_info.max:g}, got {self.n_b!r}")
        if not math.isfinite(self.f_t):
            raise ValueError(
                f"the overhead ratio F_t = 2 t_f / t_total overflows (t_f={self.t_f!r}, "
                f"t_total={self.t_total!r})"
            )
        # The planner searches B on [1, (1/F_t)^2]; that bracket must be finite.
        if not (self.f_t > 0.0 and 1.0 / self.f_t < _MAX_INV_F_T):
            raise ValueError(
                f"t_total must be < {2.0 * _MAX_INV_F_T:.4g} * t_f so that the planner "
                f"bracket (1/F_t)^2 is finite, got t_total={self.t_total!r}, t_f={self.t_f!r}"
            )

    @property
    def f_t(self) -> float:
        """Overhead ratio 2 T_f / T."""
        return 2.0 * self.t_f / self.t_total


def _require_square(b: int) -> int:
    if b < 1:
        raise ValueError(f"beam pair count must be >= 1, got {b!r}")
    root = math.isqrt(int(b))
    if root * root != int(b):
        raise ValueError(
            f"beam pair count must be a perfect square (M_t = M_r), got {b!r}"
        )
    return int(b)


def throughput_continuous(b: float, cfg: ThroughputConfig) -> float:
    """Throughput objective with B treated as a continuous variable."""
    if not b >= 1.0:
        raise ValueError(f"beam pair count must be >= 1, got {b!r}")
    prefactor = 1.0 - cfg.f_t * (2.0 * math.sqrt(b) + cfg.n_b**2)
    x = b * cfg.k
    # where B K overflows, ln(1 + B K) is ln B + ln K to the last digit
    rate = math.log1p(x) if x < math.inf else math.log(b) + math.log(cfg.k)
    return prefactor * (-math.expm1(-cfg.lambda0)) * rate


def throughput(b: int, cfg: ThroughputConfig) -> float:
    """Effective rate left after training for a square beam grid.

    Negative when the training sweep exceeds the coherence interval; the
    signed value is returned so callers can run feasibility logic
    (display layers clamp at zero).
    """
    return throughput_continuous(float(_require_square(b)), cfg)


def feasible_region(cfg: ThroughputConfig) -> tuple[float, float] | None:
    """Interval of B with positive residual data time, or None if empty.

    The sweep fits the coherence interval iff F_t (2 sqrt(B) + N_b^2) < 1,
    i.e. B < ((1/F_t - N_b^2) / 2)^2; the interval is [1, B_max] clipped
    to B >= 1.
    """
    inv = 1.0 / cfg.f_t
    if inv <= cfg.n_b**2:
        return None
    b_max = ((inv - cfg.n_b**2) / 2.0) ** 2
    if b_max < 1.0:
        return None
    return (1.0, b_max)


def _stationarity_lhs(b: float, k: float) -> float:
    """(1 + BK) ln(1 + BK) / (K sqrt(B)), the left side of the stationarity equation."""
    x = b * k
    lhs = (1.0 + x) * math.log1p(x) / (k * math.sqrt(b))
    # where a term overflows, lhs is sqrt(B) (ln B + ln K) to the last digit
    return lhs if math.isfinite(lhs) else math.sqrt(b) * (math.log(b) + math.log(k))


def _stationarity_gap(b: float, cfg: ThroughputConfig) -> float:
    """Increasing function of B whose root is the throughput maximizer."""
    return _stationarity_lhs(b, cfg.k) - (1.0 / cfg.f_t - (2.0 * math.sqrt(b) + cfg.n_b**2))


def optimal_b_numeric(cfg: ThroughputConfig) -> float:
    """Continuous throughput-maximizing beam count via bracketed root finding.

    Raises :class:`InfeasibleConfigError` when no beam count achieves
    positive throughput.  The root of the stationarity equation is found
    on [1, F_t^-2] by Brent's method (``specfun.brent_root``), refined to
    ~1e-12 relative tolerance.  It is the maximizer: TP'(B) is
    -(1 - e^{-lambda0}) F_t K / (1 + B K) times the stationarity gap, which
    is strictly increasing in B, so TP rises below the root and falls above.
    The bracket always holds the root: the gap at 1 is < 0 (checked first),
    and at F_t^-2, where its right-hand side is -(1/F_t + N_b^2), it is > 0.
    Brent's ``ConvergenceError`` passes through as it is.
    """
    if feasible_region(cfg) is None:
        raise InfeasibleConfigError(
            "training alone exceeds the coherence interval for every B >= 1"
        )
    if _stationarity_gap(1.0, cfg) >= 0.0:
        # Throughput is already decreasing at B = 1.
        return 1.0
    return brent_root(lambda b: _stationarity_gap(b, cfg), 1.0, (1.0 / cfg.f_t) ** 2)


def optimal_b_closed_form(cfg: ThroughputConfig) -> float:
    """Approximate optimizer from the quadratic in sqrt(B).

    Applies (1+x) ln(1+x) ~ x sqrt(x) to the stationarity equation, giving
    F_t sqrt(K) B + 2 F_t sqrt(B) + N_b^2 F_t - 1 = 0.  Raises
    :class:`ApproximationInvalidError` when the discriminant is not
    positive or the root is B* < 1 (less than one beam pair, as happens
    where training barely or no longer fits the coherence interval).
    Accuracy degrades as B*K grows; prefer :func:`optimal_b_numeric`
    outside the moderate-B*K regime.
    """
    ft = cfg.f_t
    sqrt_k = math.sqrt(cfg.k)
    disc = (1.0 - sqrt_k * cfg.n_b**2) * ft * ft + sqrt_k * ft
    # F_t^2 overflows to +inf only where 1 - sqrt(K) N_b^2 > 0, and there the
    # root sqrt(B*) is negative
    if not 0.0 < disc < math.inf:
        raise ApproximationInvalidError(
            f"closed-form discriminant is nonpositive or overflows ({disc!r}); "
            "the quadratic approximation does not apply"
        )
    sqrt_b = (-ft + math.sqrt(disc)) / (ft * sqrt_k)
    if not sqrt_b >= 1.0:
        raise ApproximationInvalidError(
            f"closed-form root sqrt(B*) = {sqrt_b!r} is below 1 (no beam grid); "
            "the approximation does not apply"
        )
    return sqrt_b * sqrt_b


def optimal_hpbw(b_star: float) -> float:
    """Half-power beamwidth (degrees) of the grid realizing ``b_star`` pairs."""
    if not b_star >= 1.0:
        raise ValueError(f"beam pair count must be >= 1, got {b_star!r}")
    return 360.0 / math.sqrt(b_star)


def best_square_b(cfg: ThroughputConfig) -> int:
    """Best admissible integer perfect-square beam count near the optimum."""
    b_star = optimal_b_numeric(cfg)
    root = max(1, math.isqrt(int(round(b_star))))
    candidates = {max(1, root - 1), root, root + 1}
    return max(
        (r * r for r in candidates),
        key=lambda b: throughput(b, cfg),
    )


def coherence_time(velocity: float, carrier_freq: float) -> float:
    """Channel coherence time T_c = 9 / (16 pi f_D), Doppler f_D = v f_c / c.

    Clarke's rule of thumb, the one mobility model the planner uses.  It is
    a stand-in: outdoor beam-level channel dynamics are not settled.
    """
    if not (math.isfinite(velocity) and velocity > 0.0):
        raise ValueError(f"velocity must be finite and > 0, got {velocity!r}")
    if not (math.isfinite(carrier_freq) and carrier_freq > 0.0):
        raise ValueError(f"carrier_freq must be finite and > 0, got {carrier_freq!r}")
    doppler = velocity * carrier_freq / SPEED_OF_LIGHT
    if doppler == 0.0:
        raise ValueError(
            f"the Doppler shift velocity * carrier_freq / c underflows to 0 (velocity = {velocity!r}, "
            f"carrier_freq = {carrier_freq!r})"
        )
    return 9.0 / (16.0 * math.pi * doppler)


def throughput_curve(
    b_values: np.ndarray | list[float], cfg: ThroughputConfig
) -> np.ndarray:
    """:func:`throughput_continuous` at each of a grid of beam counts."""
    b = np.asarray(b_values, dtype=float)
    return np.array([throughput_continuous(float(v), cfg) for v in b.flat]).reshape(b.shape)
