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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ApproximationInvalidError, InfeasibleConfigError, NumericalError
from .specfun import brent_root

SPEED_OF_LIGHT = 299_792_458.0


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


def training_overhead(b: int, cfg: ThroughputConfig) -> float:
    """Beam-training time 2 (2 sqrt(B) + N_b^2) T_f, in seconds."""
    b = _require_square(b)
    return 2.0 * (2.0 * math.sqrt(b) + cfg.n_b**2) * cfg.t_f


def throughput_continuous(b: float, cfg: ThroughputConfig) -> float:
    """Throughput objective with B treated as a continuous variable."""
    if not b >= 1.0:
        raise ValueError(f"beam pair count must be >= 1, got {b!r}")
    prefactor = 1.0 - cfg.f_t * (2.0 * math.sqrt(b) + cfg.n_b**2)
    return prefactor * (-math.expm1(-cfg.lambda0)) * math.log1p(b * cfg.k)


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


def _stationarity_gap(b: float, cfg: ThroughputConfig) -> float:
    """Increasing function of B whose root is the throughput maximizer."""
    x = b * cfg.k
    lhs = (1.0 + x) * math.log1p(x) / (cfg.k * math.sqrt(b))
    rhs = 1.0 / cfg.f_t - (2.0 * math.sqrt(b) + cfg.n_b**2)
    return lhs - rhs


def optimal_b_numeric(cfg: ThroughputConfig) -> float:
    """Continuous throughput-maximizing beam count via bracketed root finding.

    Raises :class:`InfeasibleConfigError` when no beam count achieves
    positive throughput.  The root of the stationarity equation is found
    on [1, F_t^-2] by Brent's method (``specfun.brent_root``), refined to
    ~1e-12 relative tolerance, and then verified to be a local maximum.
    """
    if feasible_region(cfg) is None:
        raise InfeasibleConfigError(
            "training alone exceeds the coherence interval for every B >= 1"
        )
    if _stationarity_gap(1.0, cfg) >= 0.0:
        # Throughput is already decreasing at B = 1.
        return 1.0
    hi = (1.0 / cfg.f_t) ** 2
    try:
        b_star = brent_root(lambda b: _stationarity_gap(b, cfg), 1.0, hi, rtol=1e-12, maxiter=200)
    except NumericalError as exc:
        raise NumericalError(f"optimal_b_numeric: {exc}") from exc
    tp_star = throughput_continuous(b_star, cfg)
    for probe in (b_star * (1.0 - 1e-3), b_star * (1.0 + 1e-3)):
        if probe >= 1.0 and throughput_continuous(probe, cfg) > tp_star * (1.0 + 1e-9) + 1e-15:
            raise NumericalError(
                "optimal_b_numeric: stationary point failed the maximum check"
            )
    return float(b_star)


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
    if disc <= 0.0:
        raise ApproximationInvalidError(
            f"closed-form discriminant is nonpositive ({disc!r}); "
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


# =====================================================================
#  Coherence-time models
# =====================================================================

CoherenceTimeModel = Callable[[float, float], float]

_COHERENCE_MODELS: dict[str, CoherenceTimeModel] = {}


def register_coherence_time_model(tag: str, fn: CoherenceTimeModel) -> None:
    """Register ``fn(velocity, carrier_freq) -> seconds`` under ``tag``."""
    _COHERENCE_MODELS[tag] = fn


def coherence_time_models() -> tuple[str, ...]:
    return tuple(sorted(_COHERENCE_MODELS))


def coherence_time(velocity: float, carrier_freq: float, model_tag: str = "clarke") -> float:
    """Channel coherence time under a registered mobility model.

    The default "clarke" model is the usual rule of thumb
    T_c = 9 / (16 pi f_D) with Doppler f_D = v f_c / c.  It is a stand-in:
    outdoor beam-level channel dynamics are not settled, so alternative
    models can be registered and selected by tag.
    """
    if not velocity > 0.0:
        raise ValueError(f"velocity must be > 0, got {velocity!r}")
    if not carrier_freq > 0.0:
        raise ValueError(f"carrier_freq must be > 0, got {carrier_freq!r}")
    try:
        model = _COHERENCE_MODELS[model_tag]
    except KeyError:
        raise ValueError(
            f"unknown coherence-time model {model_tag!r}; "
            f"registered: {coherence_time_models()}"
        ) from None
    return model(velocity, carrier_freq)


def _clarke(velocity: float, carrier_freq: float) -> float:
    doppler = velocity * carrier_freq / SPEED_OF_LIGHT
    return 9.0 / (16.0 * math.pi * doppler)


register_coherence_time_model("clarke", _clarke)


def throughput_curve(
    b_values: np.ndarray | list[float], cfg: ThroughputConfig
) -> np.ndarray:
    """Vectorized continuous throughput over a grid of beam counts."""
    b = np.asarray(b_values, dtype=float)
    if (b < 1.0).any():
        raise ValueError("beam pair counts must be >= 1")
    prefactor = 1.0 - cfg.f_t * (2.0 * np.sqrt(b) + cfg.n_b**2)
    return prefactor * (-math.expm1(-cfg.lambda0)) * np.log1p(b * cfg.k)
