"""NLOS mmWave link modeling under optimal analog beamforming.

Fading laws of the sparse multipath channel, a Monte Carlo engine for the
spectral efficiency of the power-maximizing beam pair, closed-form
spectral-efficiency bounds, and a beam-count planner that trades training
overhead against beamforming gain.
"""

import os as _os

__version__ = "0.1.0"

# OpenBLAS starts a worker-thread pool while numpy loads, and beamsim never
# uses it: its only BLAS call is a dot product over at most a few thousand
# quadrature nodes, and its parallelism is its own BEAMSIM_THREADS chunk
# workers.  Starting that pool made `import numpy` take 146-179 ms against
# 63-88 ms single-threaded (fresh processes on a 2-core VM), so cap it at one
# thread before the first numpy import.  A thread count the user set in any
# variable OpenBLAS reads wins.  The variable stays in os.environ, so child
# processes inherit it.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if not any(var in _os.environ for var in _BLAS_THREAD_VARS):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .analytic import (
    SparseModel,
    bernoulli_p,
    opt_power_cdf,
    opt_power_pdf_bound,
    opt_power_pdf_exact,
    se_lower,
    se_sparse_approx,
    se_upper_nakagami,
    se_upper_rayleigh,
)
from .channel import FadingFamily, FadingModel, rician_k_to_nakagami_m
from .errors import (
    ApproximationInvalidError,
    BeamsimError,
    ConfigError,
    ConvergenceError,
    DegenerateSampleError,
    InfeasibleConfigError,
    NumericalError,
)
from .montecarlo import (
    EmpiricalCdf,
    SEEstimate,
    SimConfig,
    empirical_opt_power_cdf,
    estimate_se,
)
from .rng import child_seed, substream
from .specfun import exp_e1_scaled, exp_integral_e1, ln_gamma, reg_lower_gamma

# The throughput() function itself stays at beamsim.throughput.throughput so
# the submodule name is not shadowed at package level.
from .throughput import (
    ThroughputConfig,
    best_square_b,
    coherence_time,
    feasible_region,
    optimal_b_closed_form,
    optimal_b_numeric,
    optimal_hpbw,
    throughput_continuous,
    throughput_curve,
)

__all__ = [name for name in dir() if not name.startswith("_")]
