"""The public names of ``beamsim``: a change to them has to change this list."""

import importlib

import pytest

import beamsim
from beamsim import channel, throughput

PUBLIC = [
    "ApproximationInvalidError", "BeamsimError", "ConfigError", "ConvergenceError",
    "DegenerateSampleError", "EmpiricalCdf", "FadingFamily", "FadingModel",
    "InfeasibleConfigError", "NumericalError", "SEEstimate", "SimConfig", "SparseModel",
    "ThroughputConfig", "analytic", "bernoulli_p", "best_square_b", "channel", "child_seed",
    "coherence_time", "empirical_opt_power_cdf", "errors", "estimate_se", "exp_e1_scaled",
    "exp_integral_e1", "feasible_region", "ln_gamma", "montecarlo", "opt_power_cdf",
    "opt_power_pdf_bound", "opt_power_pdf_exact", "optimal_b_closed_form", "optimal_b_numeric",
    "optimal_hpbw", "reg_lower_gamma", "rician_k_to_nakagami_m", "rng", "se_lower",
    "se_sparse_approx", "se_upper_nakagami", "se_upper_rayleigh", "specfun", "substream",
    "throughput", "throughput_continuous", "throughput_curve",
]

# the literal per-pair channel model and beam-grid bookkeeping, which no
# command used (tests/per_pair_reference.py draws that model for the tests),
# and training_overhead, which restated the planner's overhead fraction
REMOVED = [
    "BeamGrid", "BeamSelection", "ChannelRealization", "LinkBudget", "beam_grid",
    "pair_power_coefficient", "pair_received_power", "per_beam_intensity", "realize_channel",
    "sample_path_powers", "select_optimal_pair", "training_overhead",
]


def test_all_is_the_pinned_list():
    assert sorted(beamsim.__all__) == PUBLIC


def test_beam_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("beamsim.beam")


def test_removed_names_are_gone():
    modules = (beamsim, channel, throughput)
    assert [name for name in REMOVED if any(hasattr(module, name) for module in modules)] == []
