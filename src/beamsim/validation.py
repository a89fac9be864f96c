"""Built-in validation suite.

Eleven numbered end-to-end checks compare the analytic layer, the Monte
Carlo engine, and the planner against each other and against independent
oracles, each at a pinned tolerance.  ``run_validation`` executes them and
``render_report`` formats a deterministic pass/fail report (no wall-clock
content), so two runs with the same seed and trial budget are
byte-identical.

The library functions a check exercises are looked up on their modules at
call time (``specfun.reg_lower_gamma``, ``throughput.coherence_time``), so a
wrapper or a deliberately perturbed kernel put on the module is what the
check sees.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

import beamsim.throughput as throughput

from . import analytic, specfun
from .analytic import SparseModel
from .channel import FadingModel
from .errors import ConfigError, NumericalError
from .montecarlo import SEEstimate, SimConfig, empirical_opt_power_cdf, estimate_se
from .rng import child_seed

# Simulation parameters shared by the sweep-style checks.
SNR_COEFF = 0.01          # c d^-alpha / sigma^2
CONTROL_FRAME_S = 5e-6    # T_f


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str


def _rho(lambda0: float, b: int) -> float:
    return b * SNR_COEFF / lambda0


def _sim_se(lambda0: float, b: int, fading: FadingModel, trials: int, seed: int) -> SEEstimate:
    return estimate_se(SimConfig(lambda0, b, _rho(lambda0, b), fading, trials, seed))


def _integral(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float, rtol: float, atol: float
) -> float:
    """``specfun.de_quad`` of an integrand ``f(x)`` over [a, b] (b may be inf);
    a ``NumericalError`` unless its error estimate is within the tolerances."""
    value, err = specfun.de_quad(lambda x, c: f(x), a, b, rtol=rtol, atol=atol)
    if not err <= max(atol, rtol * abs(value)):
        raise NumericalError(
            f"oracle quadrature over [{a!r}, {b!r}] did not converge: {value!r} +- {err!r}"
        )
    return value


# =====================================================================
#  Criteria
# =====================================================================

def _c01_nakagami_bound_accuracy(seed: int, trials: int) -> CriterionResult:
    """Upper bound vs simulation across the lambda0 sweep at m = 3.2."""
    limits = {625: 0.10, 121: 0.13}
    fading = FadingModel.nakagami(3.2)
    details = []
    passed = True
    lam0s = [float(lam0) for lam0 in np.linspace(1.0, 3.5, 11)]
    for b, limit in limits.items():
        worst = 0.0
        models = [SparseModel.from_occupancy(lam0, b, 3.2) for lam0 in lam0s]
        uppers = analytic.se_upper_nakagami(models, [_rho(lam0, b) for lam0 in lam0s]).tolist()
        for j, (lam0, upper) in enumerate(zip(lam0s, uppers)):
            sim = _sim_se(lam0, b, fading, trials, child_seed(seed, 1, b, j)).mean
            worst = max(worst, abs(upper - sim) / sim)
        details.append(f"B={b}: max rel err {100 * worst:.2f}% (limit {100 * limit:.0f}%)")
        passed = passed and worst <= limit
    return CriterionResult(1, "nakagami-bound-accuracy", passed, "; ".join(details))


def _c02_sparse_regime_tightness(seed: int, trials: int) -> CriterionResult:
    """Rayleigh bounds at lambda0 = 1.25, B = 625: lower within 5%, upper within 9%."""
    lam0, b = 1.25, 625
    rho = _rho(lam0, b)
    model = SparseModel.from_occupancy(lam0, b, 1.0)
    sim = _sim_se(lam0, b, FadingModel.rayleigh(), trials, child_seed(seed, 2)).mean
    err_lower = abs(analytic.se_lower(model, rho) - sim) / sim
    err_upper = abs(analytic.se_upper_rayleigh(model, rho) - sim) / sim
    passed = err_lower <= 0.05 and err_upper <= 0.09
    detail = (
        f"lower err {100 * err_lower:.2f}% (limit 5%), "
        f"upper err {100 * err_upper:.2f}% (limit 9%)"
    )
    return CriterionResult(2, "sparse-regime-tightness", passed, detail)


def _c03_beam_count_trend(seed: int, trials: int) -> CriterionResult:
    """Bound errors shrink as B grows at lambda0 = 1.9, m = 3.2."""
    lam0 = 1.9
    fading = FadingModel.nakagami(3.2)
    sims = {
        b: _sim_se(lam0, b, fading, trials, child_seed(seed, 3, b)).mean
        for b in (100, 1000, 1024)
    }
    models = [SparseModel.from_occupancy(lam0, b, 3.2) for b in (100, 1000)]
    uppers = analytic.se_upper_nakagami(models, [_rho(lam0, b) for b in (100, 1000)]).tolist()
    err_up = {b: abs(upper - sims[b]) / sims[b] for b, upper in zip((100, 1000), uppers)}
    err_lo = {}
    for b in (100, 1024):
        model = SparseModel.from_occupancy(lam0, b, 3.2)
        err_lo[b] = abs(analytic.se_lower(model, _rho(lam0, b)) - sims[b]) / sims[b]
    passed = (
        err_up[1000] < err_up[100]
        and err_up[100] <= 0.12
        and err_up[1000] <= 0.07
        and err_lo[100] <= 0.19
        and err_lo[1024] <= 0.10
    )
    detail = (
        f"upper err B=100 {100 * err_up[100]:.2f}% (<=12%), "
        f"B=1000 {100 * err_up[1000]:.2f}% (<=7%, must shrink); "
        f"lower err B=100 {100 * err_lo[100]:.2f}% (<=19%), "
        f"B=1024 {100 * err_lo[1024]:.2f}% (<=10%)"
    )
    return CriterionResult(3, "beam-count-trend", passed, detail)


def _c04_cdf_exactness(seed: int, trials: int) -> CriterionResult:
    """Empirical conditional optimal-power CDF within 0.01 of the closed form.

    Pinned at 1e5 trials: the 0.01 budget combines model mismatch with the
    sampling noise of exactly that sample size.
    """
    trials = max(trials, 100_000)
    lam0, b = 1.9, 121
    cfg = SimConfig(lam0, b, _rho(lam0, b), FadingModel.rayleigh(), trials, child_seed(seed, 4))
    grid_pts = np.linspace(0.0, 12.0, 601)
    ecdf = empirical_opt_power_cdf(cfg, grid_pts)
    model = SparseModel.from_occupancy(lam0, b, 1.0)
    exact = analytic.opt_power_cdf(grid_pts, model)
    sup = float(np.max(np.abs(ecdf.cdf - exact)))
    detail = f"sup distance {sup:.4f} (limit 0.0100) over {trials} trials"
    return CriterionResult(4, "optimal-power-cdf-exactness", sup <= 0.01, detail)


def _c05_surrogate_normalization(seed: int, trials: int) -> CriterionResult:
    """The surrogate optimal-power density integrates to 1 +- 1e-6."""
    worst = 0.0
    for p, b, m in ((0.0156, 121, 1.0), (0.0156, 121, 3.0), (0.003, 625, 3.0)):
        model = SparseModel.from_p(p, b, m)
        pdf = lambda x: analytic.opt_power_pdf_bound(x, model)
        val = _integral(pdf, 0.0, math.inf, rtol=1e-10, atol=1e-12)
        worst = max(worst, abs(val - 1.0))
    detail = f"max |integral - 1| = {worst:.2e} (limit 1e-06)"
    return CriterionResult(5, "surrogate-density-normalization", worst <= 1e-6, detail)


def _pattern_se(p: float, b: int, rho: float) -> float:
    """SE by exhaustive occupancy-pattern conditioning (m = 1, tiny B)."""
    total = 0.0
    for pattern in itertools.product((0, 1), repeat=b):
        k = sum(pattern)
        prob = p**k * (1.0 - p) ** (b - k)
        if k == 0:
            continue
        integrand = lambda x, k=k: (
            np.log1p(rho * x) * k * (-np.expm1(-x)) ** (k - 1) * np.exp(-x)
        )
        val = _integral(integrand, 0.0, math.inf, rtol=1e-11, atol=1e-12)
        total += prob * val
    return total


def _density_se(p: float, b: int, rho: float) -> float:
    """SE by quadrature against the exact conditional max density (m = 1)."""
    model = SparseModel.from_p(p, b, 1.0)
    integrand = lambda x: np.log1p(rho * x) * analytic.opt_power_pdf_exact(x, model)
    val = _integral(integrand, 0.0, math.inf, rtol=1e-11, atol=1e-13)
    return model.prob_any() * val


def _max_exp_log_moment(n: int, a: float, rho: float) -> float:
    """E[ln(1 + rho M)] for M the max of n i.i.d. Exp(a) variables.

    Closed alternating form; its binomial coefficients (~2^n) cancel
    catastrophically as n grows, so it serves only as an oracle at small n.
    """
    terms = [
        (-1.0) ** j
        * math.comb(n - 1, j)
        * specfun.exp_e1_scaled(a * (1 + j) / rho)
        / (1 + j)
        for j in range(n)
    ]
    return n * math.fsum(terms)


def _mixture_upper_se(model: SparseModel, rho: float) -> float:
    """Nakagami upper bound (integer m) as a binomial mixture over occupied pairs.

    Given i occupied pairs the surrogate optimal power is the max of i*m
    Exp(a) variables, so the bound is sum_i C(B,i) p^i (1-p)^(B-i) times
    the closed log-moment of that max.
    """
    mhat = int(model.m)
    a = analytic.surrogate_rate(float(mhat))
    p, b = model.p, model.b
    return math.fsum(
        math.comb(b, i) * p**i * (1.0 - p) ** (b - i) * _max_exp_log_moment(i * mhat, a, rho)
        for i in range(1, b + 1)
    )


def _c06_small_instance_oracle(seed: int, trials: int) -> CriterionResult:
    """Pattern-enumeration SE equals density-quadrature SE to 1e-6, and the
    Nakagami upper bound equals its closed binomial mixture to 1e-6 (m = 1, 2, 3)."""
    worst = 0.0
    points = []
    for b in (1, 2, 3):
        for p in (0.2, 0.5):
            for rho in (1.0, 5.0):
                gap = abs(_pattern_se(p, b, rho) - _density_se(p, b, rho))
                worst = max(worst, gap)
                points += [(SparseModel.from_p(p, b, m), rho) for m in (1.0, 2.0, 3.0)]
    models, rhos = zip(*points)
    uppers = analytic.se_upper_nakagami(models, rhos).tolist()
    worst_upper = 0.0
    for (model, rho), upper in zip(points, uppers):
        worst_upper = max(worst_upper, abs(upper - _mixture_upper_se(model, rho)))
    detail = (
        f"max |pattern - density| = {worst:.2e}, "
        f"max |upper - mixture| = {worst_upper:.2e} (limit 1e-06)"
    )
    passed = worst <= 1e-6 and worst_upper <= 1e-6
    return CriterionResult(6, "small-instance-oracle", passed, detail)


def _c07_bound_sandwich(seed: int, trials: int) -> CriterionResult:
    """lower <= sim <= upper within 3 std errors on the sparse m=1 grid."""
    fading = FadingModel.rayleigh()
    violations = []
    for b in (121, 625):
        for j, lam0 in enumerate((1.0, 1.25, 1.5)):
            rho = _rho(lam0, b)
            model = SparseModel.from_occupancy(lam0, b, 1.0)
            est = _sim_se(lam0, b, fading, trials, child_seed(seed, 7, b, j))
            slack = 3.0 * est.std_error
            lo_gap = analytic.se_lower(model, rho) - est.mean
            up_gap = est.mean - analytic.se_upper_rayleigh(model, rho)
            if lo_gap > slack:
                violations.append(
                    f"lower exceeds sim by {lo_gap:.4f} (> 3se = {slack:.4f}) "
                    f"at lam0={lam0} B={b}"
                )
            if up_gap > slack:
                violations.append(
                    f"sim exceeds upper by {up_gap:.4f} (> 3se = {slack:.4f}) "
                    f"at lam0={lam0} B={b}"
                )
    if violations:
        return CriterionResult(7, "bound-sandwich", False, "; ".join(violations))
    return CriterionResult(7, "bound-sandwich", True, "holds at all 6 grid points")


def _c08_closed_form_agreement(seed: int, trials: int) -> CriterionResult:
    """Closed-form optimum within 35% of the numeric one over the K x F_t grid."""
    worst = 0.0
    worst_at = ""
    fails = 0
    for k in np.logspace(-3, -1, 5):
        for ft in np.logspace(-4, -2, 5):
            cfg = throughput.ThroughputConfig(
                t_f=CONTROL_FRAME_S,
                t_total=2.0 * CONTROL_FRAME_S / float(ft),
                k=float(k),
                lambda0=1.9,
                n_b=4,
            )
            b_num = throughput.optimal_b_numeric(cfg)
            b_cf = throughput.optimal_b_closed_form(cfg)
            rel = abs(b_cf - b_num) / b_num
            if rel > 0.35:
                fails += 1
            if rel > worst:
                worst = rel
                worst_at = f"K={k:.4g}, F_t={ft:.4g}"
    passed = fails == 0
    detail = (
        f"{fails}/25 grid points exceed 35%; worst {100 * worst:.1f}% at {worst_at}"
    )
    return CriterionResult(8, "closed-form-vs-numeric-optimum", passed, detail)


def _calibrated_overhead_ratio(theta_target_deg: float, k: float, n_b: int) -> float:
    """F_t making ``theta_target_deg`` the numeric optimum (stationarity inverted)."""
    b_star = (360.0 / theta_target_deg) ** 2
    x = b_star * k
    lhs = (1.0 + x) * math.log1p(x) / (k * math.sqrt(b_star))
    return 1.0 / (lhs + 2.0 * math.sqrt(b_star) + n_b**2)


def _c09_throughput_planning_shape(seed: int, trials: int) -> CriterionResult:
    """Qualitative planner behavior plus the calibrated-coherence check."""
    k = SNR_COEFF / 1.9
    carrier = 60e9
    problems = []

    def cfg_for(t_total: float) -> throughput.ThroughputConfig:
        return throughput.ThroughputConfig(
            t_f=CONTROL_FRAME_S, t_total=t_total, k=k, lambda0=1.9, n_b=4
        )

    # (a) rise then fall over the feasible region (Clarke coherence time, v=1)
    cfg1 = cfg_for(throughput.coherence_time(1.0, carrier))
    lo, hi = throughput.feasible_region(cfg1)
    roots = np.arange(1, int(math.sqrt(hi)) + 1)
    tp_vals = throughput.throughput_curve((roots**2).astype(float), cfg1)
    diffs = np.sign(np.diff(tp_vals))
    changes = int(np.count_nonzero(np.diff(diffs[diffs != 0])))
    if not (diffs[0] > 0 and diffs[-1] < 0 and changes == 1):
        problems.append("throughput is not unimodal (rise then fall) over the feasible grid")

    # (b), (c): max throughput falls and optimal beamwidth widens with velocity
    tps, thetas = [], []
    for v in (1.0, 1.5, 2.0):
        cfg = cfg_for(throughput.coherence_time(v, carrier))
        b_star = throughput.optimal_b_numeric(cfg)
        tps.append(throughput.throughput_continuous(b_star, cfg))
        thetas.append(throughput.optimal_hpbw(b_star))
    if not (tps[0] > tps[1] > tps[2]):
        problems.append(f"max throughput not decreasing with velocity: {tps}")
    if not (thetas[0] < thetas[1] < thetas[2]):
        problems.append(f"optimal beamwidth not increasing with velocity: {thetas}")

    # (d) fast mobility leaves no feasible beam count
    cfg_fast = cfg_for(throughput.coherence_time(11.1, carrier))
    if throughput.feasible_region(cfg_fast) is not None:
        problems.append("v=11.1 m/s unexpectedly leaves a feasible region")

    # (e) calibrated 1/v coherence scaling reproduces the beamwidth windows
    ft1 = _calibrated_overhead_ratio(13.16, k, 4)
    t1 = 2.0 * CONTROL_FRAME_S / ft1
    cal_thetas = {}
    for v in (1.0, 1.5, 2.0):
        cfg = cfg_for(t1 / v)
        cal_thetas[v] = throughput.optimal_hpbw(throughput.optimal_b_numeric(cfg))
    if abs(cal_thetas[1.0] - 13.16) > 0.05:
        problems.append(f"calibration anchor off: theta*(1)={cal_thetas[1.0]:.2f}")
    if not 16.0 <= cal_thetas[1.5] <= 21.0:
        problems.append(f"theta*(1.5)={cal_thetas[1.5]:.2f} outside [16, 21]")
    if not 21.0 <= cal_thetas[2.0] <= 27.0:
        problems.append(f"theta*(2)={cal_thetas[2.0]:.2f} outside [21, 27]")

    if problems:
        return CriterionResult(9, "throughput-planning-shape", False, "; ".join(problems))
    detail = (
        f"unimodal; TP and theta* ordered; v=11.1 infeasible; calibrated theta* = "
        f"{cal_thetas[1.0]:.2f}/{cal_thetas[1.5]:.2f}/{cal_thetas[2.0]:.2f} deg"
    )
    return CriterionResult(9, "throughput-planning-shape", True, detail)


def _e1_quad_oracle(x: float) -> float:
    # E1(x) = int_{ln x}^{inf} exp(-e^u) du; the integrand dies double-
    # exponentially, so truncating at u = 8 is already below 1e-300.
    # Pure relative tolerance: E1 spans many decades over the test range.
    return _integral(lambda u: np.exp(-np.exp(u)), math.log(x), 8.0, rtol=1e-13, atol=0.0)


def _e1_scaled_quad_oracle(x: float) -> float:
    # exp(x) E1(x) = int_0^inf e^{-v} / (x + v) dv
    return _integral(lambda v: np.exp(-v) / (x + v), 0.0, math.inf, rtol=1e-13, atol=0.0)


def _gamma_quad_oracle(m: float, x: float) -> float:
    # P(m, x) = 2 int_0^sqrt(x) r^{2m-1} e^{-r^2} dr / Gamma(m); the
    # substitution removes the endpoint singularity for m in [0.5, 1).
    if x == 0.0:
        return 0.0
    integrand = lambda r: 2.0 * r ** (2.0 * m - 1.0) * np.exp(-r * r)
    val = _integral(integrand, 0.0, math.sqrt(x), rtol=1e-12, atol=1e-14)
    return val / math.exp(math.lgamma(m))


def _c10_special_function_kernel(seed: int, trials: int) -> CriterionResult:
    """Kernels match quadrature oracles; scaled-E1 log inequality holds."""
    ms = (0.5, 1.0, 2.5, 3.2, 8.0, 20.0, 50.0)
    xs = (1e-6, 0.01, 0.3, 1.0, 2.24, 5.0, 17.0, 80.0, 200.0, 500.0)
    mine = specfun.reg_lower_gamma(np.array(ms)[:, None], np.array(xs))
    oracle = np.array([[_gamma_quad_oracle(m, x) for x in xs] for m in ms])
    worst_gamma = float(np.max(np.abs(mine - oracle)))

    worst_e1 = 0.0
    for x in np.logspace(-8, math.log10(5.0), 25):
        x = float(x)
        ref = _e1_quad_oracle(x)
        worst_e1 = max(worst_e1, abs(specfun.exp_integral_e1(x) - ref) / ref)
    for x in np.logspace(math.log10(5.0), math.log10(700.0), 15):
        x = float(x)
        ref = _e1_scaled_quad_oracle(x)
        worst_e1 = max(worst_e1, abs(specfun.exp_e1_scaled(x) - ref) / ref)

    inequality_ok = True
    for x in np.logspace(-6, 2, 81):
        x = float(x)
        if specfun.exp_e1_scaled(x) > math.log1p(1.0 / x):
            inequality_ok = False
            break

    passed = worst_gamma <= 1e-10 and worst_e1 <= 1e-10 and inequality_ok
    detail = (
        f"incomplete-gamma max abs err {worst_gamma:.2e} (<=1e-10), "
        f"E1 max rel err {worst_e1:.2e} (<=1e-10), "
        f"scaled-E1 log inequality {'holds' if inequality_ok else 'VIOLATED'}"
    )
    return CriterionResult(10, "specfun-kernel", passed, detail)


def _c11_determinism(seed: int, trials: int) -> CriterionResult:
    """Same seed => identical estimates and reports; worker count is irrelevant."""
    cfg = SimConfig(
        1.9, 121, _rho(1.9, 121), FadingModel.rayleigh(), min(trials, 50_000), child_seed(seed, 11)
    )
    a = estimate_se(cfg, workers=1)
    b = estimate_se(cfg, workers=1)
    c = estimate_se(cfg, workers=4)
    repeat_ok = (a.mean, a.std_error) == (b.mean, b.std_error)
    worker_ok = (a.mean, a.std_error) == (c.mean, c.std_error)

    sub = [5, 10]
    rep1 = render_report(run_validation(seed=seed, trials=trials, criteria=sub), seed, trials)
    rep2 = render_report(run_validation(seed=seed, trials=trials, criteria=sub), seed, trials)
    report_ok = rep1 == rep2

    passed = repeat_ok and worker_ok and report_ok
    detail = (
        f"repeat-run identical: {repeat_ok}; workers 1 vs 4 identical: {worker_ok}; "
        f"repeated sub-report byte-identical: {report_ok}"
    )
    return CriterionResult(11, "determinism", passed, detail)


_CRITERIA: dict[int, Callable[[int, int], CriterionResult]] = {
    1: _c01_nakagami_bound_accuracy,
    2: _c02_sparse_regime_tightness,
    3: _c03_beam_count_trend,
    4: _c04_cdf_exactness,
    5: _c05_surrogate_normalization,
    6: _c06_small_instance_oracle,
    7: _c07_bound_sandwich,
    8: _c08_closed_form_agreement,
    9: _c09_throughput_planning_shape,
    10: _c10_special_function_kernel,
    11: _c11_determinism,
}


def run_validation(
    seed: int = 0, trials: int = 20_000, criteria: Sequence[int] | None = None
) -> list[CriterionResult]:
    """Run the numbered checks (all by default) and return their results."""
    if trials < 100:
        raise ConfigError(f"validation needs at least 100 trials, got {trials!r}")
    chosen = sorted(_CRITERIA) if criteria is None else sorted(set(criteria))
    unknown = [c for c in chosen if c not in _CRITERIA]
    if unknown:
        raise ConfigError(f"unknown validation criteria: {unknown}")
    return [_CRITERIA[c](seed, trials) for c in chosen]


def render_report(results: list[CriterionResult], seed: int, trials: int) -> str:
    lines = [f"beamsim validation (seed={seed}, trials={trials})"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{r.index:2d}] {r.name:<32s} {status}  {r.detail}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"RESULT: {n_pass}/{len(results)} criteria passed")
    return "\n".join(lines) + "\n"


def first_failure(results: list[CriterionResult]) -> CriterionResult | None:
    for r in results:
        if not r.passed:
            return r
    return None
