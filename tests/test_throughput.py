"""Training overhead, throughput objective, and the beam-count optimum."""

import math

import numpy as np
import pytest
from scipy import optimize

import beamsim.throughput as tp
from beamsim.errors import ApproximationInvalidError, InfeasibleConfigError


def make_cfg(k=0.0052632, f_t=0.001, n_b=4, lambda0=1.9, t_f=5e-6):
    return tp.ThroughputConfig(
        t_f=t_f, t_total=2.0 * t_f / f_t, k=k, lambda0=lambda0, n_b=n_b
    )


class TestThroughputConfig:
    @pytest.mark.parametrize("key", ["t_f", "t_total", "k", "lambda0"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_non_finite_or_nonpositive(self, key, bad):
        fields = dict(t_f=5e-6, t_total=1e-3, k=0.005, lambda0=1.9)
        fields[key] = bad
        with pytest.raises(ValueError, match=f"^{key} must be finite and > 0"):
            tp.ThroughputConfig(**fields)


class TestTrainingOverhead:
    def test_reference_value(self):
        cfg = make_cfg()
        assert tp.training_overhead(121, cfg) == pytest.approx(3.8e-4, rel=1e-12)

    def test_single_beam_reduction(self):
        cfg = tp.ThroughputConfig(t_f=2e-6, t_total=1e-3, k=0.01, lambda0=1.0, n_b=1)
        # 2 (2 sqrt(1) + 1) t_f
        assert tp.training_overhead(1, cfg) == pytest.approx(6 * 2e-6)

    def test_monotone_in_b(self):
        cfg = make_cfg()
        vals = [tp.training_overhead(r * r, cfg) for r in range(1, 40)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="perfect square"):
            tp.training_overhead(120, make_cfg())
        with pytest.raises(ValueError):
            tp.training_overhead(0, make_cfg())


class TestThroughput:
    def test_reference_value(self):
        assert tp.throughput(121, make_cfg()) == pytest.approx(0.40315, abs=2e-5)

    def test_zero_at_full_overhead(self):
        # choose T exactly equal to the B=121 training time
        t_f = 5e-6
        t_total = 2 * (2 * 11 + 16) * t_f
        cfg = tp.ThroughputConfig(t_f=t_f, t_total=t_total, k=0.005, lambda0=1.9, n_b=4)
        assert tp.throughput(121, cfg) == pytest.approx(0.0, abs=1e-15)

    def test_negative_beyond_budget(self):
        cfg = make_cfg(f_t=0.01)
        big = 10_000  # 2 sqrt(B) + 16 = 216 > 1/F_t = 100
        assert tp.throughput(big, cfg) < 0.0

    def test_upper_envelope(self):
        cfg = make_cfg()
        for r in range(1, 60):
            b = r * r
            envelope = (-math.expm1(-cfg.lambda0)) * math.log1p(b * cfg.k)
            assert tp.throughput(b, cfg) <= envelope + 1e-15


class TestFeasibleRegion:
    def test_reference_value(self):
        region = tp.feasible_region(make_cfg(f_t=0.001))
        assert region == (1.0, pytest.approx(242064.0))

    def test_empty_when_refinement_dominates(self):
        assert tp.feasible_region(make_cfg(f_t=0.1)) is None  # F_t Nb^2 = 1.6 >= 1

    def test_shrinks_with_overhead(self):
        b1 = tp.feasible_region(make_cfg(f_t=0.001))[1]
        b2 = tp.feasible_region(make_cfg(f_t=0.002))[1]
        assert b2 < b1


class TestOptimalBNumeric:
    def test_matches_grid_search(self):
        cfg = make_cfg()
        b_star = tp.optimal_b_numeric(cfg)
        grid = np.logspace(0, 6, 10_001)
        grid = grid[grid <= tp.feasible_region(cfg)[1]]
        coarse = float(grid[np.argmax(tp.throughput_curve(grid, cfg))])
        # local refinement around the coarse argmax
        fine = np.linspace(coarse * 0.98, coarse * 1.02, 2_001)
        best = float(fine[np.argmax(tp.throughput_curve(fine, cfg))])
        assert abs(b_star - best) / best <= 1e-3

    def test_beats_every_square(self):
        cfg = make_cfg()
        b_star = tp.optimal_b_numeric(cfg)
        tp_star = tp.throughput_continuous(b_star, cfg)
        for r in range(1, int(math.sqrt(tp.feasible_region(cfg)[1])) + 1):
            assert tp_star >= tp.throughput(r * r, cfg) - 1e-12

    def test_high_snr_prefers_less_training(self):
        ks = np.logspace(-3, 1, 9)
        bs = [tp.optimal_b_numeric(make_cfg(k=float(k))) for k in ks]
        assert all(b2 < b1 for b1, b2 in zip(bs, bs[1:]))

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleConfigError):
            tp.optimal_b_numeric(make_cfg(f_t=0.1))

    def test_matches_scipy_brentq_on_planner_grid(self):
        # the in-house Brent root against scipy's over the K x F_t planes of
        # criterion 8 and the planner sweeps, wider on both axes
        checked = 0
        for k in np.logspace(-4, 1, 11):
            for f_t in np.logspace(-5, -1.5, 11):
                cfg = make_cfg(k=float(k), f_t=float(f_t))
                if tp.feasible_region(cfg) is None or tp._stationarity_gap(1.0, cfg) >= 0.0:
                    continue
                ref = optimize.brentq(
                    tp._stationarity_gap, 1.0, (1.0 / cfg.f_t) ** 2, args=(cfg,), rtol=1e-12, maxiter=200
                )
                assert tp.optimal_b_numeric(cfg) == pytest.approx(ref, rel=1e-12)
                checked += 1
        assert checked >= 100

    def test_unimodal_on_grid(self):
        for k in (1e-3, 1e-2, 1e-1):
            for f_t in (1e-4, 1e-3, 1e-2):
                cfg = make_cfg(k=k, f_t=f_t)
                hi = tp.feasible_region(cfg)[1]
                grid = np.unique(np.round(np.logspace(0, math.log10(hi), 300)))
                vals = tp.throughput_curve(grid, cfg)
                signs = np.sign(np.diff(vals))
                signs = signs[signs != 0]
                flips = int(np.count_nonzero(np.diff(signs)))
                assert flips <= 1


class TestOptimalBClosedForm:
    def test_reference_value(self):
        b_cf = tp.optimal_b_closed_form(make_cfg())
        assert math.sqrt(b_cf) == pytest.approx(103.5, abs=0.05)
        assert b_cf == pytest.approx(1.071e4, rel=1e-3)
        assert tp.optimal_hpbw(b_cf) == pytest.approx(3.48, abs=0.005)

    def test_no_refinement_asymptote(self):
        # with N_b = 0 and sqrt(K) F_t >> F_t^2: sqrt(B*) ~ K^(-1/4)/sqrt(F_t)
        k, f_t = 1e-4, 1e-6
        cfg = make_cfg(k=k, f_t=f_t, n_b=1)
        cfg0 = tp.ThroughputConfig(t_f=cfg.t_f, t_total=cfg.t_total, k=k, lambda0=1.9, n_b=1)
        sqrt_b = math.sqrt(tp.optimal_b_closed_form(cfg0))
        # n_b = 1 contributes F_t << sqrt(K) F_t, so the asymptote still applies
        assert sqrt_b == pytest.approx(k ** (-0.25) / math.sqrt(f_t), rel=0.02)

    def test_velocity_scenarios_agreement(self):
        # planner scenarios: closed form within 35% of the numeric optimum
        for f_t in (0.0079686, 0.011953, 0.015937):
            cfg = make_cfg(f_t=f_t)
            b_num = tp.optimal_b_numeric(cfg)
            b_cf = tp.optimal_b_closed_form(cfg)
            assert abs(b_cf - b_num) / b_num <= 0.35

    def test_root_below_one_is_invalid(self):
        # planner point of a 5 m/s velocity sweep at 60 GHz: training no longer
        # fits, and the quadratic's root is B* ~ 0.84, i.e. no beam grid
        cfg = tp.ThroughputConfig(
            t_f=5e-6, t_total=tp.coherence_time(5.0, 60e9), k=0.01 / 1.9, lambda0=1.9, n_b=4
        )
        with pytest.raises(InfeasibleConfigError):
            tp.optimal_b_numeric(cfg)
        with pytest.raises(ApproximationInvalidError, match="below 1"):
            tp.optimal_b_closed_form(cfg)

    def test_invalid_discriminant(self):
        # F_t sqrt(K) Nb^2 term dominating makes the approximation unusable
        cfg = tp.ThroughputConfig(t_f=1e-3, t_total=2e-3 / 0.9, k=25.0, lambda0=1.0, n_b=2)
        with pytest.raises(ApproximationInvalidError):
            tp.optimal_b_closed_form(cfg)


class TestOptimalHpbw:
    def test_values(self):
        assert tp.optimal_hpbw(121.0) == pytest.approx(32.727, abs=1e-3)
        assert tp.optimal_hpbw(1.0) == 360.0

    def test_domain(self):
        with pytest.raises(ValueError):
            tp.optimal_hpbw(0.5)


class TestCoherenceTime:
    def test_default_model_value(self):
        t_c = tp.coherence_time(1.0, 60e9)
        doppler = 1.0 * 60e9 / tp.SPEED_OF_LIGHT
        assert t_c == pytest.approx(9.0 / (16.0 * math.pi * doppler), rel=1e-12)
        assert t_c == pytest.approx(8.95e-4, rel=1e-3)

    def test_velocity_scaling(self):
        assert tp.coherence_time(2.0, 60e9) == pytest.approx(
            tp.coherence_time(1.0, 60e9) / 2.0, rel=1e-12
        )

    def test_registry(self):
        tp.register_coherence_time_model("test-const", lambda v, f: 1e-3)
        assert tp.coherence_time(5.0, 60e9, "test-const") == 1e-3
        assert "clarke" in tp.coherence_time_models()
        with pytest.raises(ValueError, match="unknown coherence-time model"):
            tp.coherence_time(1.0, 60e9, "absent-model")

    def test_domain(self):
        with pytest.raises(ValueError):
            tp.coherence_time(0.0, 60e9)
        with pytest.raises(ValueError):
            tp.coherence_time(1.0, -1.0)


class TestBestSquare:
    def test_near_continuous_optimum(self):
        cfg = make_cfg()
        b_sq = tp.best_square_b(cfg)
        root = math.isqrt(b_sq)
        assert root * root == b_sq
        b_star = tp.optimal_b_numeric(cfg)
        assert abs(math.sqrt(b_sq) - math.sqrt(b_star)) <= 1.0
