"""Monte Carlo engine: determinism, distributional fidelity, trends."""

import dataclasses
import math
import os

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import gammaincc

from beamsim.analytic import SparseModel, se_lower, se_upper_rayleigh
from beamsim.channel import FadingFamily, FadingModel
from beamsim.errors import ConfigError, DegenerateSampleError, NumericalError
from beamsim.montecarlo import (
    CHUNK_TRIALS,
    MAX_PATHS_PER_PAIR,
    MAX_SHAPE,
    SimConfig,
    _multi_path_pairs,
    _occupancy_tables,
    empirical_opt_power_cdf,
    estimate_se,
    resolve_workers,
)
from beamsim.rng import substream
from per_pair_reference import strongest_pair_powers


def make_config(lambda0, b, fading, trials, seed):
    """The point at snr_coeff 0.01, rho = b * 0.01 / lambda0, as the CLI forms it."""
    return SimConfig(lambda0, b, b * 0.01 / lambda0, fading, trials, seed)


def exact_multipath_se(lambda0, b, fading, rho, moment=1):
    """E[ln(1 + rho z)^moment] of the full Poisson multipath model (no sampling).

    Pairs are independent, so P(z > x) = 1 - (1 - T(x))^b with T the tail
    of one pair's power sum: sum over n >= 1 of Pois(n; lambda0/b) times the
    tail of n summed paths -- Gamma(n m, 1/m) for Nakagami and Rayleigh,
    ncx2(2n, 2nK) / (2(1 + K)) for Rician.  Then E[g(z)] is the integral of
    g'(x) P(z > x) for g(0) = 0.
    """
    mu = lambda0 / b
    n = np.arange(1, int(mu + 12.0 * math.sqrt(mu) + 40.0))
    pois = stats.poisson.pmf(n, mu)
    if fading.family is FadingFamily.RICIAN_K:
        k = fading.parameter

        def pair_tail(x):
            return pois @ stats.ncx2.sf(2.0 * (1.0 + k) * x, 2.0 * n, 2.0 * k * n)
    else:
        m = fading.effective_nakagami_m()

        def pair_tail(x):
            return pois @ gammaincc(m * n, m * x)

    def integrand(x):
        t = pair_tail(x)
        survival = 1.0 if t >= 1.0 else -math.expm1(b * math.log1p(-t))
        rate = math.log1p(rho * x)
        return moment * rate ** (moment - 1) * rho / (1.0 + rho * x) * survival

    # split where the pair sums have left their bulk, so quad sees it
    split = mu + 12.0 * math.sqrt(mu) + 40.0
    return sum(
        integrate.quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-11, limit=400)[0]
        for lo, hi in ((0.0, split), (split, np.inf))
    )


class TestSimConfig:
    def test_fields(self):
        cfg = SimConfig(1.9, 121, 0.5, FadingModel.rayleigh(), 10, 1)
        assert (cfg.lambda0, cfg.b, cfg.rho, cfg.trials, cfg.seed) == (1.9, 121, 0.5, 10, 1)
        assert [f.name for f in dataclasses.fields(SimConfig)] == [
            "lambda0", "b", "rho", "fading", "trials", "seed"
        ]

    @pytest.mark.parametrize("rho", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_non_finite_or_nonpositive_rho(self, rho):
        with pytest.raises(ValueError, match="rho must be finite and > 0"):
            SimConfig(1.9, 121, rho, FadingModel.rayleigh(), 10, 1)

    @pytest.mark.parametrize(
        "b, trials, match", [(0, 10, "pair count"), (121, 0, "trials"), (121, 10**200, "trials")]
    )
    def test_rejects_empty_grid_or_sample(self, b, trials, match):
        with pytest.raises(ValueError, match=match):
            SimConfig(1.9, b, 0.5, FadingModel.rayleigh(), trials, 1)


class TestEstimateSe:
    def test_matches_exact_model(self):
        cfg = make_config(1.9, 121, FadingModel.rayleigh(), 200_000, 314)
        est = estimate_se(cfg)
        exact = exact_multipath_se(1.9, 121, FadingModel.rayleigh(), 121 * 0.01 / 1.9)
        assert abs(est.mean - exact) <= 4.0 * est.std_error

    def test_matches_exact_model_nakagami(self):
        cfg = make_config(1.9, 625, FadingModel.nakagami(3.2), 200_000, 315)
        est = estimate_se(cfg)
        exact = exact_multipath_se(1.9, 625, FadingModel.nakagami(3.2), 625 * 0.01 / 1.9)
        assert abs(est.mean - exact) <= 4.0 * est.std_error

    @pytest.mark.parametrize(
        "fading", [FadingModel.rayleigh(), FadingModel.nakagami(3.2), FadingModel.rician(2.0)],
        ids=["rayleigh", "nakagami", "rician"],
    )
    @pytest.mark.parametrize(
        "lambda0, b, trials",
        [
            (4.096e-6, 4096, 25_000_000),
            (6.25, 625, 200_000),
            (16.0, 16, 200_000),
            (160.0, 4, 200_000),
        ],
        ids=["mu1e-9", "mu0.01", "mu1", "mu40"],
    )
    def test_z_score_against_exact_model(self, lambda0, b, trials, fading):
        # mu = lambda0 / B spans nearly empty, sparse, mixed and saturated
        # pairs (exp(-mu) underflows past ~37).  At mu = 1e-9 the budget buys
        # ~100 occupied trials, enough for the normal approximation; z uses
        # the exact standard deviation of the mean.
        cfg = make_config(lambda0, b, fading, trials, 2718)
        mean = exact_multipath_se(lambda0, b, fading, cfg.rho)
        second = exact_multipath_se(lambda0, b, fading, cfg.rho, moment=2)
        sd = math.sqrt((second - mean * mean) / cfg.trials)
        assert abs(estimate_se(cfg).mean - mean) <= 4.0 * sd

    @pytest.mark.parametrize(
        "lambda0, b",
        [(1.9, 121), (4.096e-6, 4096), (16.0, 16), (625.0, 625), (23125.0, 625),
         (1e5, 1), (3.0, 10**12)],
    )
    def test_occupancy_tables_match_reference_laws(self, lambda0, b):
        mu = lambda0 / b
        k0, pmf, q, cdf = _occupancy_tables(lambda0, b)
        assert len(pmf) <= 2_000 and cdf[-1] == 1.0
        ks = np.arange(k0, k0 + len(pmf))
        # B - K ~ Binomial(B, exp(-mu)) keeps the reference exact where 1 - p rounds
        if mu < 1.0:
            ref = stats.binom.pmf(ks, b, -math.expm1(-mu))
        else:
            ref = stats.binom.pmf(b - ks, b, math.exp(-mu))
        assert np.allclose(pmf, ref, rtol=1e-9, atol=1e-15)
        assert ref.sum() > 1.0 - 1e-12     # the window holds all the mass
        # P(J >= 2 | J >= 1) and P(J <= j | J >= 2), j >= 2, for J ~ Poisson(mu)
        assert q == pytest.approx(stats.poisson.sf(1, mu) / stats.poisson.sf(0, mu), rel=1e-9)
        js = np.arange(2, len(cdf) + 2)
        conditional = np.cumsum(stats.poisson.pmf(js, mu)) / stats.poisson.sf(1, mu)
        assert np.allclose(cdf, conditional, rtol=1e-9, atol=1e-15)
        assert stats.poisson.sf(js[-1], mu) / stats.poisson.sf(1, mu) < 1e-15   # the cut tail

    def test_intensity_beyond_table_is_rejected(self):
        with pytest.raises(ValueError, match="paths per beam pair"):
            SimConfig(1e308, 121, 1.0, FadingModel.rayleigh(), 10, 1)
        SimConfig(MAX_PATHS_PER_PAIR, 1, 1.0, FadingModel.rayleigh(), 10, 1)
        # a subnormal lambda0 over b pairs rounds to 0 paths per pair
        with pytest.raises(ValueError, match="lambda0 / b = 0.0 paths per beam pair"):
            SimConfig(5e-324, 121, 1.0, FadingModel.rayleigh(), 10, 1)

    def test_shape_whose_path_sum_overflows_is_rejected(self):
        # the engine's shape limit, MAX_SHAPE, is far below where a pair's
        # Gamma(n m, 1/m) sum overflows (n m = inf made SE = inf)
        for fading in (FadingModel.nakagami(1e308), FadingModel.nakagami(MAX_SHAPE * (1 + 1e-15)),
                       FadingModel.rician(2.0 * MAX_SHAPE)):
            with pytest.raises(ValueError, match="fading shape m = .* must be at most 1000"):
                make_config(1.9, 121, fading, 10, 1)
        assert math.isfinite(estimate_se(make_config(1.9, 121, FadingModel.nakagami(MAX_SHAPE), 500, 1)).mean)

    def test_overflowing_rate_is_a_numerical_failure(self):
        # rho = 121 * 1e306 / 1.9 is finite, but rho z overflows for z > 2.8
        cfg = SimConfig(1.9, 121, 121 * 1e306 / 1.9, FadingModel.rayleigh(), 2000, 1)
        with pytest.raises(NumericalError, match="overflows"):
            estimate_se(cfg)

    def test_empty_channel_zero_rate(self):
        cfg = make_config(1e-9, 121, FadingModel.rayleigh(), 5_000, 1)
        assert estimate_se(cfg).mean == 0.0

    def test_bound_sandwich_reference_point(self):
        cfg = make_config(1.9, 121, FadingModel.rayleigh(), 100_000, 8)
        est = estimate_se(cfg)
        model = SparseModel.from_occupancy(1.9, 121, 1.0)
        assert se_lower(model, cfg.rho) - 3 * est.std_error <= est.mean
        assert est.mean <= se_upper_rayleigh(model, cfg.rho) + 3 * est.std_error

    def test_fading_hardens_to_lower_bound(self):
        # heavy shape: per-path power concentrates at 1, SE -> no-fading value
        cfg = make_config(1.0, 625, FadingModel.nakagami(50.0), 200_000, 6)
        est = estimate_se(cfg)
        lower = se_lower(SparseModel.from_occupancy(1.0, 625, 50.0), 6.25)
        assert abs(est.mean - lower) / lower <= 0.02

    def test_seed_determinism(self):
        cfg = make_config(1.9, 121, FadingModel.nakagami(2.0), 50_000, 12345)
        a, b = estimate_se(cfg), estimate_se(cfg)
        assert (a.mean, a.std_error, a.trials) == (b.mean, b.std_error, b.trials)

    def test_worker_count_independence(self, monkeypatch):
        cfg = make_config(1.9, 121, FadingModel.nakagami(2.0), 60_000, 99)
        base = estimate_se(cfg, workers=1)
        multi = estimate_se(cfg, workers=5)
        assert (base.mean, base.std_error) == (multi.mean, multi.std_error)
        monkeypatch.setenv("BEAMSIM_THREADS", "3")
        env_run = estimate_se(cfg)
        assert (base.mean, base.std_error) == (env_run.mean, env_run.std_error)

    def test_resolve_workers(self, monkeypatch):
        monkeypatch.delenv("BEAMSIM_THREADS", raising=False)
        assert resolve_workers(None) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1
        monkeypatch.setenv("BEAMSIM_THREADS", "7")
        assert resolve_workers(None) == 7
        # an explicit count wins over the variable, which only sets the default
        assert resolve_workers(3) == 3
        assert resolve_workers(1) == 1

    @pytest.mark.parametrize(
        "env, parsed",
        [("-1", None), ("abc", None), ("0", os.cpu_count() or 1), ("1e3", None), ("1" * 30, int("1" * 30))],
        ids=["negative", "text", "zero", "float_form", "thirty_digits"],
    )
    def test_threads_variable_parses(self, monkeypatch, env, parsed):
        # the parsed value only: no thread is started here
        monkeypatch.setenv("BEAMSIM_THREADS", env)
        if parsed is None:
            with pytest.raises(ConfigError):
                resolve_workers(None)
        else:
            assert resolve_workers(None) == parsed

    @pytest.mark.parametrize("workers, trials, threads", [("1" * 30, 3 * CHUNK_TRIALS, 3), ("2", 5_000, None)])
    def test_pool_has_at_most_one_thread_per_chunk(self, monkeypatch, workers, trials, threads):
        # a stand-in pool records its size and runs the chunks in the caller
        import concurrent.futures

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setenv("BEAMSIM_THREADS", workers)
        cfg = make_config(1.9, 121, FadingModel.rayleigh(), trials, 5)
        assert estimate_se(cfg) == estimate_se(cfg, workers=1)
        assert sizes == ([] if threads is None else [threads])

    def test_se_decreases_with_path_count(self):
        # splitting fixed channel energy over more paths lowers the best pair
        lo = estimate_se(make_config(1.0, 121, FadingModel.nakagami(3.2), 150_000, 21))
        hi = estimate_se(make_config(3.5, 121, FadingModel.nakagami(3.2), 150_000, 22))
        assert lo.mean - hi.mean > lo.ci95 + hi.ci95

    def test_se_increases_with_beam_count(self):
        small = estimate_se(make_config(1.9, 100, FadingModel.nakagami(3.2), 100_000, 31))
        large = estimate_se(make_config(1.9, 1024, FadingModel.nakagami(3.2), 100_000, 32))
        assert large.mean - small.mean > small.ci95 + large.ci95


class TestEmpiricalCdf:
    def test_endpoints_and_conditioning(self):
        cfg = make_config(1.9, 121, FadingModel.rayleigh(), 100_000, 77)
        grid = np.concatenate([[0.0], np.linspace(0.05, 25.0, 200)])
        ecdf = empirical_opt_power_cdf(cfg, grid)
        assert ecdf.cdf[0] == 0.0
        assert ecdf.cdf[-1] == 1.0
        p_empty = math.exp(-1.9)
        se = math.sqrt(p_empty * (1 - p_empty) / cfg.trials)
        assert abs(ecdf.discard_fraction - p_empty) <= 4 * se

    def test_degenerate(self):
        cfg = make_config(1e-9, 16, FadingModel.rayleigh(), 500, 3)
        with pytest.raises(DegenerateSampleError):
            empirical_opt_power_cdf(cfg, np.linspace(0, 5, 10))

    def test_grid_validation(self):
        cfg = make_config(1.9, 16, FadingModel.rayleigh(), 1000, 3)
        with pytest.raises(ValueError):
            empirical_opt_power_cdf(cfg, np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            empirical_opt_power_cdf(cfg, np.array([-1.0, 1.0]))


def pooled_chi2_pvalue(observed, expected):
    """chi^2 p-value of counts against expected counts of the same total,
    adjacent cells pooled until each expects at least 5."""
    obs_cells, exp_cells = [], []
    obs = exp = 0.0
    for o, e in zip(observed, expected):
        obs, exp = obs + o, exp + e
        if exp >= 5.0:
            obs_cells.append(obs)
            exp_cells.append(exp)
            obs = exp = 0.0
    obs_cells[-1] += obs
    exp_cells[-1] += exp
    return stats.chisquare(obs_cells, exp_cells).pvalue


class TestMultiPathPairs:
    """The step that picks the occupied pairs holding two or more paths."""

    N_PAIRS, FIRST_BLOCK, REPLICATES = 3_000, 1_000, 2_000

    @pytest.fixture(scope="class", params=[0.01, 0.5, 2.0], ids=["mu0.01", "mu0.5", "mu2"])
    def draws(self, request):
        mu = request.param
        _, _, q, cdf = _occupancy_tables(100.0 * mu, 100)
        rng = substream(2024, int(100 * mu))
        return mu, q, [_multi_path_pairs(rng, self.N_PAIRS, q, cdf) for _ in range(self.REPLICATES)]

    def test_count_is_binomial(self, draws):
        _, q, pairs = draws
        counts = np.array([len(positions) for positions, _ in pairs])
        observed = np.bincount(counts, minlength=self.N_PAIRS + 1)
        expected = self.REPLICATES * stats.binom.pmf(np.arange(self.N_PAIRS + 1), self.N_PAIRS, q)
        assert pooled_chi2_pvalue(observed, expected) > 1e-3

    def test_extra_paths_follow_poisson_given_two_or_more(self, draws):
        mu, _, pairs = draws
        paths = np.concatenate([extra for _, extra in pairs]) + 1
        js = np.arange(2, paths.max() + 2)
        observed = np.bincount(paths, minlength=js[-1] + 1)[2:]
        law = stats.poisson.pmf(js, mu) / stats.poisson.sf(1, mu)
        law[-1] = stats.poisson.sf(js[-2], mu) / stats.poisson.sf(1, mu)  # tail past the largest draw
        assert pooled_chi2_pvalue(observed, len(paths) * law) > 1e-3

    def test_positions_are_a_uniform_subset(self, draws):
        # the first block holds each occupied trial's first pair, the later
        # blocks only the pairs of trials with more: a multi-path share that
        # differs between them would bias the maxima by K
        _, _, pairs = draws
        in_first = total = var = 0.0
        for positions, _ in pairs:
            assert len(np.unique(positions)) == len(positions)
            assert positions.min(initial=0) >= 0 and positions.max(initial=0) < self.N_PAIRS
            n = len(positions)
            in_first += np.count_nonzero(positions < self.FIRST_BLOCK)
            total += n
            # hypergeometric variance of the first block's share of n picks
            f = self.FIRST_BLOCK / self.N_PAIRS
            var += n * f * (1.0 - f) * (self.N_PAIRS - n) / (self.N_PAIRS - 1)
        assert abs(in_first - total * self.FIRST_BLOCK / self.N_PAIRS) <= 4.0 * math.sqrt(var)


class TestEngineMatchesPerPairSampler:
    def test_distributional_agreement(self):
        # the occupancy engine vs literal per-pair realizations
        lam0, b = 1.9, 121
        direct = strongest_pair_powers(lam0, b, FadingModel.rayleigh(), 4_000, substream(555, 0))

        cfg = SimConfig(lam0, b, b * 0.01 / lam0, FadingModel.rayleigh(), 4_000, 556)
        grid_pts = np.linspace(0.0, 20.0, 101)
        ecdf = empirical_opt_power_cdf(cfg, grid_pts)

        # engine empirical CDF vs the direct sample's empirical CDF on the grid
        pos = np.sort(direct[direct > 0])
        direct_cdf = np.searchsorted(pos, grid_pts, side="right") / len(pos)
        n_eff = min(len(pos), ecdf.trials_kept)
        # DKW band at alpha = 0.01 for the coarser of the two samples
        band = math.sqrt(math.log(2.0 / 0.01) / (2.0 * n_eff)) * 2.0
        assert np.max(np.abs(direct_cdf - ecdf.cdf)) <= band

        # empty-trial fractions agree (binomial 4-sigma)
        p_empty = math.exp(-lam0)
        for frac in ((direct == 0).mean(), ecdf.discard_fraction):
            assert abs(frac - p_empty) <= 4 * math.sqrt(p_empty * (1 - p_empty) / 4_000)

    @pytest.mark.parametrize(
        "fading", [FadingModel.nakagami(3.2), FadingModel.rician(2.0)], ids=["nakagami", "rician"]
    )
    def test_agreement_with_multipath_pairs(self, fading):
        # mu = 1 path per pair: 42% of the occupied pairs hold two or
        # more paths, so the multiplicity table and summed draws are in play
        lam0, b = 16.0, 16
        direct = strongest_pair_powers(lam0, b, fading, 4_000, substream(557, 0))

        cfg = SimConfig(lam0, b, b * 0.01 / lam0, fading, 4_000, 558)
        grid_pts = np.linspace(0.0, 12.0, 121)
        ecdf = empirical_opt_power_cdf(cfg, grid_pts)

        pos = np.sort(direct[direct > 0])
        direct_cdf = np.searchsorted(pos, grid_pts, side="right") / len(pos)
        n_eff = min(len(pos), ecdf.trials_kept)
        band = math.sqrt(math.log(2.0 / 0.01) / (2.0 * n_eff)) * 2.0
        assert np.max(np.abs(direct_cdf - ecdf.cdf)) <= band
