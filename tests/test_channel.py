"""Fading laws, power draws, and the Poisson facts of the per-pair model."""

import math

import numpy as np
import pytest
from scipy import special, stats

from beamsim.channel import (
    FadingFamily,
    FadingModel,
    rician_k_to_nakagami_m,
    sample_max_path_power,
    sample_pair_power_sums,
)
from beamsim.montecarlo import MAX_SHAPE, _occupancy_tables
from beamsim.rng import substream
from per_pair_reference import path_powers, realize_channels


def single_path_powers(model, n, rng):
    """``n`` single-path powers: the power sums of ``n`` one-path pairs."""
    return sample_pair_power_sums(model, np.ones(n), rng)


class TestFadingPowers:
    def test_rayleigh_mean(self):
        rng = substream(1, 0)
        w = single_path_powers(FadingModel.rayleigh(), 1_000_000, rng)
        assert abs(w.mean() - 1.0) <= 3e-3

    def test_nakagami_variance(self):
        m = 3.2
        rng = substream(2, 0)
        w = single_path_powers(FadingModel.nakagami(m), 1_000_000, rng)
        assert abs(w.mean() - 1.0) <= 3e-3
        # var = 1/m for unit-mean Gamma(m); allow 4 sigma of the variance estimator
        kurt_excess = 6.0 / m
        se_var = math.sqrt((kurt_excess + 2.0) / 1_000_000) / m
        assert abs(w.var() - 1.0 / m) <= 4.0 * se_var

    def test_rician_zero_k_is_rayleigh(self):
        rng = substream(3, 0)
        w = single_path_powers(FadingModel.rician(0.0), 100_000, rng)
        # KS against the exponential law at significance 0.01
        res = stats.kstest(w, "expon")
        assert res.pvalue > 0.01

    def test_rician_mean_one(self):
        rng = substream(4, 0)
        for k in (0.5, 5.0, 30.0):
            w = single_path_powers(FadingModel.rician(k), 400_000, rng)
            assert abs(w.mean() - 1.0) <= 4.0 * w.std() / math.sqrt(len(w))

    def test_rician_variance(self):
        # ((Z1 + sqrt(2K))^2 + Z2^2) / (2(1+K)) is ncx2(2, 2K) scaled to mean 1,
        # whose variance is (1 + 2K) / (1 + K)^2
        rng = substream(6, 0)
        for k in (0.0, 0.5, 5.0, 30.0):
            w = single_path_powers(FadingModel.rician(k), 400_000, rng)
            n = len(w)
            assert abs(w.mean() - 1.0) <= 4.0 * w.std() / math.sqrt(n)
            se_var = math.sqrt(((w - w.mean()) ** 2).var() / n)
            assert abs(w.var() - (1.0 + 2.0 * k) / (1.0 + k) ** 2) <= 4.0 * se_var

    @pytest.mark.parametrize("index, k", enumerate([0.0, 1.0, 3.16, 10.0]))
    def test_rician_ks(self, index, k):
        # ((Z1 + sqrt(2K))^2 + Z2^2) / (2(1+K)) is ncx2(2, 2K) / (2(1+K))
        w = single_path_powers(FadingModel.rician(k), 100_000, substream(8, index))
        law = stats.ncx2(2, 2.0 * k, scale=1.0 / (2.0 * (1.0 + k)))
        assert stats.kstest(w, law.cdf).pvalue > 0.01

    def test_rician_nonnegative(self):
        for k in (0.0, 1.0, 3.16, 1e6):
            w = single_path_powers(FadingModel.rician(k), 200_000, substream(9, 0))
            assert w.min() >= 0.0

    def test_rician_zero_k_is_the_rayleigh_draw(self):
        w = single_path_powers(FadingModel.rician(0.0), 5_000, substream(7, 1))
        e = single_path_powers(FadingModel.rayleigh(), 5_000, substream(7, 1))
        assert w.tobytes() == e.tobytes()

    def test_gamma_draws_are_rng_gamma_bit_for_bit(self):
        # standard_gamma scaled by 1/m is numpy's gamma(m, 1/m), float for float
        counts = np.array([1, 1, 2, 1, 5, 1, 3, 1] * 100)
        for m in (0.7, 1.0, 3.2):
            w = single_path_powers(FadingModel.nakagami(m), 5_000, substream(7, 2))
            reference = substream(7, 2).gamma(shape=m, scale=1.0 / m, size=5_000)
            assert w.tobytes() == reference.tobytes()
            sums = sample_pair_power_sums(FadingModel.nakagami(m), counts, substream(7, 3))
            reference = substream(7, 3).gamma(shape=m * counts.astype(float), scale=1.0 / m)
            assert sums.tobytes() == reference.tobytes()
        sums = sample_pair_power_sums(FadingModel.rayleigh(), counts, substream(7, 4))
        reference = substream(7, 4).gamma(shape=counts.astype(float), scale=1.0)
        assert sums.tobytes() == reference.tobytes()

    def test_domain(self):
        with pytest.raises(ValueError):
            FadingModel.nakagami(0.3)
        with pytest.raises(ValueError):
            FadingModel.rician(-1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                FadingModel.nakagami(bad)
            with pytest.raises(ValueError, match="finite"):
                FadingModel.rician(bad)


class TestRicianMapping:
    def test_anchors(self):
        assert rician_k_to_nakagami_m(0.0) == pytest.approx(1.0)
        assert rician_k_to_nakagami_m(5.0) == pytest.approx(36.0 / 11.0)

    def test_monotone_and_asymptote(self):
        ks = np.logspace(-2, 3, 60)
        ms = [rician_k_to_nakagami_m(float(k)) for k in ks]
        assert all(b > a for a, b in zip(ms, ms[1:]))
        # m -> K/2 + 3/4 + O(1/K)
        k = 1e4
        assert rician_k_to_nakagami_m(k) == pytest.approx(k / 2 + 0.75, rel=1e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            rician_k_to_nakagami_m(-0.1)
        # (K+1)^2 overflows past K ~ 1.3e154: a ValueError, at construction too
        for fn in (rician_k_to_nakagami_m, FadingModel.rician):
            with pytest.raises(ValueError, match="too large"):
                fn(1e200)


class TestRealizeChannel:
    """The Poisson facts of B independent pairs, on the literal reference."""

    def test_structure(self):
        counts, sums = realize_channels(1.9, 16, FadingModel.nakagami(2.0), 2_000, substream(10, 0))
        assert counts.shape == sums.shape == (2_000, 16)
        assert np.all((sums > 0.0) == (counts > 0))

    def test_single_pair_is_poisson(self):
        counts, _ = realize_channels(2.0, 1, FadingModel.rayleigh(), 20_000, substream(11, 0))
        assert abs(np.mean(counts) - 2.0) <= 4.0 * math.sqrt(2.0 / 20_000)

    def test_total_power_mean(self):
        # E[sum of all normalized path powers] = lambda0
        lam0 = 1.9
        _, sums = realize_channels(lam0, 16, FadingModel.rayleigh(), 20_000, substream(12, 0))
        totals = sums.sum(axis=1)
        # variance of the compound Poisson total is lam0 * E[w^2] = 2 lam0
        assert abs(np.mean(totals) - lam0) <= 4.0 * math.sqrt(2.0 * lam0 / 20_000)

    def test_all_empty_fraction(self):
        lam0 = 1.9
        n = 50_000
        counts, _ = realize_channels(lam0, 121, FadingModel.rayleigh(), n, substream(13, 0))
        empty = np.mean(counts.sum(axis=1) == 0)
        p0 = math.exp(-lam0)
        assert abs(empty - p0) <= 4.0 * math.sqrt(p0 * (1 - p0) / n)

    def test_total_count_superposition(self):
        # Summed over pairs, counts are Poisson(lambda0): chi-square GoF at 0.01
        lam0 = 1.9
        n = 100_000
        counts, _ = realize_channels(lam0, 7, FadingModel.rayleigh(), n, substream(14, 0))
        totals = counts.sum(axis=1)
        kmax = 9
        observed = np.bincount(np.minimum(totals, kmax), minlength=kmax + 1)
        pmf = np.array([stats.poisson.pmf(k, lam0) for k in range(kmax)])
        pmf = np.append(pmf, 1.0 - pmf.sum())
        res = stats.chisquare(observed, n * pmf)
        assert res.pvalue > 0.01

    def test_seed_reproducibility(self):
        a = realize_channels(1.9, 32, FadingModel.nakagami(2.0), 100, substream(99, 4))
        b = realize_channels(1.9, 32, FadingModel.nakagami(2.0), 100, substream(99, 4))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class FixedUniforms:
    """A generator stand-in whose ``random(n)`` returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        assert n == len(self.u)
        return self.u.copy()


def scipy_max_power(model, u, k):
    """F^-1(u^(1/k)) by scipy, through the upper tail where u^(1/k) > 1/2."""
    log_v = np.log(u) / k
    v, tail = np.exp(log_v), -np.expm1(log_v)
    if model.family is FadingFamily.RICIAN_K:
        kf = model.parameter
        law = stats.ncx2(2, 2 * kf, scale=1 / (2 * (1 + kf))) if kf > 0 else stats.expon()
        return np.where(v < 0.5, law.ppf(v), law.isf(tail))
    m = model.effective_nakagami_m()
    return np.where(v < 0.5, special.gammaincinv(m, v), special.gammainccinv(m, tail)) / m


# the moment-matched shape (K + 1)^2 / (2K + 1) of this K is MAX_SHAPE
K_AT_LIMIT = MAX_SHAPE - 1.0 + math.sqrt(MAX_SHAPE * MAX_SHAPE - MAX_SHAPE)


class TestMaxPathPower:
    """The strongest of k single-path powers, from one uniform each."""

    @pytest.mark.parametrize(
        "model",
        [FadingModel.nakagami(m) for m in (0.5, 0.7, 1.0, 3.2, MAX_SHAPE)]
        + [FadingModel.rician(k) for k in (0.0, 1.0, 3.16, 10.0, K_AT_LIMIT)]
        + [FadingModel.rayleigh()],
        ids=["m0.5", "m0.7", "m1", "m3.2", "m_limit", "K0", "K1", "K3.16", "K10", "K_limit", "rayleigh"],
    )
    def test_quantile_matches_scipy(self, model):
        # u from 2^-53 to 1 - 2^-53, dense in both tails of u^(1/k); k up to
        # the largest occupied-pair count of the densest window (mu = 1, b = 1e6)
        k0, pmf, _, _ = _occupancy_tables(1e6, 10**6)
        rng = np.random.default_rng(13)
        u = np.concatenate([
            [2.0**-53, 1.0 - 2.0**-53, 0.5],
            np.exp(-np.exp(rng.uniform(-37.0, 3.6, 300))),
            rng.random(100),
        ])
        for k in (1, 2, 7, 100, 10**4, k0 + len(pmf) - 1):
            z = sample_max_path_power(model, np.full(len(u), float(k)), FixedUniforms(u))
            ref = scipy_max_power(model, u, k)
            assert np.all(np.abs(z / ref - 1.0) <= 1e-9), (k, np.abs(z / ref - 1.0).max())

    @pytest.mark.parametrize(
        "model", [FadingModel.nakagami(3.2), FadingModel.rician(3.16), FadingModel.rayleigh()],
        ids=["nakagami", "rician", "rayleigh"],
    )
    def test_empty_set_and_zero_uniform_give_zero(self, model):
        z = sample_max_path_power(model, np.array([0.0, 0.0, 1.0, 5.0]), FixedUniforms([0.3, 0.0, 0.0, 0.0]))
        assert np.array_equal(z, np.zeros(4))

    @pytest.mark.parametrize(
        "model", [FadingModel.nakagami(0.7), FadingModel.rician(10.0), FadingModel.rayleigh()],
        ids=["nakagami", "rician", "rayleigh"],
    )
    def test_is_the_max_of_k_path_powers(self, model):
        # against the largest of 5 per-path draws of the literal reference
        n, k = 20_000, 5
        direct = path_powers(model, n * k, substream(9, 0)).reshape(n, k).max(axis=1)
        drawn = sample_max_path_power(model, np.full(n, float(k)), substream(9, 1))
        assert stats.ks_2samp(direct, drawn).pvalue > 1e-3
