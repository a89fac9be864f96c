"""Monte Carlo engine for the optimally beamformed link.

A simulated point is four numbers (:class:`SimConfig`): the mean path
count lambda0, the beam-pair count B, the fading law and the SNR scale rho.
Each trial draws a sparse multipath channel, sweeps all B beam pairs for the
power-maximizing one, and records ln(1 + rho z) in nats, z being that pair's
summed normalized fading power; converting units is the caller's job.
Trials are generated in fixed-size chunks, each chunk on its own derived
substream, and per-chunk moment statistics are merged in chunk order -- so
results are bit-identical for any worker count and fully determined by the
seed.

Sampling is sort-free and draws no power it does not need.  A trial's
optimal power is the largest of its occupied pairs' power sums, and those
sums are i.i.d.; which pairs are occupied does not matter.  With
mu = lambda0 / B, each chunk therefore

1. draws, in one multinomial call, how many of its trials have K = 0, 1,
   ..., B occupied pairs, where K ~ Binomial(B, 1 - exp(-mu)) (over the
   window of K that holds all but ~1e-20 of the mass), and lays the
   occupied trials' pairs out by K, emptiest first;
2. draws the number of pairs that hold two or more paths, one
   Binomial(pairs, q) draw with q = P(J >= 2 | J >= 1) for the Poisson(mu)
   count J; picks those pairs as a uniform subset of all pairs and draws
   their path counts by inverse CDF from the law of J given J >= 2; maps
   each to its trial (one ``searchsorted`` over the K groups); a trial's
   other K1 = K - (its multi-path pairs) pairs hold one path each;
3. draws the strongest of each occupied trial's K1 single-path pairs from
   one uniform u, as F^-1(u^(1/K1)) for the one-path power CDF F
   (:func:`beamsim.channel.sample_max_path_power`; 0 for K1 = 0);
4. draws each multi-path pair's whole power sum in one draw (additivity of
   the power laws, :func:`beamsim.channel.sample_pair_power_sums`) and
   folds it into its trial's maximum with ``np.maximum.at``.

Only the occupied trials are kept: an empty trial's power is 0, so the
moments count the empty trials without storing them.

Trials in a chunk are exchangeable and only order-free statistics (moments,
empirical CDF) are kept, so this matches B independent Poisson(mu) pairs
exactly in distribution, at O(1) draws per occupied trial plus O(1) per
multi-path pair.  (``tests/per_pair_reference.py`` draws those pairs
literally, path by path, and the tests hold the engine to it.)  The
Rayleigh F^-1 is closed form; the Nakagami and Rician ones are a cubic
Hermite table whose relative error is below 1e-10 (held to 1e-9
against scipy by the tests), which is random stream 5's tolerance against
an exact draw.  That table is built on first use, once per fading law and
process, and its cost grows with the shape: the engine takes Nakagami (or
moment-matched Rician) shapes up to ``MAX_SHAPE``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .channel import FadingModel, max_power_table, sample_max_path_power, sample_pair_power_sums
from .errors import ConfigError, DegenerateSampleError, NumericalError
from .rng import substream

CHUNK_TRIALS = 16_384

# Which numbers a given seed produces; recorded in run manifests.  Stream 1
# was the Poisson-superposition sampler, stream 2 the occupancy sampler with
# one uniform per pair, stream 3 draws the multi-path pairs by count,
# stream 4 draws the Rician power in polar form, and stream 5 draws each
# occupied trial's strongest single-path pair from one uniform.
STREAM_VERSION = 5

# Largest mean path count per beam pair the multiplicity table is built
# for; the table holds about mu + 10 sqrt(mu) + 40 entries.
MAX_PATHS_PER_PAIR = 1e5

# Largest trial count; its chunk list holds 131072 entries.
MAX_TRIALS = 2**31 - 1

# Largest Nakagami shape m (for a Rician K, its moment-matched m, which is
# ~K / 2) the engine simulates.  A law's quantile table is built once per
# process: at m = 1e3 it took 9.5-19 ms for Nakagami and 51-82 ms (and
# ~6 MB) for Rician K = 1998.5 on a 2-core Xeon VM; at m = 1e4 the Rician
# table took 394 ms and ~56 MB.
MAX_SHAPE = 1e3

THREADS_ENV_VAR = "BEAMSIM_THREADS"


@dataclass(frozen=True)
class SimConfig:
    """One simulated point and its sample: the mean path count ``lambda0``,
    the beam-pair count ``b``, the SNR scale ``rho`` of ln(1 + rho z), the
    fading law, and the trial count and seed."""

    lambda0: float
    b: int
    rho: float
    fading: FadingModel
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ValueError(f"trials must be in [1, {MAX_TRIALS}], got {self.trials!r}")
        if self.b < 1:
            raise ValueError(f"pair count must be >= 1, got {self.b!r}")
        if not (math.isfinite(self.rho) and self.rho > 0.0):
            raise ValueError(f"SNR scale rho must be finite and > 0, got {self.rho!r}")
        mu = self.lambda0 / self.b
        # mu rounds to 0 for a subnormal lambda0; the tables need ln(mu)
        if not 0.0 < mu <= MAX_PATHS_PER_PAIR:
            raise ValueError(
                f"lambda0 / b = {mu!r} paths per beam pair (lambda0 = {self.lambda0!r}, "
                f"b = {self.b}) must be > 0 and at most {MAX_PATHS_PER_PAIR:g}, "
                "the Monte Carlo limit"
            )
        m = self.fading.effective_nakagami_m()
        if not m <= MAX_SHAPE:
            raise ValueError(
                f"fading shape m = {m!r} (the Nakagami m, or (K + 1)^2 / (2K + 1) for a Rician K) "
                f"must be at most {MAX_SHAPE:g}, the Monte Carlo limit"
            )


@dataclass(frozen=True)
class SEEstimate:
    """Sample mean of the per-trial rate (nats) with its Monte Carlo uncertainty."""

    mean: float
    std_error: float
    trials: int

    @property
    def ci95(self) -> float:
        """Half-width of the normal-approximation 95% confidence interval."""
        return 1.96 * self.std_error


@dataclass(frozen=True)
class EmpiricalCdf:
    """Empirical conditional CDF of the normalized optimal power.

    Conditioning keeps only trials with at least one multipath component;
    ``discard_fraction`` is the removed share (an estimate of exp(-lambda0)).
    """

    grid: np.ndarray
    cdf: np.ndarray
    trials_kept: int
    trials_total: int

    @property
    def discard_fraction(self) -> float:
        return 1.0 - self.trials_kept / self.trials_total


def resolve_workers(requested: int | None = None) -> int:
    """Worker count: an explicit ``requested`` wins, else the BEAMSIM_THREADS
    env var, else 1; 0 means one per CPU."""
    if requested is None:
        env = os.environ.get(THREADS_ENV_VAR)
        if env is None:
            return 1
        try:
            requested = int(env)
        except ValueError as exc:
            raise ConfigError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}") from exc
    if requested < 0:
        raise ConfigError(f"worker count must be >= 0, got {requested!r}")
    if requested == 0:
        return os.cpu_count() or 1
    return requested


def _chunk_sizes(trials: int) -> list[int]:
    full, rem = divmod(trials, CHUNK_TRIALS)
    return [CHUNK_TRIALS] * full + ([rem] if rem else [])


def _normalized(log_ratios: np.ndarray) -> np.ndarray:
    """Probabilities whose successive log ratios are ``log_ratios``, summing to 1."""
    log_w = np.concatenate([[0.0], np.cumsum(log_ratios)])
    w = np.exp(log_w - log_w.max())
    return w / w.sum()


def _occupancy_tables(lambda0: float, b: int) -> tuple[int, np.ndarray, float, np.ndarray]:
    """(k0, occupied-pair pmf, multi-path share q, multiplicity CDF) for mu = lambda0 / b.

    ``pmf[i]`` is P(K = k0 + i) for K ~ Binomial(b, 1 - exp(-mu)) over the
    window of k outside which the pmf sums to below ~1e-20, so the table
    stays short however large b is.  For the Poisson(mu) path count J of a
    pair, ``q`` is P(J >= 2 | J >= 1), summed over the j >= 2 terms so it
    keeps its digits when it is tiny, and ``cdf[i]`` is P(J <= i + 2 | J >= 2),
    cut where its tail falls below ~1e-20 and ending in exactly 1.  All are
    formed in log space, so they stay right where exp(-mu) underflows.
    """
    mu = lambda0 / b
    # ln p for p = 1 - exp(-mu), accurate for small and large mu; ln(1 - p) = -mu
    log_p = math.log(-math.expm1(-mu)) if mu < math.log(2.0) else math.log1p(-math.exp(-mu))
    mean = b * math.exp(log_p)
    spread = 10.0 * math.sqrt(mean * math.exp(-mu)) + 40.0
    k0 = max(0, math.floor(mean - spread))
    # ln pmf(k + 1) - ln pmf(k) = ln((b - k) / (k + 1)) + ln(p / (1 - p))
    k = np.arange(k0, min(b, math.ceil(mean + spread)), dtype=float)
    pmf = _normalized(np.log(b - k) - np.log(k + 1.0) + (log_p + mu))
    # ln P(J = j) - ln P(J = j - 1) = ln(mu / j), for j = 2, 3, ...
    log_ratios = math.log(mu) - np.log(np.arange(2.0, math.ceil(mu + 10.0 * math.sqrt(mu) + 41.0)))
    q = min(1.0, float(_normalized(log_ratios)[1:].sum()))
    cdf = np.cumsum(_normalized(log_ratios[1:]))
    cdf[-1] = 1.0
    return k0, pmf, q, cdf


def _multi_path_pairs(
    rng: np.random.Generator, n_pairs: int, q: float, cdf: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(positions, extra path counts) of the occupied pairs with J >= 2 paths.

    Their number is one Binomial(n_pairs, q) draw.  The pairs' sums are
    i.i.d., so any subset of positions may hold the extra paths as long as
    it is uniform: a position fixes which trial, by K, the pair belongs to.
    The subset's order does not matter (the counts are i.i.d. too), so it
    is not shuffled.  The counts J - 1 come by inverse CDF from ``cdf``,
    the law of J given J >= 2: the first i with cdf[i] >= u is J - 2.
    """
    n_multi = int(rng.binomial(n_pairs, q))
    positions = rng.choice(n_pairs, n_multi, replace=False, shuffle=False)
    return positions, np.searchsorted(cdf, rng.random(n_multi)) + 1


def _trial_maxima(
    seed: int,
    chunk_index: int,
    n_trials: int,
    tables: tuple[int, np.ndarray, float, np.ndarray],
    fading: FadingModel,
) -> np.ndarray:
    """Max pair power sum of each occupied trial of one chunk.

    The chunk's other ``n_trials - len(result)`` trials are empty (power
    0).  Trials come out grouped by their occupied-pair count K, in
    ascending order; see the module docstring.
    """
    k0, pmf, q, cdf = tables
    rng = substream(seed, chunk_index)
    trials_with = rng.multinomial(n_trials, pmf)  # trials with K = k0, k0 + 1, ...
    # The occupied trials, by K: group g holds counts[g] trials of k[g]
    # pairs each, at pair positions [ends[g] - pairs[g], ends[g]).
    counts = trials_with[1:] if k0 == 0 else trials_with
    k = np.arange(k0 + (k0 == 0), k0 + len(pmf))
    pairs = counts * k
    ends = np.cumsum(pairs)
    multi, extra = _multi_path_pairs(rng, int(ends[-1]) if len(ends) else 0, q, cdf)
    g = np.searchsorted(ends, multi, side="right")
    trial = (np.cumsum(counts) - counts)[g] + (multi - (ends - pairs)[g]) // k[g]
    single = np.repeat(k.astype(float), counts)
    np.subtract.at(single, trial, 1.0)   # each trial's single-path pairs
    maxima = sample_max_path_power(fading, single, rng)
    np.maximum.at(maxima, trial, sample_pair_power_sums(fading, extra + 1, rng))
    return maxima


def _reduce_chunks(config: SimConfig, workers: int | None, reduce) -> list:
    """``reduce(maxima, n)`` of each chunk of ``config``'s trials, in chunk
    order, where ``maxima`` are the :func:`_trial_maxima` of the chunk's
    ``n`` trials.  Each chunk is reduced as it is drawn, so no more than
    one chunk's maxima per worker is held at a time."""
    sizes = _chunk_sizes(config.trials)
    nworkers = resolve_workers(workers)
    tables = _occupancy_tables(config.lambda0, config.b)
    # built here, once and before any chunk's arrays, rather than by the first chunks
    max_power_table(config.fading)

    def run_chunk(i: int):
        return reduce(_trial_maxima(config.seed, i, sizes[i], tables, config.fading), sizes[i])

    if nworkers <= 1 or len(sizes) <= 1:
        return [run_chunk(i) for i in range(len(sizes))]
    # Imported here, not at the top: with the logging it pulls in it costs
    # several ms of import that a single-worker process would pay for nothing.
    from concurrent.futures import ThreadPoolExecutor

    # one thread per chunk at most, however many workers were asked for
    with ThreadPoolExecutor(max_workers=min(nworkers, len(sizes))) as pool:
        return list(pool.map(run_chunk, range(len(sizes))))


def _merge_moments(parts: list[tuple[int, float, float]]) -> tuple[int, float, float]:
    """Fold per-chunk (count, mean, M2) in order; Chan's parallel update."""
    n, mean, m2 = 0, 0.0, 0.0
    for cn, cmean, cm2 in parts:
        delta = cmean - mean
        tot = n + cn
        mean += delta * cn / tot
        m2 += cm2 + delta * delta * n * cn / tot
        n = tot
    return n, mean, m2


def estimate_se(config: SimConfig, workers: int | None = None) -> SEEstimate:
    """Mean spectral efficiency, in nats, over ``config.trials`` independent trials.

    Per trial the rate is ln(1 + config.rho * z) with z the maximum per-pair
    sum of normalized fading powers; all-empty trials contribute zero rate.
    Deterministic for a fixed seed regardless of worker count.
    """
    rho = config.rho

    def moments(rates: np.ndarray, n: int) -> tuple[int, float, float]:
        # rho z overflows for rho near the float range; the estimate is then
        # not finite and rejected below, once, so numpy's warnings are silenced.
        with np.errstate(over="ignore", invalid="ignore"):
            rates *= rho
            np.log1p(rates, out=rates)
            mean = float(rates.sum()) / n
            rates -= mean
            np.square(rates, out=rates)
            # the n - len(rates) empty trials have rate 0: each adds mean^2 to M2
            m2 = float(rates.sum()) + (n - len(rates)) * mean * mean
        return n, mean, m2

    n, mean, m2 = _merge_moments(_reduce_chunks(config, workers, moments))
    var = m2 / (n - 1) if n > 1 else 0.0
    std_error = math.sqrt(var / n)
    if not (math.isfinite(mean) and math.isfinite(std_error)):
        raise NumericalError(f"estimate_se: ln(1 + rho z) overflows at rho = {rho!r}")
    return SEEstimate(mean=mean, std_error=std_error, trials=n)


def empirical_opt_power_cdf(
    config: SimConfig, grid_points: np.ndarray, workers: int | None = None
) -> EmpiricalCdf:
    """Empirical CDF of the normalized optimal power, given >= 1 path.

    ``config.rho`` does not enter.  ``grid_points`` must be sorted and
    nonnegative.  Raises :class:`DegenerateSampleError` when every trial
    came up empty.
    """
    grid = np.asarray(grid_points, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise ValueError("grid_points must be a nonempty 1-D sequence")
    # written so that a NaN fails it
    if not (grid[0] >= 0.0 and (np.diff(grid) >= 0.0).all()):
        raise ValueError("grid_points must be sorted and nonnegative")

    def below_grid(kept: np.ndarray, n: int) -> tuple[np.ndarray, int]:
        kept.sort()
        return np.searchsorted(kept, grid, side="right"), len(kept)

    below = np.zeros(len(grid), dtype=np.int64)
    kept_total = 0
    for counts_leq, kept in _reduce_chunks(config, workers, below_grid):
        below += counts_leq
        kept_total += kept
    if kept_total == 0:
        raise DegenerateSampleError(
            "every trial was empty; the conditional CDF is undefined"
        )
    return EmpiricalCdf(
        grid=grid,
        cdf=below / kept_total,
        trials_kept=kept_total,
        trials_total=config.trials,
    )
