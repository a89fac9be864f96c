"""The literal per-pair channel model, the reference the engine is tested against.

Each of ``trials`` channels has ``b`` beam pairs, each pair independently
holds a Poisson(lambda0 / b) number of paths, and every path gets its own
unit-mean fading power straight from numpy's ``gamma`` or
``noncentral_chisquare``.  Pair sums are formed by adding up the paths, so
this shares neither the engine's occupancy grouping nor the additivity of
the power laws that ``beamsim.channel.sample_pair_power_sums`` draws from.
"""

import numpy as np

from beamsim.channel import FadingFamily


def path_powers(model, n, rng):
    """``n`` i.i.d. unit-mean single-path powers of ``model``'s law."""
    if model.family is FadingFamily.RAYLEIGH:
        return rng.gamma(1.0, 1.0, n)
    if model.family is FadingFamily.NAKAGAMI_M:
        m = model.parameter
        return rng.gamma(m, 1.0 / m, n)
    k = model.parameter
    # a Rician amplitude's power is ncx2(2, 2K), scaled to unit mean
    return rng.noncentral_chisquare(2.0, 2.0 * k, n) / (2.0 * (1.0 + k))


def realize_channels(lambda0, b, model, trials, rng):
    """Path counts and summed path powers of every pair, each a
    (trials x b) array; a pair holding no path has power 0."""
    counts = rng.poisson(lambda0 / b, size=(trials, b))
    owner = np.repeat(np.arange(counts.size), counts.ravel())
    powers = path_powers(model, len(owner), rng)
    sums = np.bincount(owner, weights=powers, minlength=counts.size)
    return counts, sums.reshape(trials, b)


def strongest_pair_powers(lambda0, b, model, trials, rng):
    """Each trial's normalized optimal power: its strongest pair's sum."""
    _, sums = realize_channels(lambda0, b, model, trials, rng)
    return sums.max(axis=1)
