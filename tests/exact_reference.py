"""The exact spectral efficiency of the Poisson multipath model, by scipy.

It is the noise-free reference the engine's sample moments and the
closed-form bounds are held to.  It uses scipy's special functions and
adaptive quadrature, none of the package's own kernels, so it stays an
independent check of them.
"""

import math

import numpy as np
from scipy import integrate, stats
from scipy.special import gammaincc

from beamsim.channel import FadingFamily


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
