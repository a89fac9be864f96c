"""Special-function kernel vs independent oracles.

Oracles here are deliberately different algorithms from the library:
Stirling-with-Bernoulli-correction for log Gamma, and smooth-substitution
quadrature for the incomplete gamma and the exponential integral.  scipy
(a test-only dependency) is the independent reference for the in-house
double-exponential quadrature and Brent root finder.
"""

import collections
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, optimize, special

from beamsim import analytic, specfun, validation
from beamsim.analytic import SparseModel
from beamsim.errors import ConvergenceError, NumericalError
from beamsim.specfun import (
    EULER_GAMMA,
    brent_root,
    de_quad,
    exp_e1_scaled,
    exp_integral_e1,
    ln_gamma,
    reg_lower_gamma,
)

# Bernoulli numbers B_2 .. B_16 over 2k(2k-1) x^(2k-1) in the Stirling tail.
_STIRLING_COEFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)


def stirling_ln_gamma(x: float) -> float:
    """Independent log-Gamma oracle: recurrence up to x >= 12, then Stirling."""
    shift = 0.0
    while x < 12.0:
        shift -= math.log(x)
        x += 1.0
    tail = 0.0
    xp = x
    for c in _STIRLING_COEFS:
        tail += c / xp
        xp *= x * x
    return (x - 0.5) * math.log(x) - x + 0.5 * math.log(2.0 * math.pi) + tail + shift


def quad_reg_lower_gamma(m: float, x: float) -> float:
    """P(m, x) by quadrature; r = sqrt(t) removes the m < 1 endpoint singularity."""
    if x == 0.0:
        return 0.0
    val, _ = integrate.quad(
        lambda r: 2.0 * r ** (2.0 * m - 1.0) * math.exp(-r * r),
        0.0,
        math.sqrt(x),
        epsabs=1e-14,
        epsrel=1e-12,
        limit=400,
    )
    return val / math.exp(math.lgamma(m))


def quad_e1(x: float) -> float:
    """E1(x) by quadrature after t = e^u, valid for x <= ~20."""
    val, _ = integrate.quad(
        lambda u: math.exp(-math.exp(u)), math.log(x), 8.0,
        epsabs=0.0, epsrel=1e-13, limit=400,
    )
    return val


class TestLnGamma:
    def test_integer_anchors(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-13)
        assert ln_gamma(2.0) == pytest.approx(0.0, abs=1e-13)
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-12)

    def test_against_stirling_oracle(self):
        for x in [0.5, 0.73, 1.0, 3.2, 7.7, 12.0, 55.5, 133.0, 200.0]:
            assert ln_gamma(x) == pytest.approx(stirling_ln_gamma(x), abs=1e-12)

    def test_dense_grid_accuracy(self):
        for x in np.linspace(0.5, 200.0, 1201):
            assert ln_gamma(float(x)) == math.lgamma(float(x))

    @pytest.mark.parametrize("x", [1e308, math.inf])
    def test_past_the_double_range_is_inf(self, x):
        # math.lgamma overflows near 2.56e305; the limit is +inf
        assert ln_gamma(x) == math.inf

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            ln_gamma(bad)


class TestRegLowerGamma:
    def test_exponential_special_case(self):
        # P(1, x) = 1 - e^-x
        for x in np.linspace(0.01, 20.0, 40):
            assert reg_lower_gamma(1.0, float(x)) == pytest.approx(
                -math.expm1(-float(x)), abs=1e-12
            )

    def test_zero_start(self):
        assert reg_lower_gamma(3.2, 0.0) == 0.0

    def test_shape_past_the_double_range(self):
        # Gamma(1e306) overflows; its log is +inf and P is 0, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reg_lower_gamma(1e306, 1.0) == 0.0

    def test_against_quadrature_oracle(self):
        for m in (0.5, 0.9, 1.0, 2.5, 3.2, 8.0, 20.0, 50.0):
            for x in (1e-6, 0.01, 0.3, 1.0, 2.24, 5.0, 17.0, 80.0, 200.0, 500.0):
                assert reg_lower_gamma(m, x) == pytest.approx(
                    quad_reg_lower_gamma(m, x), abs=1e-10
                )

    def test_example_from_scale(self):
        # shape 3.2 evaluated at 0.7 of its mean-matched argument
        m = 3.2
        x = m * 0.7
        assert reg_lower_gamma(m, x) == pytest.approx(quad_reg_lower_gamma(m, x), abs=1e-10)

    def test_monotone_and_limits(self):
        for m in (0.5, 1.0, 3.2, 20.0, 50.0):
            grid = np.linspace(0.0, 500.0 + 10.0 * m, 200)
            vals = [reg_lower_gamma(m, float(x)) for x in grid]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            assert 0.0 <= min(vals) and max(vals) <= 1.0
            assert reg_lower_gamma(m, 500.0 + 10.0 * m) > 1.0 - 1e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            reg_lower_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_lower_gamma(-2.0, 1.0)
        with pytest.raises(ValueError):
            reg_lower_gamma(1.0, -0.1)
        with pytest.raises(ValueError):
            reg_lower_gamma(3.2, math.nan)
        with pytest.raises(ValueError):
            reg_lower_gamma(np.array([1.0, 3.2]), np.array([0.5, math.nan]))

    def test_broadcast_grid_against_scipy(self):
        m = np.array([0.5, 0.9, 1.0, 2.5, 3.2, 8.0, 20.0, 50.0])[:, None]
        x = np.concatenate([[0.0], np.geomspace(1e-6, 500.0, 60)])
        got = reg_lower_gamma(m, x)
        assert got.shape == (8, 61)
        np.testing.assert_allclose(got, special.gammainc(m, x), rtol=0.0, atol=1e-10)
        assert isinstance(reg_lower_gamma(3.2, 2.24), float)


class TestExpIntegral:
    def test_reference_point(self):
        assert exp_integral_e1(1.0) == pytest.approx(quad_e1(1.0), rel=1e-10)
        assert exp_integral_e1(1.0) == pytest.approx(0.2193839, abs=5e-8)

    def test_small_argument_series_oracle(self):
        # E1(x) = -gamma - ln x + x - x^2/4 + O(x^3)
        x = 1e-6
        series = -EULER_GAMMA - math.log(x) + x - x * x / 4.0
        assert exp_integral_e1(x) == pytest.approx(series, rel=1e-10)

    def test_against_quadrature_oracle(self):
        for x in np.logspace(-8, math.log10(20.0), 40):
            assert exp_integral_e1(float(x)) == pytest.approx(quad_e1(float(x)), rel=1e-10)

    def test_scaled_against_quadrature_oracle(self):
        for x in np.logspace(0.0, math.log10(700.0), 25):
            ref, _ = integrate.quad(
                lambda v: math.exp(-v) / (float(x) + v), 0.0, np.inf,
                epsabs=0.0, epsrel=1e-13, limit=300,
            )
            assert exp_e1_scaled(float(x)) == pytest.approx(ref, rel=1e-10)

    def test_log_upper_bound(self):
        # e^x E1(x) <= ln(1 + 1/x), the bound the SE analysis leans on
        for x in np.logspace(-6, 2, 200):
            assert exp_e1_scaled(float(x)) <= math.log1p(1.0 / float(x))

    def test_derivative(self):
        # d/dx E1(x) = -exp(-x)/x by central finite difference
        for x in np.linspace(0.1, 10.0, 34):
            x = float(x)
            h = 1e-5 * x
            fd = (exp_integral_e1(x + h) - exp_integral_e1(x - h)) / (2.0 * h)
            assert fd == pytest.approx(-math.exp(-x) / x, rel=1e-6)

    def test_underflow_documented(self):
        assert exp_integral_e1(750.0) == 0.0
        assert exp_e1_scaled(750.0) > 0.0

    def test_infinity_is_the_limit(self):
        # e^x E1(x) ~ 1/x, so both are 0 at x = inf, where 1/rho of a bound is finite but 2/rho is not
        assert exp_e1_scaled(math.inf) == 0.0
        assert exp_integral_e1(math.inf) == 0.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, -math.inf])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            exp_integral_e1(bad)
        with pytest.raises(ValueError):
            exp_e1_scaled(bad)


class TestDeQuad:
    @pytest.mark.parametrize(
        "f, a, b, exact",
        [
            (lambda x, c: np.exp(-x), 0.0, math.inf, 1.0),
            (lambda x, c: np.exp(-x * x), -3.0, 3.0, math.sqrt(math.pi) * math.erf(3.0)),
            (lambda x, c: 1.0 / np.sqrt(x), 0.0, 1.0, 2.0),
            (lambda x, c: np.log(c), 0.0, 1.0, -1.0),
            (lambda x, c: 1.0 / (1.0 + x * x), 0.0, math.inf, math.pi / 2.0),
            (lambda x, c: np.exp(-x) / (5.0 + x), 2.0, math.inf, math.exp(5.0) * exp_integral_e1(7.0)),
        ],
        ids=[
            "exp_half_line", "gaussian", "sqrt_singular", "log_singular_at_b", "algebraic_tail",
            "shifted_half_line",
        ],
    )
    def test_known_integrals(self, f, a, b, exact):
        value, err = de_quad(f, a, b)
        assert value == pytest.approx(exact, rel=1e-12)
        assert err <= 1e-11 * abs(value)

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 2.0)])
    def test_complement_is_exact_near_b(self, a, b):
        # c = b - x is resolved down to ~1e-61 and never rounds to 0, while
        # x itself rounds to b there
        seen = []

        def f(x, c):
            seen.append((x, c))
            return np.ones_like(x)

        value, _ = de_quad(f, a, b)
        assert value == pytest.approx(b - a, rel=1e-14)
        x = np.concatenate([s[0] for s in seen])
        c = np.concatenate([s[1] for s in seen])
        assert (c > 0.0).all() and c.min() < 1e-50
        assert (x >= a).all() and (x <= b).all()
        if a == 0.0:
            assert (x > 0.0).all() and x.min() < 1e-50
        near_b = c < 1e-3
        assert np.allclose(x[near_b] + c[near_b], b, rtol=0, atol=4e-16)

    def test_half_line_complement_is_infinite(self):
        def f(x, c):
            assert (c == math.inf).all() and (x > 0.0).all()
            return np.exp(-x)

        de_quad(f, 0.0, math.inf)

    def test_non_convergent_integrand_reports_its_error(self):
        # sin(1/x) oscillates without bound next to x = 0, where the nodes
        # cluster: the level cap is reached with an estimate far above tolerance
        value, err = de_quad(lambda x, c: np.sin(1.0 / x), 0.0, 1.0)
        assert math.isfinite(value)
        assert err > 1e-6

    def test_non_finite_sum_has_infinite_error(self):
        value, err = de_quad(lambda x, c: np.full_like(x, math.inf), 0.0, 1.0)
        assert err == math.inf

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 1.0), (-math.inf, 0.0), (0.0, math.nan)])
    def test_domain(self, a, b):
        with pytest.raises(ValueError):
            de_quad(lambda x, c: x, a, b)


def _bits(value) -> str:
    return float(value).hex()


class TestRowBatchedDeQuad:
    """A (rows x nodes) integrand: each row stops at its own level and gets
    the bits of its own one-row call."""

    @staticmethod
    def integrands():
        # a node of level 1 only, where 1 / (x - x1) turns the sum infinite
        x1 = float(specfun._de_level(False, 1)[0][3])
        return [
            lambda x, c: np.ones_like(x),
            lambda x, c: np.exp(-x * x),
            lambda x, c: np.sin(1.0 / x),
            lambda x, c: 1.0 / (x - x1),
            lambda x, c: 1.0 / np.sqrt(x),
            lambda x, c: np.sin(3.0 / x),
            lambda x, c: np.log(c),
        ]

    def batched(self, calls):
        fs = self.integrands()

        def f(x, c, active):
            calls.update(active)
            with np.errstate(divide="ignore"):
                return np.array([fs[i](x, c) for i in active])

        return f

    @pytest.mark.parametrize("block", [specfun._DE_BLOCK, 40], ids=["one_block", "many_blocks"])
    def test_rows_are_their_own_calls(self, monkeypatch, block):
        monkeypatch.setattr(specfun, "_DE_BLOCK", block)
        calls = collections.Counter()
        fs = self.integrands()
        values, errors = de_quad(self.batched(calls), 0.0, 1.0, rows=len(fs))
        assert values.shape == errors.shape == (len(fs),)
        for i, f in enumerate(fs):
            with np.errstate(divide="ignore"):
                value, err = de_quad(f, 0.0, 1.0)
            assert (_bits(values[i]), _bits(errors[i])) == (_bits(value), _bits(err)), i
        # levels evaluated per row: the constant converges at the first level
        # allowed, sin(k/x) runs to the cap, and 1/(x - x1) stops at level 1
        assert calls[0] == specfun.DE_MIN_LEVEL + 1
        assert calls[2] == calls[5] == specfun.DE_MAX_LEVEL + 1
        assert calls[3] == 2 and errors[3] == math.inf and not math.isfinite(values[3])
        for i in (0, 1, 4, 6):
            assert errors[i] <= 1e-11 * abs(values[i]), i

    def test_non_finite_row_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, errors = de_quad(
                lambda x, c, active: np.where(np.array(active)[:, None] == 1, math.inf, np.exp(-x)),
                0.0, math.inf, rows=3,
            )
        assert errors[1] == math.inf and (errors[[0, 2]] < 1e-11).all()

    def test_no_rows(self):
        values, errors = de_quad(lambda x, c, active: np.empty((len(active), x.size)), 0.0, 1.0, rows=0)
        assert values.shape == errors.shape == (0,)


class TestValidationOraclesAgainstScipy:
    """Each quadrature oracle of ``validation`` against ``scipy.integrate.quad``."""

    def test_surrogate_density_normalization(self):
        for p, b, m in ((0.0156, 121, 1.0), (0.0156, 121, 3.0), (0.003, 625, 3.0)):
            model = SparseModel.from_p(p, b, m)
            pdf = lambda x: analytic.opt_power_pdf_bound(x, model)
            ref, _ = integrate.quad(pdf, 0.0, np.inf, epsabs=1e-12, epsrel=1e-10, limit=400)
            got = validation._integral(pdf, 0.0, math.inf, rtol=1e-10, atol=1e-12)
            assert got == pytest.approx(ref, rel=1e-10)

    def test_pattern_and_density_se(self):
        def pattern_ref(p, b, rho):
            total = 0.0
            for k in range(1, b + 1):
                val, _ = integrate.quad(
                    lambda x: math.log1p(rho * x) * k * (1.0 - math.exp(-x)) ** (k - 1) * math.exp(-x),
                    0.0, np.inf, epsabs=1e-12, epsrel=1e-11, limit=300,
                )
                total += math.comb(b, k) * p**k * (1.0 - p) ** (b - k) * val
            return total

        for b in (1, 2, 3):
            for p in (0.2, 0.5):
                for rho in (1.0, 5.0):
                    ref = pattern_ref(p, b, rho)
                    assert validation._pattern_se(p, b, rho) == pytest.approx(ref, rel=1e-10)
                    model = SparseModel.from_p(p, b, 1.0)
                    dens, _ = integrate.quad(
                        lambda x: math.log1p(rho * x) * analytic.opt_power_pdf_exact(x, model),
                        0.0, np.inf, epsabs=1e-13, epsrel=1e-11, limit=300,
                    )
                    assert validation._density_se(p, b, rho) == pytest.approx(
                        model.prob_any() * dens, rel=1e-10
                    )

    def test_exponential_integral_oracles(self):
        for x in np.logspace(-8, math.log10(5.0), 25):
            assert validation._e1_quad_oracle(float(x)) == pytest.approx(quad_e1(float(x)), rel=1e-12)
        for x in np.logspace(math.log10(5.0), math.log10(700.0), 15):
            ref, _ = integrate.quad(
                lambda v: math.exp(-v) / (float(x) + v), 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=300
            )
            assert validation._e1_scaled_quad_oracle(float(x)) == pytest.approx(ref, rel=1e-12)

    def test_unconverged_quadrature_is_an_error(self, monkeypatch):
        # an oracle takes only an estimate within its tolerances
        monkeypatch.setattr(specfun, "de_quad", lambda *args, **kwargs: (1.0, 1.0))
        with pytest.raises(NumericalError, match="did not converge"):
            validation.run_validation(criteria=[5])

    def test_incomplete_gamma_oracle(self):
        for m in (0.5, 1.0, 2.5, 3.2, 8.0, 20.0, 50.0):
            for x in (1e-6, 0.01, 0.3, 1.0, 2.24, 5.0, 17.0, 80.0, 200.0, 500.0):
                assert validation._gamma_quad_oracle(m, x) == pytest.approx(
                    quad_reg_lower_gamma(m, x), rel=1e-10, abs=1e-13
                )


class TestBrentRoot:
    @pytest.mark.parametrize(
        "f, a, b",
        [
            (lambda x: x * x - 2.0, 0.0, 2.0),
            (lambda x: math.cos(x) - x, 0.0, 1.0),
            (lambda x: math.exp(x) - 1e6, 0.0, 50.0),
            (lambda x: (x - 1.0) ** 3, -3.0, 10.0),
            (lambda x: math.log(x) - 20.0, 1.0, 1e12),
        ],
        ids=["sqrt2", "dottie", "exp", "triple_root", "wide_bracket"],
    )
    def test_matches_scipy_brentq(self, f, a, b):
        ref = optimize.brentq(f, a, b, rtol=1e-12, maxiter=200)
        assert brent_root(f, a, b, rtol=1e-12, maxiter=200) == pytest.approx(ref, rel=1e-12)

    def test_endpoint_root(self):
        assert brent_root(lambda x: x - 1.0, 1.0, 2.0, rtol=1e-12, maxiter=200) == 1.0
        assert brent_root(lambda x: x - 2.0, 1.0, 2.0, rtol=1e-12, maxiter=200) == 2.0

    @pytest.mark.parametrize("f", [lambda x: x * x + 1.0, lambda x: math.nan], ids=["same_sign", "nan"])
    def test_failed_bracket_raises(self, f):
        with pytest.raises(NumericalError, match="bracket"):
            brent_root(f, -1.0, 1.0, rtol=1e-12, maxiter=200)

    def test_iteration_cap_raises(self):
        with pytest.raises(ConvergenceError):
            brent_root(lambda x: x**3 - 2.0, 0.0, 2.0, rtol=1e-12, maxiter=3)
