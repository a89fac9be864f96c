"""Closed-form distribution and bound layer, and the library's input checks.

The heavier oracle comparisons (pattern enumeration, density quadrature,
simulation sweeps) live in test_acceptance; here each operation is checked
against hand values, reductions, and cross-path agreement.
"""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammainc

from beamsim import specfun
from beamsim.analytic import (
    SparseModel,
    bernoulli_p,
    opt_power_cdf,
    opt_power_pdf_bound,
    opt_power_pdf_exact,
    se_lower,
    se_sparse_approx,
    se_upper_nakagami,
    se_upper_rayleigh,
    surrogate_rate,
)
from beamsim.channel import FadingModel
from beamsim.errors import NumericalError
from beamsim.montecarlo import SimConfig, empirical_opt_power_cdf
from beamsim.specfun import EULER_GAMMA
from beamsim.throughput import ThroughputConfig, throughput_continuous
from beamsim.validation import _max_exp_log_moment, _mixture_upper_se
from exact_reference import exact_multipath_se


class TestBernoulliP:
    def test_values(self):
        assert bernoulli_p(1.9, 121) == pytest.approx(1 - math.exp(-1.9 / 121), rel=1e-14)
        assert bernoulli_p(1.9, 121) == pytest.approx(0.0155803, abs=1e-6)
        assert bernoulli_p(1e-12, 5) == pytest.approx(2e-13, rel=1e-3)

    def test_all_empty_identity(self):
        p = bernoulli_p(1.9, 121)
        assert (1 - p) ** 121 == pytest.approx(math.exp(-1.9), rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            bernoulli_p(0.0, 10)
        with pytest.raises(ValueError):
            bernoulli_p(1.0, 0)


class TestSparseModelDomain:
    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: SparseModel.from_occupancy(1.9, 121, math.inf), "Nakagami shape"),
            (lambda: SparseModel.from_occupancy(1.9, 121, math.nan), "Nakagami shape"),
            (lambda: SparseModel.from_p(0.1, 9, math.inf), "Nakagami shape"),
            (lambda: SparseModel.from_occupancy(math.inf, 121, 1.0), "lambda0"),
            (lambda: SparseModel(p=0.1, b=9, m=1.0, lambda0=math.inf), "lambda0"),
        ],
        ids=["m_inf", "m_nan", "from_p_m_inf", "lambda0_inf", "direct_lambda0_inf"],
    )
    def test_rejects_non_finite(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    @pytest.mark.parametrize("lambda0, p", [(1e308, "1.0"), (5e-324, "0.0")])
    def test_rounded_occupancy_names_lambda0_and_b(self, lambda0, p):
        with pytest.raises(ValueError) as exc:
            SparseModel.from_occupancy(lambda0, 121, 1.0)
        assert str(exc.value).startswith(f"lambda0 = {lambda0!r} over b = 121 ")
        assert f"round to {p}" in str(exc.value)


MODEL = SparseModel.from_occupancy(1.9, 121, 1.0)
SIM = SimConfig(1.9, 121, 10.0, FadingModel.rayleigh(), 100, 1)
PLANNER = ThroughputConfig(t_f=5e-6, t_total=1e-3, k=0.005, lambda0=1.9)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: se_sparse_approx(math.nan, 1.0), "^lambda0 must be finite and >= 0"),
        (lambda: se_sparse_approx(math.inf, 1.0), "^lambda0 must be finite and >= 0"),
        (lambda: se_sparse_approx(-1.0, 1.0), "^lambda0 must be finite and >= 0"),
        (lambda: empirical_opt_power_cdf(SIM, [0.0, math.nan, 1.0]), "^grid_points must be sorted"),
        (lambda: empirical_opt_power_cdf(SIM, [math.nan]), "^grid_points must be sorted"),
        (lambda: empirical_opt_power_cdf(SIM, [1.0, 0.5]), "^grid_points must be sorted"),
        (lambda: empirical_opt_power_cdf(SIM, [-1.0, 0.5]), "^grid_points must be sorted"),
        (lambda: empirical_opt_power_cdf(SIM, []), "^grid_points must be a nonempty 1-D"),
        (lambda: empirical_opt_power_cdf(SIM, [[0.0, 1.0]]), "^grid_points must be a nonempty 1-D"),
        (lambda: SparseModel(p=0.0, b=9, m=1.0, lambda0=1.0), "^occupancy probability must be in"),
        (lambda: SparseModel(p=math.nan, b=9, m=1.0, lambda0=1.0), "^occupancy probability must be in"),
        (lambda: SparseModel(p=0.1, b=0, m=1.0, lambda0=1.0), "^pair count must be >= 1"),
        (lambda: SparseModel.from_p(1.0, 9, 1.0), "^occupancy probability must be in"),
        (lambda: SparseModel.from_p(math.nan, 9, 1.0), "^occupancy probability must be in"),
        (lambda: se_lower(MODEL, math.nan), "^rho must be > 0"),
        (lambda: se_sparse_approx(1.9, 0.0), "^rho must be > 0"),
        (lambda: se_upper_rayleigh(MODEL, -1.0), "^rho must be > 0"),
        (lambda: ThroughputConfig(t_f=5e-6, t_total=1e-3, k=0.005, lambda0=1.9, n_b=0), "^n_b must be >= 1"),
        (lambda: throughput_continuous(0.5, PLANNER), "^beam pair count must be >= 1"),
        (lambda: throughput_continuous(math.nan, PLANNER), "^beam pair count must be >= 1"),
    ],
    ids=[
        "sparse_lambda0_nan", "sparse_lambda0_inf", "sparse_lambda0_negative", "cdf_grid_nan_inside",
        "cdf_grid_nan_only", "cdf_grid_unsorted", "cdf_grid_negative", "cdf_grid_empty", "cdf_grid_2d",
        "model_p_zero", "model_p_nan", "model_b_zero", "from_p_one", "from_p_nan", "lower_rho_nan",
        "sparse_rho_zero", "rayleigh_rho_negative", "planner_n_b_zero", "tp_b_below_one", "tp_b_nan",
    ],
)
def test_library_rejects_bad_input(call, match):
    # NaN and infinity included: each is a ValueError, never a NaN result
    with pytest.raises(ValueError, match=match):
        call()


class TestOptPowerCdf:
    def test_hand_value(self):
        model = SparseModel.from_p(0.5, 2, 1.0)
        assert opt_power_cdf(math.log(2.0), model) == pytest.approx(0.4166667, abs=1e-7)

    def test_endpoints(self):
        model = SparseModel.from_occupancy(1.9, 121, 3.2)
        assert opt_power_cdf(0.0, model) == 0.0
        assert opt_power_cdf(1e6, model) == pytest.approx(1.0, abs=1e-12)

    def test_monotone(self):
        model = SparseModel.from_occupancy(1.9, 121, 3.2)
        grid = np.linspace(0.0, 20.0, 400)
        vals = [opt_power_cdf(float(x), model) for x in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_matches_two_pair_enumeration(self):
        # exact check against direct enumeration of a 2-pair Bernoulli max
        p, x = 0.3, 0.8
        model = SparseModel.from_p(p, 2, 1.0)
        g = -math.expm1(-x)
        direct = (2 * p * (1 - p) * g + p * p * g * g) / (1 - (1 - p) ** 2)
        assert opt_power_cdf(x, model) == pytest.approx(direct, rel=1e-12)


class TestArrayLaws:
    LAWS = (opt_power_cdf, opt_power_pdf_exact, opt_power_pdf_bound)

    @pytest.mark.parametrize("m", [0.5, 1.0, 3.2])
    def test_array_is_elementwise_bit_for_bit(self, m):
        model = SparseModel.from_occupancy(1.9, 121, m)
        grid = np.concatenate([[0.0], np.geomspace(1e-12, 1e3, 200), np.linspace(0.0, 12.0, 121)])
        for law in self.LAWS:
            whole = law(grid, model)
            assert whole.shape == grid.shape
            one_by_one = np.array([law(float(x), model) for x in grid])
            assert whole.tobytes() == one_by_one.tobytes()

    def test_float_in_float_out(self):
        model = SparseModel.from_occupancy(1.9, 121, 3.2)
        for law in self.LAWS:
            assert type(law(0.7, model)) is float
            assert type(law(0.0, model)) is float

    def test_negative_element_raises(self):
        model = SparseModel.from_occupancy(1.9, 121, 3.2)
        for law in self.LAWS:
            with pytest.raises(ValueError):
                law(np.array([0.5, -1e-9, 2.0]), model)
            with pytest.raises(ValueError):
                law(-0.1, model)

    @pytest.mark.parametrize("m", [0.5, 1.0, 3.2, 1000.0])
    @pytest.mark.parametrize("z", [1e308, math.inf])
    def test_huge_power_is_the_limit(self, m, z):
        # m z (or a z for the surrogate) overflows or is +inf: the CDF is 1
        # and both densities 0, with no warning (warnings are errors here)
        model = SparseModel.from_occupancy(1.9, 121, m)
        assert opt_power_cdf(z, model) == 1.0
        assert opt_power_pdf_exact(z, model) == 0.0
        assert opt_power_pdf_bound(z, model) == 0.0


class TestSurrogateDensity:
    def test_m1_reduction(self):
        # at m = 1 the surrogate rate is 1 and the density collapses
        model = SparseModel.from_p(0.2, 10, 1.0)
        assert surrogate_rate(1.0) == pytest.approx(1.0, rel=1e-14)
        for x in (0.0, 0.3, 1.7, 6.0):
            expected = (
                0.2 * 10 / (1 - 0.8**10)
                * (1 - 0.2 * math.exp(-x)) ** 9
                * math.exp(-x)
            )
            assert opt_power_pdf_bound(x, model) == pytest.approx(expected, rel=1e-12)

    def test_normalization(self):
        for p, b, m in ((0.0156, 121, 3.0), (0.003, 625, 3.0), (0.05, 40, 2.5)):
            model = SparseModel.from_p(p, b, m)
            val, _ = integrate.quad(
                lambda x: opt_power_pdf_bound(x, model), 0, np.inf, limit=400
            )
            assert val == pytest.approx(1.0, abs=1e-6)

    def test_zero_behavior(self):
        assert opt_power_pdf_bound(0.0, SparseModel.from_p(0.1, 9, 3.0)) == 0.0
        assert opt_power_pdf_bound(0.0, SparseModel.from_p(0.1, 9, 0.5)) == math.inf

    def test_exact_density_integrates_to_one(self):
        for p, b, m in ((0.0156, 121, 1.0), (0.01, 100, 3.2)):
            model = SparseModel.from_p(p, b, m)
            val, _ = integrate.quad(
                lambda x: opt_power_pdf_exact(x, model), 0, np.inf, limit=400
            )
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_exact_density_matches_cdf_derivative(self):
        model = SparseModel.from_p(0.05, 30, 2.2)
        for x in (0.2, 0.9, 2.5):
            h = 1e-6
            fd = (opt_power_cdf(x + h, model) - opt_power_cdf(x - h, model)) / (2 * h)
            assert opt_power_pdf_exact(x, model) == pytest.approx(fd, rel=1e-5)


class TestSurrogateOrder:
    """(1 - e^{-a x})^shape with a = surrogate_rate(shape) against the
    Gamma(m, 1/m) CDF on 40,001 log-spaced x in [1e-8, 316] (Alzer 1997,
    Thm 1, for shape m)."""

    X = np.logspace(-8, math.log10(316.0), 40_001)

    def gap(self, shape, m):
        return (-np.expm1(-surrogate_rate(shape) * self.X)) ** shape - gammainc(m, m * self.X)

    @pytest.mark.parametrize("m", [0.5, 0.7, 0.9])
    def test_above_the_gamma_cdf_for_m_below_1(self, m):
        assert self.gap(m, m).min() >= 0.0

    @pytest.mark.parametrize("m", [1.5, 2.0, 3.2, 5.0, 10.0, 100.0, 1000.0])
    def test_below_the_gamma_cdf_for_m_above_1(self, m):
        # at m = 100 the Gamma CDF underflows a step before the surrogate,
        # which leaves +5.2e-311 near x = 1e-2
        assert self.gap(m, m).max() <= 1e-300

    @pytest.mark.parametrize("m, lo, hi", [(1.5, -2.5e-2, 8.5e-2), (3.2, -6.3e-2, 4.2e-3)])
    def test_floor_shape_crosses_at_non_integer_m(self, m, lo, hi):
        # the shape se_upper_nakagami takes for m >= 1 has no order there
        gap = self.gap(math.floor(m), m)
        assert gap.min() == pytest.approx(lo, rel=0.02) and gap.max() == pytest.approx(hi, rel=0.02)


class TestSeLowerAndSparse:
    def test_reference_value(self):
        model = SparseModel.from_occupancy(1.9, 121, 1.0)
        assert se_lower(model, 0.636842) == pytest.approx(0.41907, abs=2e-5)

    def test_tiny_occupancy(self):
        model = SparseModel.from_occupancy(1e-9, 121, 1.0)
        assert se_lower(model, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_large_b_limit(self):
        # (1-p)^B = exp(-lambda0) exactly, so the B -> inf limit is reached already
        lam0, rho = 1.7, 2.0
        model = SparseModel.from_occupancy(lam0, 10**6, 1.0)
        assert se_lower(model, rho) == pytest.approx(
            (-math.expm1(-lam0)) * math.log1p(rho), rel=1e-12
        )

    def test_sparse_zero(self):
        assert se_sparse_approx(0.0, 1.0) == 0.0

    def test_sparse_dominates_both_bounds(self):
        # lambda0 ln(1+rho) upper-envelopes both expressions and converges to
        # them in the doubly sparse regime (small lambda0 AND small rho)
        lam0, b, rho = 0.1, 10_000, 0.05
        model = SparseModel.from_occupancy(lam0, b, 1.0)
        sparse = se_sparse_approx(lam0, rho)
        lower = se_lower(model, rho)
        upper = se_upper_rayleigh(model, rho)
        assert sparse >= upper >= 0.0
        assert sparse >= lower >= 0.0
        assert (sparse - lower) / lower <= 0.06
        assert (sparse - upper) / upper <= 0.06

    def test_looseness_outside_sparse_regime(self):
        model = SparseModel.from_occupancy(1.9, 121, 1.0)
        rho = 0.6368
        assert se_sparse_approx(1.9, rho) == pytest.approx(0.93626, abs=2e-4)
        assert se_sparse_approx(1.9, rho) > se_lower(model, rho)


class TestSeUpperRayleigh:
    def test_reference_value(self):
        model = SparseModel.from_occupancy(1.25, 625, 1.0)
        assert se_upper_rayleigh(model, 5.0) == pytest.approx(1.398025, abs=1e-5)

    def test_bounded_by_sparse_chain(self):
        # the scaled-E1 log bound forces upper <= p B ln(1 + rho)
        for lam0 in (0.3, 1.0, 1.9, 3.5):
            for b in (121, 625):
                for rho in (0.1, 1.0, 5.0, 40.0):
                    model = SparseModel.from_occupancy(lam0, b, 1.0)
                    assert se_upper_rayleigh(model, rho) <= model.p * b * math.log1p(rho) + 1e-12

    def test_log_growth_rate(self):
        # for rho -> inf the bound grows like p B (1 - (1-e^-lam0)/2) ln rho
        lam0, b = 1.25, 625
        model = SparseModel.from_occupancy(lam0, b, 1.0)
        rho = 1e8
        c = (-math.expm1(-lam0)) / 2.0
        asym = model.p * b * (
            (math.log(rho) - EULER_GAMMA) - c * (math.log(rho / 2.0) - EULER_GAMMA)
        )
        assert se_upper_rayleigh(model, rho) == pytest.approx(asym, rel=1e-6)

    def test_lower_below_upper_on_grid(self):
        for lam0 in np.linspace(1.0, 3.5, 11):
            for b in (121, 625):
                model = SparseModel.from_occupancy(float(lam0), b, 1.0)
                rho = b * 0.01 / float(lam0)
                assert se_lower(model, rho) <= se_upper_rayleigh(model, rho)


class TestSeUpperNakagami:
    def test_series_matches_quadrature_m1(self):
        # closed binomial mixture of exponential maxima vs the quadrature
        for b in (1, 2, 3):
            model = SparseModel.from_occupancy(1.25, b, 1.0)
            assert se_upper_nakagami(model, 5.0) == pytest.approx(
                _mixture_upper_se(model, 5.0), rel=1e-9
            )

    def test_series_matches_quadrature_integer_shapes(self):
        # floor(m) sets the surrogate shape, so m = 2.4 uses the m = 2 mixture
        for lam0, b, m, rho in ((0.6, 3, 2.0, 1.5), (0.3, 2, 3.0, 4.0), (1.0, 3, 2.4, 1.0)):
            model = SparseModel.from_occupancy(lam0, b, m)
            assert se_upper_nakagami(model, rho) == pytest.approx(
                _mixture_upper_se(model, rho), rel=1e-9
            )

    def test_m1_equals_exact_bernoulli_se(self):
        # at m = 1 the surrogate is exact, so the "bound" is the model SE
        p, b, rho = 0.002, 625, 5.0
        model = SparseModel.from_p(p, b, 1.0)
        exact, _ = integrate.quad(
            lambda P: rho / (1 + rho * P) * (-np.expm1(b * np.log1p(-p * np.exp(-P)))),
            0,
            np.inf,
            limit=400,
        )
        assert se_upper_nakagami(model, rho) == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize(
        "lam0, b, m, rho",
        [(3.5, 625, 3.2, 1.7857), (1.9, 121, 0.7, 0.6368)],
        ids=["deep_outer_tail", "shape_below_one"],
    )
    def test_finite_and_positive(self, lam0, b, m, rho):
        value = se_upper_nakagami(SparseModel.from_occupancy(lam0, b, m), rho)
        assert math.isfinite(value) and value > 0.0

    def test_vanishes_at_zero_snr(self):
        model = SparseModel.from_occupancy(1.9, 121, 3.2)
        assert se_upper_nakagami(model, 1e-9) == pytest.approx(0.0, abs=1e-8)

    def test_inner_sum_certification_helpers(self):
        # survival form E[h(M)] = int h'(P) (1 - F(P)) dP, cancellation-free
        a, rho = 1.6509636, 2.0
        for n in (1, 2, 5, 12):
            q, _ = integrate.quad(
                lambda P: rho / (1.0 + rho * P) * -math.expm1(n * math.log1p(-math.exp(-a * P))),
                0.0,
                math.inf,
                epsabs=1e-13,
                epsrel=1e-11,
                limit=300,
            )
            assert _max_exp_log_moment(n, a, rho) == pytest.approx(q, rel=1e-9)

    @staticmethod
    def scipy_upper(model, rho):
        """The bound by scipy's adaptive quadrature of the same y-integrand."""
        shape = float(math.floor(model.m)) if model.m >= 1.0 else model.m
        a, p, b = surrogate_rate(shape), model.p, model.b

        def integrand(y):
            power = -math.log1p(-(y ** (1.0 / shape))) / a
            return p * b * math.log1p(rho * power) * math.exp((b - 1) * math.log1p(-p * (1.0 - y)))

        value, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-11, limit=400)
        return value

    def test_matches_scipy_quad_on_sweep_grids(self):
        # the m, B and rho sections of the bounds benchmark sweep
        points = [(1.9, 121, float(m), 121 * 0.01 / 1.9) for m in np.linspace(0.6, 4.0, 69)]
        points += [
            (1.9, int(round(b)), 3.2, int(round(b)) * 0.01 / 1.9) for b in np.linspace(16, 1024, 127)
        ]
        points += [(1.9, 121, 1.5, float(rho)) for rho in np.linspace(0.5, 50.0, 100)]
        for lam0, b, m, rho in points:
            model = SparseModel.from_occupancy(lam0, b, m)
            assert se_upper_nakagami(model, rho) == pytest.approx(self.scipy_upper(model, rho), rel=1e-10)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_matches_scipy_quad_on_stress_grid(self):
        checked = 0
        for lam0 in (1e-6, 1e-4, 1e-2, 1.0, 10.0, 100.0, 1e3):
            for b in (1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000):
                for m in (0.5, 0.7, 1.0, 3.2, 20.0):
                    try:
                        model = SparseModel.from_occupancy(lam0, b, m)
                    except ValueError:
                        continue        # p = 1 - exp(-lam0/B) rounds to 1
                    for rho in (1e-4, 1.0, 1e4):
                        assert se_upper_nakagami(model, rho) == pytest.approx(
                            self.scipy_upper(model, rho), rel=1e-10, abs=1e-13
                        )
                        checked += 1
        assert checked >= 780

    def test_unconverged_quadrature_raises(self, monkeypatch):
        # one step-halving is far from converged on this integrand
        monkeypatch.setattr(specfun, "DE_MAX_LEVEL", 1)
        with pytest.raises(NumericalError, match="failed to converge"):
            se_upper_nakagami(SparseModel.from_occupancy(1.9, 121, 3.2), 0.6)

    def test_non_finite_integral_raises(self):
        with pytest.raises(NumericalError, match="failed to converge"):
            se_upper_nakagami(SparseModel.from_occupancy(1.9, 121, 3.2), math.inf)

    def test_monotone_in_rho(self):
        model = SparseModel.from_occupancy(1.9, 121, 3.2)
        rhos = np.logspace(-2, 1.5, 25)
        vals = [se_upper_nakagami(model, float(r)) for r in rhos]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def _bounds_sweep_points():
    """(model, rho) of the m, B and rho sections of the bounds benchmark
    sweep, as the CLI builds them: 296 points, m < 1 among them."""
    points = [(1.9, 121, float(m), 121 * 0.01 / 1.9) for m in np.linspace(0.6, 4.0, 69)]
    points += [(1.9, int(round(b)), 3.2, int(round(b)) * 0.01 / 1.9) for b in np.linspace(16, 1024, 127)]
    points += [(1.9, 121, 1.5, float(rho)) for rho in np.linspace(0.5, 50.0, 100)]
    return [(SparseModel.from_occupancy(lam0, b, m), rho) for lam0, b, m, rho in points]


class TestSeUpperNakagamiSequence:
    """A sequence of points is one row-batched quadrature with the bits of
    the per-point calls."""

    def test_bounds_sweep_points_bit_for_bit(self):
        points = _bounds_sweep_points()
        assert len(points) == 296 and any(model.m < 1.0 for model, _ in points)
        models, rhos = zip(*points)
        batched = se_upper_nakagami(models, rhos)
        assert isinstance(batched, np.ndarray) and batched.shape == (296,)
        for (model, rho), value in zip(points, batched.tolist()):
            single = se_upper_nakagami(model, rho)
            assert type(single) is float
            assert value.hex() == single.hex(), (model, rho)

    def test_one_point_sequence_is_an_array(self):
        model = SparseModel.from_occupancy(1.9, 121, 3.2)
        batched = se_upper_nakagami([model], [0.6])
        assert isinstance(batched, np.ndarray) and batched.tolist() == [se_upper_nakagami(model, 0.6)]
        assert se_upper_nakagami([], []).shape == (0,)

    def test_failing_point_raises_its_scalar_error(self):
        model = SparseModel.from_occupancy(1.9, 121, 3.2)
        with pytest.raises(NumericalError) as scalar:
            se_upper_nakagami(model, math.inf)
        with pytest.raises(NumericalError) as batched:
            se_upper_nakagami([model] * 4, [0.6, 1.0, math.inf, math.inf])
        assert str(batched.value) == str(scalar.value)

    def test_bad_rho_in_a_sequence(self):
        model = SparseModel.from_occupancy(1.9, 121, 3.2)
        with pytest.raises(ValueError, match=r"rho must be > 0, got -1\.0"):
            se_upper_nakagami([model] * 2, [0.6, -1.0])
        with pytest.raises(ValueError, match="do not pair"):
            se_upper_nakagami([model] * 2, [0.6] * 3)
        with pytest.raises(ValueError, match="do not pair"):
            se_upper_nakagami(model, [0.6] * 2)


class TestWhereEachBoundHolds:
    """The sign of each bound minus the noise-free exact SE.  Every gap is
    at least 2.2e-4 in size, far above the bounds' 1e-7 quadrature tolerance."""

    @pytest.mark.parametrize(
        "lambda0, b, fading, upper_nakagami, upper_rayleigh, lower",
        [
            (1.25, 625, FadingModel.rayleigh(), -1, +1, +1),
            (1.0, 625, FadingModel.rayleigh(), -1, +1, +1),
            (1.0, 121, FadingModel.rayleigh(), -1, +1, -1),
            (1.9, 121, FadingModel.nakagami(3.2), +1, None, -1),
            (3.5, 625, FadingModel.nakagami(3.2), +1, None, -1),
            (3.5, 121, FadingModel.nakagami(3.2), +1, None, -1),
            (1.9, 121, FadingModel.nakagami(0.7), -1, None, -1),
            # Rician K at 0, 5 and 10 dB, as the CLI converts k_db
            (1.9, 121, FadingModel.rician(1.0), -1, None, -1),
            (1.9, 121, FadingModel.rician(10.0**0.5), +1, None, -1),
            (1.9, 121, FadingModel.rician(10.0), +1, None, -1),
            (3.5, 625, FadingModel.rician(1.0), +1, None, -1),
            (3.5, 625, FadingModel.rician(10.0**0.5), +1, None, -1),
            (3.5, 625, FadingModel.rician(10.0), +1, None, -1),
        ],
    )
    def test_sign_against_exact(self, lambda0, b, fading, upper_nakagami, upper_rayleigh, lower):
        # snr_coeff 0.01, and the bounds at the CLI's moment-matched m_eff
        rho = b * 0.01 / lambda0
        model = SparseModel.from_occupancy(lambda0, b, fading.effective_nakagami_m())
        exact = exact_multipath_se(lambda0, b, fading, rho)
        assert upper_nakagami * (se_upper_nakagami(model, rho) - exact) > 0.0
        if upper_rayleigh is not None:
            assert upper_rayleigh * (se_upper_rayleigh(model, rho) - exact) > 0.0
        # lower above exact at B = 625, m = 1 is acceptance criterion 7's failure
        assert lower * (se_lower(model, rho) - exact) > 0.0


class TestSmallInstanceOracle:
    def test_pattern_vs_exact_density(self):
        # exhaustive occupancy patterns against the closed-form max density
        b, p, rho = 2, 0.5, 1.0
        model = SparseModel.from_p(p, b, 1.0)

        total = 0.0
        for pattern in itertools.product((0, 1), repeat=b):
            k = sum(pattern)
            if k == 0:
                continue
            prob = p**k * (1 - p) ** (b - k)
            val, _ = integrate.quad(
                lambda x, k=k: math.log1p(rho * x) * k * (1 - math.exp(-x)) ** (k - 1) * math.exp(-x),
                0,
                np.inf,
                limit=200,
            )
            total += prob * val

        dens, _ = integrate.quad(
            lambda x: math.log1p(rho * x) * opt_power_pdf_exact(x, model),
            0,
            np.inf,
            limit=200,
        )
        assert total == pytest.approx(model.prob_any() * dens, abs=1e-8)


class TestMonotoneInRho:
    def test_all_quantities(self):
        model = SparseModel.from_occupancy(1.9, 121, 1.0)
        rhos = np.logspace(-2, 1, 15)
        for fn in (se_lower, se_upper_rayleigh):
            vals = [fn(model, float(r)) for r in rhos]
            assert all(b > a for a, b in zip(vals, vals[1:]))
        vals = [se_sparse_approx(1.9, float(r)) for r in rhos]
        assert all(b > a for a, b in zip(vals, vals[1:]))
