"""Closed-form oracles: densities, moments, ODE skeleton, classifier, mean field."""

import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln, ndtr

from kinmarket.cli import preset
from kinmarket.fokker_planck import (
    ChartistEquilibrium,
    ParetoSteadyState,
    PriceCollapse,
    chartist_stationary_residual,
    classify_equilibrium,
    lognormal_price_cdf,
    lognormal_price_density,
    mean_field_price,
    pareto_steady_state,
    solve_macro_ode,
    solve_Y_fixed_point,
)
from kinmarket.model import ModelParams, NumericsError, ValueFunctionSpec

# the benchmark's own copy of the mean-field solver, loaded by path
_spec = importlib.util.spec_from_file_location(
    "oracles", Path(__file__).resolve().parent.parent / "bench" / "oracles.py")
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)


class TestChartistEquilibrium:
    def test_symmetric_for_centered_mean(self):
        eq = ChartistEquilibrium(0.0, 1.0)
        y = np.linspace(0.01, 0.99, 50)
        assert np.allclose(eq(y), eq(-y), rtol=1e-13, atol=0.0)

    def test_unnormalized_value_at_origin(self):
        # at y=0 the prefactors are 1 and the exponential factor is e^(-1/kappa)
        eq = ChartistEquilibrium(0.0, 1.0)
        c0 = math.exp(eq._log_c0)
        assert eq(0.0) == pytest.approx(c0 * math.exp(-1.0), rel=1e-12)
        assert eq(0.0) > 0.0

    def test_vanishes_at_boundaries(self):
        eq = ChartistEquilibrium(0.2, 1.0)
        assert eq(1.0) == 0.0
        assert eq(-1.0) == 0.0
        assert eq(0.999999) < 1e-200

    def test_normalization_to_rho(self):
        for rho in (1.0, 0.5):
            eq = ChartistEquilibrium(0.0, 1.0, rho_C=rho)
            mass, err = quad(eq, -1.0, 1.0, limit=200)
            assert mass == pytest.approx(rho, abs=1e-6)

    def test_asymmetric_mass_for_positive_mean(self):
        eq = ChartistEquilibrium(0.2, 1.0)
        plus, _ = quad(eq, 0.0, 1.0, limit=200)
        minus, _ = quad(eq, -1.0, 0.0, limit=200)
        assert plus > minus

    def test_residual_nonzero_for_wrong_kappa(self):
        eq = ChartistEquilibrium(0.0, 1.0)
        res = chartist_stationary_residual(eq, np.linspace(-0.9, 0.9, 99),
                                           1.0, 2.0)
        assert np.abs(res).max() > 1e-3

    def test_sampler_matches_density(self):
        eq = ChartistEquilibrium(0.0, 1.0)
        rng = np.random.default_rng(11)
        y = eq.sample(rng, 40000)
        assert np.all(np.abs(y) < 1.0)
        hist, edges = np.histogram(y, bins=40, range=(-1, 1), density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        assert np.abs(hist - eq(centers)).mean() < 0.03

    @pytest.mark.parametrize("kappa", [5.6e-4, 1e-2, 1.0, 100.0, 3000.0])
    @pytest.mark.parametrize("y_star", [0.0, 0.3])
    def test_sampler_inverts_the_quadrature_cdf(self, kappa, y_star):
        # fed 41 fixed quantiles in place of uniforms, the sampler returns
        # opinions whose CDF, by quad of the density in u = atanh(y), is
        # within 1e-6 of each quantile; the test3 scale, 5.6e-4, is the hardest
        q = np.linspace(0.01, 0.99, 41)
        eq = ChartistEquilibrium(y_star, kappa)
        y = eq.sample(SimpleNamespace(random=lambda n: q[:n]), q.size)
        assert np.all(np.abs(y) < 1.0)

        def integrand(u):
            return float(eq(math.tanh(u))) / math.cosh(u) ** 2

        # every kappa here keeps its mass inside |u| < 12; quad runs from
        # quantile to quantile, so no segment holds more than 2.5% of it
        cdf, lo, got = 0.0, -12.0, []
        for x in np.arctanh(y):
            cdf += quad(integrand, lo, x, epsabs=1e-13, epsrel=1e-13, limit=500)[0]
            lo = x
            got.append(cdf)
        mass = cdf + quad(integrand, lo, 12.0, epsabs=1e-13, epsrel=1e-13,
                          limit=500)[0]
        assert np.abs(np.asarray(got) / mass - q).max() <= 1e-6

    @pytest.mark.parametrize("kappa", [5.6e-4, 1.0])
    def test_one_uniform_per_opinion(self, kappa):
        # the draw count does not depend on kappa: n opinions advance the
        # generator exactly as n uniforms do
        eq = ChartistEquilibrium(0.0, kappa)
        rng, twin = np.random.default_rng(7), np.random.default_rng(7)
        eq.sample(rng, 25000)
        twin.random(25000)
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("kappa", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("y_star", [0.0, 0.3])
    def test_log_mass_matches_quadrature(self, kappa, y_star):
        # the unnormalized density in u = atanh(y), integrated by quad as the
        # normalization did before it became a trapezoid sum
        p, q = -2.0 + y_star / (2.0 * kappa), -2.0 - y_star / (2.0 * kappa)

        def integrand(u):
            y = math.tanh(u)
            if abs(y) >= 1.0:
                return 0.0
            return math.exp(p * math.log1p(y) + q * math.log1p(-y)
                            - (1.0 - y_star * y) / (kappa * (1.0 - y) * (1.0 + y))
                            ) / math.cosh(u) ** 2

        mass, _ = quad(integrand, -np.inf, np.inf, epsabs=0.0, epsrel=1e-13,
                       limit=500)
        eq = ChartistEquilibrium(y_star, kappa)
        assert abs(-eq._log_c0 - math.log(mass)) <= 1e-10

    @pytest.mark.parametrize("kappa", [5.0 / 9.0 * 1e-3, 6.7e-4])
    def test_normalizes_where_the_mass_underflows(self, kappa):
        # the test3 kappas: the unnormalized mass is ~exp(-1/kappa), below the
        # smallest double, so only the log-space sum can normalize it
        eq = ChartistEquilibrium(0.0, kappa)
        assert math.exp(-1.0 / kappa) == 0.0
        mass, _ = quad(eq, -1.0, 1.0, points=[0.0], limit=200)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_unresolved_peak_raises(self):
        # at kappa = 1e-7 the peak is ~2e-4 wide in u, narrower than the nodes
        with pytest.raises(NumericsError):
            ChartistEquilibrium(0.0, 1e-7)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ChartistEquilibrium(1.0, 1.0)
        with pytest.raises(ValueError):
            ChartistEquilibrium(0.0, 0.0)
        with pytest.raises(ValueError):
            ChartistEquilibrium(0.0, 1.0, rho_C=0.0)


class TestLognormalPrice:
    def test_concentration_in_zero_variance_limit(self):
        S = 10.0
        d1 = lognormal_price_density(S, S, S * S * 1.01)
        d2 = lognormal_price_density(S, S, S * S * 1.0001)
        assert d2 > d1 > 0.0

    def test_degenerate_variance_rejected(self):
        with pytest.raises(ValueError):
            lognormal_price_density(1.0, 10.0, 100.0)
        with pytest.raises(ValueError):
            lognormal_price_density(1.0, 10.0, 90.0)

    def test_cdf_matches_ndtr(self):
        S, E = 10.0, 150.0
        m, v = math.log(S * S / math.sqrt(E)), math.log(E / (S * S))
        for n in (2001, 10_001):  # 10,001 crosses the blocks of its erfc
            s = np.geomspace(1e-2, 1e3, n)
            assert np.max(np.abs(lognormal_price_cdf(s, S, E)
                                 - ndtr((np.log(s) - m) / math.sqrt(v)))) <= 1e-15

    def test_cdf_consistent_with_density(self):
        S, E = 10.0, 150.0
        for s in (2.0, 8.0, 15.0, 40.0):
            num, _ = quad(lambda u: lognormal_price_density(u, S, E), 0.0, s,
                          limit=300)
            assert lognormal_price_cdf(s, S, E) == pytest.approx(num, abs=1e-8)


class TestParetoSteadyState:
    def test_normalization_constant(self):
        def log_c1(ps):
            # at s = scale the density is C1 * scale^-(1+mu) * e^-1
            return (math.log(ps.pdf(ps.scale))
                    + (1.0 + ps.mu_exp) * math.log(ps.scale) + 1.0)

        assert math.exp(log_c1(ParetoSteadyState(2.0, 20.0))) == \
            pytest.approx(400.0, rel=1e-12)
        for mu in (1.5, 2.0, 3.0, 5.0, 37.5):
            ps = ParetoSteadyState(mu, 20.0)
            assert log_c1(ps) == pytest.approx(
                mu * math.log((mu - 1.0) * 20.0) - gammaln(mu), rel=1e-15)

    def test_loglog_tail_slope(self):
        ps = ParetoSteadyState(2.0, 20.0)
        s = 1e3 * 20.0
        h = 1e-4
        slope = (math.log(ps.pdf(s * (1 + h))) - math.log(ps.pdf(s * (1 - h)))) \
            / (math.log(1 + h) - math.log(1 - h))
        # the exponential factor contributes exactly +scale/s to the local
        # slope, here 1e-3; the power-law part is -(1+mu)
        assert slope == pytest.approx(-(1.0 + 2.0) + ps.scale / s, abs=1e-6)
        assert slope == pytest.approx(-(1.0 + 2.0), abs=2e-3)

    def test_from_model_params(self):
        p = ModelParams(beta=0.1, zeta2_price=0.13, gamma_f=1.3, S_F=20.0)
        ps = pareto_steady_state(p, 0.5)
        assert ps.mu_exp == pytest.approx(2.0, rel=1e-12)
        assert ps.S_F == 20.0

    def test_invalid_regimes_rejected(self):
        with pytest.raises(ValueError):
            ParetoSteadyState(1.0, 20.0)
        with pytest.raises(ValueError):
            pareto_steady_state(ModelParams(beta=0.1, zeta2_price=0.0), 0.5)
        with pytest.raises(ValueError):
            pareto_steady_state(ModelParams(beta=0.1, zeta2_price=0.13), 0.0)


class TestMacroOde:
    phi = ValueFunctionSpec()

    def test_fixed_point_is_stationary(self):
        p = ModelParams(beta=0.1, gamma_f=1.3, t_C=1.0, S_F=20.0)
        _, S, Y = solve_macro_ode(20.0, 0.0, 0.5, p, T=0.1, dt=0.1, phi=self.phi)
        assert S.size == 2
        assert S[-1] == pytest.approx(20.0, abs=1e-14)
        assert Y[-1] == pytest.approx(0.0, abs=1e-14)

    def test_boom_crash_envelope(self):
        # |Y| <= 1 forces S0 e^(-beta t_C t) <= S <= S0 e^(beta t_C t)
        p = ModelParams(beta=0.1, t_C=1.0, gamma_f=1.0, S_F=20.0)
        t, S, _ = solve_macro_ode(10.0, -0.4, 1.0, p, T=30.0, dt=0.05, phi=self.phi)
        lo = 10.0 * np.exp(-0.1 * t) * (1.0 - 1e-9)
        hi = 10.0 * np.exp(0.1 * t) * (1.0 + 1e-9)
        assert np.all(S >= lo) and np.all(S <= hi)

    def test_collapse_detection(self):
        p = ModelParams(beta=0.1, t_C=1.0, gamma_f=1.0, S_F=20.0)
        with pytest.raises(PriceCollapse):
            solve_macro_ode(-1.0, 0.0, 1.0, p, T=0.1, dt=0.1, phi=self.phi)


class TestMeanField:
    @pytest.mark.parametrize("name", ["test3a", "test3b", "test3c"])
    def test_equals_the_benchmark_copy_bit_for_bit(self, name):
        sim = preset(name, {"n_iters": 300}).sim
        S = mean_field_price(sim, oracles.MEAN_FIELD_GRID)
        assert S.size == 301 and S[0] == sim.S0 * (1.0 + 1e-3)
        assert S.tobytes() == oracles.mean_field_price(sim).tobytes()

    def test_refuses_noise_that_leaves_the_unit_interval(self):
        # gamma_diff = 2 puts no bound on the opinion noise, and at y = 0,
        # D = 1, a node of +-0.86 sqrt(1.5) carries y' past 1
        sim = preset("test3b", {"gamma_diff": 2.0, "sigma2_opinion": 0.5,
                                "n_iters": 5}).sim
        with pytest.raises(ValueError, match=r"left \[-1, 1\]"):
            mean_field_price(sim)


class TestEquilibriumClassifier:
    phi = ValueFunctionSpec()
    params = ModelParams(beta=0.1, t_C=1.0, gamma_f=1.3, S_F=20.0)

    def test_stability_under_small_perturbation(self):
        eps = 1e-8
        d = eps / 10.0
        cases = [
            ((0.5, 20.0 + d, d, self.phi), "i"),
            ((d, 12.0, d, self.phi), "ii"),
            ((0.0, d, d, self.phi), "iii"),
            ((0.5, 20.0, d, lambda x: 0.1), "none"),
        ]
        for (rho_F, S, Y, phi), expected in cases:
            assert classify_equilibrium(rho_F, S, Y, phi, self.params) == expected

    def test_crash_with_shifted_reference(self):
        # configuration iii stays reachable with phi(0) != 0
        phi = lambda x: 0.3
        assert classify_equilibrium(0.0, 0.0, 0.3, phi, self.params) == "iii"


class TestFixedPointSolver:
    def test_constant_phi(self):
        roots = solve_Y_fixed_point(lambda x: 0.3, 0.1, 1.0)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.3, abs=1e-12)

    def test_symmetric_sqrt_roots(self):
        # Y = sign(Y) |Y|^(1/2) at beta*t_C = 1 has roots {-1, 0, 1}
        spec = ValueFunctionSpec(L=1.0, R0=0.0, r_exp=0.5, l_exp=0.5)
        roots = solve_Y_fixed_point(spec, 1.0, 1.0)
        assert np.allclose(np.sort(roots), [-1.0, 0.0, 1.0], atol=1e-9)

    def test_residuals_are_tiny(self):
        spec = ValueFunctionSpec(L=1.0, R0=0.0, r_exp=0.5, l_exp=0.25)
        for beta_tc in (0.1, 0.5, 1.0):
            roots = solve_Y_fixed_point(spec, beta_tc, 1.0)
            for r in roots:
                assert abs(spec(beta_tc * r) - r) <= 1e-12
