"""Diagnostics: histograms, Hill estimator, L1 distance, lognormal fits."""

import numpy as np
import pytest
from scipy import stats as sp_stats
from scipy.integrate import quad

from kinmarket.fokker_planck import ChartistEquilibrium, lognormal_price_cdf
from kinmarket.stats import (
    Histogram,
    hill_plateau,
    hill_tail_index,
    ks_statistic,
    l1_density_distance,
    lognormal_fit,
)


class TestHistogram:
    def test_mass_conservation_uniform_bins(self):
        rng = np.random.default_rng(0)
        h = Histogram.from_samples(rng.normal(size=10000), bins=57)
        assert abs(np.sum(h.density * h.widths) - 1.0) <= 1e-12

    def test_mass_conservation_irregular_bins(self):
        rng = np.random.default_rng(1)
        edges = np.concatenate([np.linspace(0, 1, 7), [1.5, 3.0, 10.0]])
        h = Histogram.from_samples(rng.exponential(size=5000), bins=edges)
        assert abs(np.sum(h.density * h.widths) - 1.0) <= 1e-12

    def test_invalid_edges_rejected(self):
        with pytest.raises(ValueError):
            Histogram(edges=[0.0, 1.0, 1.0], counts=[1, 1], density=[0.5, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Histogram.from_samples([])

    def test_csv_round_trip(self, tmp_path):
        h = Histogram.from_samples(np.random.default_rng(2).random(1000), bins=10)
        path = tmp_path / "h.csv"
        h.to_csv(path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape == (10, 4)
        assert np.allclose(rows[:, 3], h.density)


class TestHill:
    def test_exact_pareto_inverse_cdf(self):
        # inverse-CDF oracle: u^(-1/2) has CCDF x^(-2)
        rng = np.random.default_rng(7)
        x = rng.random(100000) ** -0.5
        est = hill_tail_index(x, 5000)
        assert est == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_consistency_across_exponents(self, alpha):
        rng = np.random.default_rng(13)
        n = 100000
        x = rng.random(n) ** (-1.0 / alpha)
        est = hill_tail_index(x, n // 20)
        assert abs(est - alpha) / alpha < 0.05

    def test_exponential_has_no_plateau(self):
        rng = np.random.default_rng(3)
        x = rng.exponential(size=50000)
        scan = hill_plateau(x)
        assert not scan.plateau_found

    def test_pareto_has_plateau(self):
        rng = np.random.default_rng(4)
        x = rng.random(50000) ** -0.5
        scan = hill_plateau(x)
        assert scan.plateau_found
        assert scan.estimates.mean() == pytest.approx(2.0, rel=0.1)

    def test_plateau_sorts_once_with_the_same_estimates(self):
        x = np.random.default_rng(18).pareto(2.0, 20000) + 1.0
        scan = hill_plateau(x)
        assert np.array_equal(scan.estimates,
                              [hill_tail_index(x, int(k)) for k in scan.k_values])

    def test_degenerate_samples_rejected(self):
        with pytest.raises(ValueError):
            hill_tail_index(np.ones(1000), 100)

    def test_k_bounds(self):
        x = np.random.default_rng(5).random(100) + 1.0
        with pytest.raises(ValueError):
            hill_tail_index(x, 5)
        with pytest.raises(ValueError):
            hill_tail_index(x, 100)

    def test_positive_samples_required(self):
        x = np.concatenate([[-1.0], np.random.default_rng(6).random(100) + 1])
        with pytest.raises(ValueError):
            hill_tail_index(x, 20)


class TestL1Distance:
    def test_self_sampling_is_small(self):
        rng = np.random.default_rng(8)
        h = Histogram.from_samples(rng.random(50000), bins=100, range=(0.0, 1.0))
        d = l1_density_distance(h, lambda x: 1.0)
        assert d < 0.05

    def test_disjoint_supports(self):
        h = Histogram.from_samples(np.random.default_rng(9).random(1000),
                                   bins=20, range=(0.0, 1.0))
        # analytic density lives entirely on [2, 3]
        d = l1_density_distance(
            h, lambda x: np.where((2.0 <= x) & (x <= 3.0), 1.0, 0.0))
        assert d == pytest.approx(2.0, abs=1e-9)

    def test_identical_step_density_is_zero(self):
        h = Histogram.from_samples(np.random.default_rng(10).random(2000),
                                   bins=8, range=(0.0, 1.0))

        def step(x):
            i = np.clip(np.searchsorted(h.edges, x, side="right") - 1, 0,
                        len(h.density) - 1)
            return h.density[i]

        assert l1_density_distance(h, step) == pytest.approx(0.0, abs=1e-10)

    def test_symmetry_on_shared_grid(self):
        rng = np.random.default_rng(12)
        edges = np.linspace(0.0, 1.0, 21)
        ha = Histogram.from_samples(rng.random(5000), bins=edges)
        hb = Histogram.from_samples(rng.random(5000) ** 2, bins=edges)

        def step(h):
            def f(x):
                i = np.clip(np.searchsorted(h.edges, x, side="right") - 1, 0,
                            len(h.density) - 1)
                return h.density[i]
            return f

        assert l1_density_distance(ha, step(hb)) == pytest.approx(
            l1_density_distance(hb, step(ha)), abs=1e-9)

    def test_bounded_by_two(self):
        h = Histogram.from_samples(np.random.default_rng(14).random(500),
                                   bins=10, range=(0.0, 1.0))
        assert 0.0 <= l1_density_distance(h, lambda x: 0.0) <= 2.0


class TestLognormalFit:
    def test_synthetic_lognormal(self):
        rng = np.random.default_rng(15)
        x = np.exp(rng.normal(0.0, 1.0, 100000))
        m, v = lognormal_fit(x)
        assert m == pytest.approx(0.0, abs=0.02)
        assert v == pytest.approx(1.0, abs=0.02)

    def test_constant_samples(self):
        m, v = lognormal_fit(np.full(100, 3.0))
        assert m == pytest.approx(np.log(3.0), rel=1e-14)
        assert v == pytest.approx(0.0, abs=1e-28)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            lognormal_fit([1.0, 0.0, 2.0])


class TestScipyOracles:
    def test_ks_matches_kstest(self):
        rng = np.random.default_rng(19)
        x = rng.lognormal(2.3, 0.15, 20000)

        def cdf(s):
            return lognormal_price_cdf(s, 10.0, 103.0)

        assert abs(ks_statistic(x, cdf)
                   - sp_stats.kstest(x, cdf).statistic) <= 1e-12

    @pytest.mark.parametrize("kappa", [0.3, 1.0])
    def test_l1_matches_quad_per_cell(self, kappa):
        eq = ChartistEquilibrium(0.0, kappa)
        h = Histogram.from_samples(eq.sample(np.random.default_rng(20), 5000),
                                   bins=100, range=(-1.0, 1.0))
        inner = covered = 0.0
        for a, b, d in zip(h.edges[:-1], h.edges[1:], h.density):
            cell_mass, _ = quad(eq, a, b, limit=100)
            covered += cell_mass
            inner += abs(d - cell_mass / (b - a)) * (b - a)
        assert abs(l1_density_distance(h, eq)
                   - (inner + max(0.0, 1.0 - covered))) <= 1e-9


class TestKsStatistic:
    def test_uniform_against_own_cdf(self):
        rng = np.random.default_rng(16)
        x = rng.random(20000)
        assert ks_statistic(x, lambda t: np.clip(t, 0.0, 1.0)) < 0.02

    def test_shifted_distribution_detected(self):
        rng = np.random.default_rng(17)
        x = rng.random(20000) + 0.2
        assert ks_statistic(x, lambda t: np.clip(t, 0.0, 1.0)) > 0.15
