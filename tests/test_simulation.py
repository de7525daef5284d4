"""Monte Carlo engine: interactions, price updates, switching, full runs."""

import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from scipy.stats import ks_2samp

import kinmarket.cli
import kinmarket.fokker_planck
import kinmarket.simulation
import kinmarket.stats
from kinmarket.cli import PRESETS, preset
from kinmarket.model import (
    ConfigurationError,
    InvariantViolation,
    ModelParams,
    ValueFunctionSpec,
    chartist_profit,
    fundamentalist_profit,
    switch_probability,
    value_function,
)
from kinmarket.simulation import (
    AgentEnsemble,
    SimConfig,
    Trajectory,
    binary_interact,
    run,
    step_chartists,
    step_price,
    step_strategy_exchange,
)


# repetitions of one step in the law tests of the samplers
LAW_REPS = 2000


def assert_same_law(got, want, what):
    """Two samples of one count agree within Monte Carlo error: the means to
    4 standard errors, the distributions by a two-sample KS test at p > 1e-3."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    se = math.sqrt(got.var(ddof=1) / got.size + want.var(ddof=1) / want.size)
    assert abs(got.mean() - want.mean()) <= 4.0 * se, what
    assert ks_2samp(got, want).pvalue > 1e-3, what


def sign_counts(y):
    return np.array([np.count_nonzero(y < 0.0), np.count_nonzero(y == 0.0),
                     np.count_nonzero(y > 0.0)])


def small_config(**over):
    defaults = dict(
        params=ModelParams(alpha1=0.01, alpha2=0.01, sigma2_opinion=0.02,
                           beta=0.1, zeta2_price=5e-4, t_C=1.0, gamma_f=1.3,
                           S_F=20.0),
        value_spec=ValueFunctionSpec(),
        N=2000, N_s=2000, n_iters=100, seed=42, S0=10.0, rho_C0=1.0,
        chartist_init="symmetric_uniform", pin_mean=True,
    )
    defaults.update(over)
    return SimConfig(**defaults)


def trace_hooks():
    """The (owner, name) pairs that bench/harness.py install_spans wraps."""
    cli, sim = kinmarket.cli, kinmarket.simulation
    stats, fp = kinmarket.stats, kinmarket.fokker_planck
    return [(cli, "run"), (cli, "run_experiment"),
            (cli, "_analyze_outputs"), (cli, "_cmd_analyze"),
            (sim, "step_chartists"), (sim, "binary_interact"),
            (sim, "step_strategy_exchange"), (sim, "step_price"),
            (sim, "chartist_profit"), (sim, "value_function"),
            (sim.AgentEnsemble, "mean_propensity"),
            (sim.Trajectory, "to_csv"), (sim.Trajectory, "write_samples"),
            (stats, "l1_density_distance"), (stats, "ks_statistic"),
            (stats, "hill_plateau"), (stats.Histogram, "from_samples"),
            (stats.Histogram, "to_csv"),
            (fp.ChartistEquilibrium, "__init__"),
            (fp.ChartistEquilibrium, "sample"),
            (fp, "pareto_steady_state"), (fp.ParetoSteadyState, "pdf")]


def count_thread_starts(monkeypatch):
    """A list that gains one entry per threading.Thread.start from now on."""
    starts, start = [], threading.Thread.start

    def counted(self):
        starts.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return starts


def interact_one(y, y_star, phi, eta, eta_star, params):
    """binary_interact on one pair, passed as 1-element arrays; returns the
    pair's y', y_star' and rejected flag."""
    y1, y2, rej = binary_interact(np.array([y]), np.array([y_star]), phi,
                                  np.array([eta]), np.array([eta_star]), params)
    return y1[0], y2[0], rej[0]


class TestBinaryInteract:
    def test_identity_without_coupling(self):
        p = ModelParams(alpha1=0.0, alpha2=0.0, sigma2_opinion=0.0)
        y1, y2, rej = interact_one(0.37, -0.9, 0.5, 0.0, 0.0, p)
        assert (y1, y2) == (0.37, -0.9)
        assert not rej

    def test_herding_exchange_preserves_pair_mean(self):
        # constant H and no market coupling: y' + y*' = y + y*
        p = ModelParams(alpha1=0.1, alpha2=0.0, herding_a=1.0, herding_b=0.0,
                        sigma2_opinion=0.0)
        y1, y2, rej = interact_one(1.0, -1.0, 0.0, 0.0, 0.0, p)
        assert y1 == pytest.approx(0.8, abs=1e-15)
        assert y2 == pytest.approx(-0.8, abs=1e-15)
        assert y1 + y2 == pytest.approx(0.0, abs=1e-15)
        assert not rej

    def test_market_coupling_pulls_toward_phi(self):
        p = ModelParams(alpha1=0.0, alpha2=0.5, sigma2_opinion=0.0)
        y1, _, _ = interact_one(0.0, 0.0, 1.0, 0.0, 0.0, p)
        assert y1 == pytest.approx(0.5, abs=1e-15)

    def test_out_of_range_interaction_is_void(self):
        # gamma_diff != 1 has no analytic noise-support bound: a large noise
        # draw may push past +-1, in which case both partners keep their state
        p = ModelParams(alpha1=0.0, alpha2=0.0, gamma_diff=2.0)
        y1, y2, rej = interact_one(0.9, 0.0, 0.0, 3.0, 0.0, p)
        assert rej
        assert (y1, y2) == (0.9, 0.0)

    @pytest.mark.parametrize("params, eta_s0", [
        (ModelParams(alpha1=0.1, alpha2=0.2, sigma2_opinion=0.02), 0.0),
        # test3's herding profile H(y) = 1 - |y|
        (ModelParams(alpha1=0.2, alpha2=0.55, sigma2_opinion=5e-4,
                     herding_a=0.0, herding_b=1.0), 0.0),
        # no analytic noise bound: the first pair's second partner leaves
        # [-1, 1], so the pair is rejected
        (ModelParams(alpha1=0.1, alpha2=0.2, gamma_diff=2.0), 3.0),
    ], ids=["constant_herding", "test3_herding", "gamma2_rejected"])
    def test_vectorized_matches_scalar(self, params, eta_s0):
        y = np.array([0.1, -0.5, 0.9])
        ys = np.array([-0.2, 0.4, -0.8])
        eta = np.array([0.05, -0.1, 0.02])
        eta_s = np.array([eta_s0, 0.08, -0.03])
        v1, v2, vr = binary_interact(y, ys, 0.3, eta, eta_s, params)
        # each pair as if it were alone
        for i in range(3):
            s1, s2, sr = interact_one(y[i], ys[i], 0.3, eta[i], eta_s[i], params)
            assert v1[i] == s1 and v2[i] == s2 and vr[i] == sr
        assert vr[0] == (eta_s0 != 0.0)
        # the same bits when written into caller-owned buffers
        out = tuple(np.full(3, np.nan) for _ in range(3))
        b1, b2, br = binary_interact(y, ys, 0.3, eta, eta_s, params, out=out)
        assert b1 is out[0] and b2 is out[1]
        assert np.array_equal(b1, v1) and np.array_equal(b2, v2)
        assert np.array_equal(br, vr)


class TestStepChartists:
    def test_empty_population_unchanged(self):
        p = ModelParams()
        ens = AgentEnsemble(y=np.zeros(0), n_fundamentalists=100)
        rej = step_chartists(ens, 0.0, p, 1.0, np.random.default_rng(0))
        assert rej == 0
        assert np.all(ens.y == 0.0)
        assert ens.N == 100 and ens.n_chartists == 0

    def test_frozen_dynamics_without_coupling(self):
        p = ModelParams(alpha1=0.0, alpha2=0.0, sigma2_opinion=0.0)
        rng = np.random.default_rng(1)
        y0 = rng.uniform(-1, 1, 500)
        ens = AgentEnsemble(y=y0.copy(), n_fundamentalists=0)
        step_chartists(ens, 0.0, p, 1.0, rng)
        # all pairs interact: the outcomes overwrite y in pair order, which
        # keeps the values, in no particular order, in the run's buffer
        assert np.array_equal(np.sort(ens.y), np.sort(y0))
        assert ens.y.ctypes.data == ens.buffer.ctypes.data

    def test_frozen_dynamics_without_coupling_keep_positions(self):
        # rho_C dt < 1: the interacting pairs go back where they came from
        p = ModelParams(alpha1=0.0, alpha2=0.0, sigma2_opinion=0.0)
        rng = np.random.default_rng(1)
        y0 = rng.uniform(-1, 1, 500)
        ens = AgentEnsemble(y=y0.copy(), n_fundamentalists=500)
        step_chartists(ens, 0.0, p, 1.0, rng)
        assert np.array_equal(ens.y, y0)

    def test_mirrored_pairs_keep_mean_near_zero(self):
        # one step from symmetric data: each repetition stays within the
        # Monte Carlo band of the pair-sampling estimator
        p = ModelParams(alpha1=0.01, alpha2=0.01, sigma2_opinion=0.02,
                        herding_a=1.0, herding_b=0.0)
        rng = np.random.default_rng(2)
        for _ in range(100):
            u = rng.random(5000)
            y = np.concatenate([u, -u])
            ens = AgentEnsemble(y=y, n_fundamentalists=0)
            step_chartists(ens, 0.0, p, 1.0, rng)
            assert abs(ens.y.mean()) < 5e-3

    @pytest.mark.parametrize("n_f", [0, 700, 2100])
    def test_pair_law_matches_per_agent_reference(self, n_f):
        # with alpha1 = 0, alpha2 = 1/2 and no noise an interaction moves y to
        # y/2 + 1/2 toward phi = 1, so the chartists that moved are the ones
        # that interacted; rho_C dt is 1, 0.59 and 0.32
        p = ModelParams(alpha1=0.0, alpha2=0.5, sigma2_opinion=0.0)
        n_c = 1001
        y0 = np.random.default_rng(9).uniform(-1.0, 0.9, n_c)
        mask = np.arange(n_c + n_f) < n_c
        rng = np.random.default_rng(10)
        got, want = [], []
        for _ in range(LAW_REPS):
            ens = AgentEnsemble(y=y0.copy(), n_fundamentalists=n_f)
            step_chartists(ens, 1.0, p, 1.0, rng)
            moved = ens.y != y0
            got.append((moved.sum() // 2, moved[0]))
            y = np.concatenate([y0, np.zeros(n_f)])
            _ref_step_chartists(y, mask, 1.0, p, 1.0, rng)
            moved = y[:n_c] != y0
            want.append((moved.sum() // 2, moved[0]))
        got, want = np.array(got), np.array(want)
        assert_same_law(got[:, 0], want[:, 0], "interacting pairs")
        assert_same_law(got[:, 1], want[:, 1], "chartist 0 interacts")

    def test_rejections_zero_under_admissible_noise(self):
        p = ModelParams(alpha1=0.01, alpha2=0.01, sigma2_opinion=0.02)
        rng = np.random.default_rng(3)
        ens = AgentEnsemble(y=rng.uniform(-1, 1, 20000), n_fundamentalists=0)
        total = 0
        for _ in range(20):
            total += step_chartists(ens, 0.5, p, 1.0, rng)
        assert total == 0
        assert np.abs(ens.y).max() <= 1.0


class TestStepPrice:
    def test_frozen_without_drift_and_noise(self):
        p = ModelParams(zeta2_price=0.0)
        s = np.full(100, 10.0)
        assert step_price(s, 0.0, 1.0, p, 1.0, np.random.default_rng(0)) == 10.0
        assert np.all(s == 10.0)

    def test_chartist_drift_hand_value(self):
        p = ModelParams(beta=0.1, t_C=1.0, zeta2_price=0.0)
        s = np.full(10, 10.0)
        s_min = step_price(s, 0.2, 1.0, p, 1.0, np.random.default_rng(0))
        assert np.allclose(s, 10.2)
        assert s.mean() == pytest.approx(10.2, rel=1e-15)
        assert s_min == s.min()

    def test_fundamentalist_geometric_contraction(self):
        p = ModelParams(beta=0.1, gamma_f=1.3, S_F=20.0, zeta2_price=0.0)
        s = np.full(10, 10.0)
        rng = np.random.default_rng(0)
        gap = 10.0 - 20.0
        for _ in range(10):
            s_min = step_price(s, 0.0, 0.0, p, 1.0, rng)
            gap *= 1.0 - 0.1 * 1.3
            assert s.mean() == pytest.approx(20.0 + gap, rel=1e-13)
            assert s_min == s.min()

    def test_inadmissible_variance_rejected(self):
        # refused before any sample is touched
        p = ModelParams(beta=0.1, t_C=1.0, gamma_f=1.3, zeta2_price=0.4)
        s = np.linspace(5.0, 15.0, 10)
        before = s.copy()
        with pytest.raises(ConfigurationError) as err:
            step_price(s, 0.0, 0.5, p, 1.0, np.random.default_rng(0))
        assert "maximum admissible" in str(err.value)
        assert np.array_equal(s, before)

    def test_samples_stay_nonnegative_at_maximal_noise(self):
        # variance exactly at the admissible bound: s' >= 0 must still hold
        p = ModelParams(beta=0.1, t_C=1.0, gamma_f=1.3,
                        zeta2_price=0.885 ** 2 / 3.0 * 0.9999)
        s = np.full(20000, 10.0)
        rng = np.random.default_rng(4)
        for _ in range(50):
            s_min = step_price(s, -1.0, 0.5, p, 1.0, rng)
            assert s_min == s.min()
        assert s.min() >= 0.0


class TestStrategyExchange:
    def params(self):
        return ModelParams(alpha1=0.2, alpha2=0.55, sigma2_opinion=5e-4,
                           beta=6.0, zeta2_price=2.5e-3, t_C=0.02, gamma_f=0.1,
                           S_F=20.0, dividend=0.004, k_discount=0.75,
                           mu_freq=0.2, sigma_switch=0.8, herding_a=0.0,
                           herding_b=1.0)

    def test_probabilities_scale_with_dt_mu_rho(self):
        p = self.params()
        base = switch_probability(p, 1.0, 0.5, np.array([0.0]))
        assert base[0] == pytest.approx(1.0 * p.mu_freq * 0.5, rel=1e-15)
        # dt * mu * rho -> 0 sends every switch probability to 0
        assert switch_probability(p, 1e-12, 0.5, np.array([0.0]))[0] < 1e-12
        assert switch_probability(p, 1.0, 0.0, np.array([5.0]))[0] == 0.0

    def test_probabilities_capped_at_one(self):
        p = self.params()
        assert switch_probability(p, 1.0, 1.0, np.array([1e6]))[0] == 1.0

    def test_balanced_market_has_zero_expected_flux(self):
        # at S = S_F with zero trend both payoffs vanish, so the two switch
        # probabilities are equal and the net population flux averages to zero
        p = self.params()
        rng = np.random.default_rng(5)
        n = 50000
        ens = AgentEnsemble(y=rng.uniform(-1, 1, n)[:n // 2],
                            n_fundamentalists=n - n // 2)
        before = ens.n_chartists
        cf, fc = step_strategy_exchange(ens, 20.0, 0.0, p, 1.0, rng)
        assert cf > 0 and fc > 0
        assert abs((ens.n_chartists - before) / n) < 0.006

    def test_no_fundamentalists_means_no_departures(self):
        p = self.params()
        rng = np.random.default_rng(6)
        ens = AgentEnsemble(y=rng.uniform(-1, 1, 1000), n_fundamentalists=0)
        cf, fc = step_strategy_exchange(ens, 15.0, -0.01, p, 1.0, rng)
        assert cf == 0 and fc == 0

    def test_agent_count_conserved(self):
        p = self.params()
        rng = np.random.default_rng(7)
        n = 10000
        ens = AgentEnsemble(y=rng.uniform(-1, 1, n)[:n // 2],
                            n_fundamentalists=n - n // 2)
        for trend in (0.02, -0.05, 0.0):
            step_strategy_exchange(ens, 18.0, trend, p, 1.0, rng)
            assert ens.N == n
            assert ens.n_chartists + ens.n_fundamentalists == n

    def test_new_chartists_adopt_pool_propensity(self):
        p = self.params()
        rng = np.random.default_rng(8)
        n = 2000
        ens = AgentEnsemble(y=np.full(n // 2, 0.7), n_fundamentalists=n - n // 2)
        _, fc = step_strategy_exchange(ens, 19.0, 0.05, p, 1.0, rng)
        # every fundamentalist that became a chartist sampled from {0.7}; the
        # arrivals are appended
        new_chartists = ens.y[ens.n_chartists - fc:]
        assert new_chartists.size > 0
        assert np.all(new_chartists == 0.7)

    @pytest.mark.parametrize("trend", [0.2, -0.1])
    def test_exchange_law_matches_per_agent_reference(self, trend):
        # 300 buyers, 200 sellers, 100 neutral chartists and 400
        # fundamentalists; the switch probabilities differ by sign class
        p = self.params()
        rng = np.random.default_rng(11)
        y0 = np.concatenate([rng.uniform(0.01, 1.0, 300),
                             rng.uniform(-1.0, -0.01, 200), np.zeros(100)])
        n_c, n_f = y0.size, 400
        got, want = [], []
        for _ in range(LAW_REPS):
            ens = AgentEnsemble(y=y0.copy(), n_fundamentalists=n_f)
            cf, fc = step_strategy_exchange(ens, 19.0, trend, p, 1.0, rng)
            # the chartists that stay come first, in no particular order;
            # arrivals come last
            stay, adopted = ens.y[:n_c - cf], ens.y[n_c - cf:]
            got.append([*(sign_counts(y0) - sign_counts(stay)), fc,
                        *sign_counts(adopted)])
            y = np.concatenate([y0, np.zeros(n_f)])
            mask = np.arange(n_c + n_f) < n_c
            _ref_step_strategy_exchange(y, mask, 19.0, trend, p, 1.0, rng)
            left = ~mask[:n_c]
            arrived = mask[n_c:]
            want.append([*sign_counts(y0[left]), arrived.sum(),
                         *sign_counts(y[n_c:][arrived])])
        got, want = np.array(got), np.array(want)
        for j, what in enumerate(["departing sellers", "departing neutrals",
                                  "departing buyers", "arrivals",
                                  "adopted sellers", "adopted neutrals",
                                  "adopted buyers"]):
            assert_same_law(got[:, j], want[:, j], what)

    @pytest.mark.parametrize("trend", [0.2, -0.1])
    def test_swap_removal_keeps_what_compaction_keeps(self, trend):
        # on the same draws the survivors are the chartists np.delete kept,
        # in another order, and the arrivals the values np.concatenate
        # appended, in the same order
        p = self.params()
        rng = np.random.default_rng(12)
        y0 = np.concatenate([rng.uniform(0.01, 1.0, 300),
                             rng.uniform(-1.0, -0.01, 200), np.zeros(100)])
        moved = np.zeros(3)
        for seed in range(40):
            ens = AgentEnsemble(y=y0.copy(), n_fundamentalists=400)
            cf, fc = step_strategy_exchange(ens, 19.0, trend, p, 1.0,
                                            np.random.default_rng(seed))
            want = _compacting_exchange(y0, 400, 19.0, trend, p,
                                        np.random.default_rng(seed))
            m = y0.size - cf
            assert ens.y.size == want.size and ens.n_fundamentalists == 400 - fc + cf
            assert np.array_equal(np.sort(ens.y[:m]), np.sort(want[:m]))
            assert np.array_equal(ens.y[m:], want[m:])
            moved += sign_counts(y0) - sign_counts(ens.y[:m])
        assert np.all(moved > 0)  # departures from every sign class

    def test_nonpositive_price_rejected(self):
        p = self.params()
        ens = AgentEnsemble(y=np.zeros(10), n_fundamentalists=0)
        with pytest.raises(ValueError):
            step_strategy_exchange(ens, 0.0, 0.0, p, 1.0,
                                   np.random.default_rng(0))

    @pytest.mark.parametrize("name", ["test3a", "test3b", "test3c"])
    def test_fundamentalists_outearn_chartists_near_crash(self, name):
        # X_F grows like 1/S while |X_C| stays bounded by the trend reach, so
        # no chartist of either sign out-earns a fundamentalist once the
        # price is within the crash threshold of the regime classifier.  An
        # admissible price step multiplies each sample by at least
        # m = 1 - dt beta max(t_C, gamma_f) - sqrt(3 zeta2 dt), so the
        # recorded trend (S - S_prev) / (dt S) lies in [(1 - 1/m) / dt, 1/dt).
        sim = preset(name).sim
        p, dt = sim.params, sim.dt
        m = 1.0 - dt * p.beta * max(p.t_C, p.gamma_f) \
            - np.sqrt(3.0 * p.zeta2_price * dt)
        assert m > 0.0
        S = np.geomspace(1e-6, 0.05 * p.S_F, 200)
        trend = np.linspace((1.0 - 1.0 / m) / dt, 1.0 / dt, 401)
        signs = np.array([[-1.0], [1.0]])
        margins = [fundamentalist_profit(p, s)
                   - chartist_profit(p, signs, s, trend * s).max() for s in S]
        assert min(margins) > 0.0

        # A positive gain g = X_F - X_C makes the expected net flow
        # rho_C p_CF - rho_F p_FC into the fundamentalists positive whenever
        # dt mu < 1, capped or not; check it at the smallest-margin state for
        # every fundamentalist share the population can hold
        gain = min(margins)
        rho_F = np.linspace(1.0 / sim.N, 1.0 - 1.0 / sim.N, 101)
        rho_C = 1.0 - rho_F
        p_cf = switch_probability(p, dt, rho_F, gain)
        p_fc = switch_probability(p, dt, rho_C, -gain)
        assert np.all(rho_C * p_cf - rho_F * p_fc > 0.0)


def _compacting_exchange(y, n_f, S, trend, params, rng):
    """The chartists after step_strategy_exchange at dt = 1 as it was laid out
    before swap-removal, on the same draws: departures deleted, the rest
    keeping their order, and arrivals appended."""
    x_f = fundamentalist_profit(params, S)
    x_c = chartist_profit(params, np.array([-1.0, 0.0, 1.0]), S, trend * S)
    rho_C = y.size / (y.size + n_f)
    p_cf = switch_probability(params, 1.0, 1.0 - rho_C, x_f - x_c)
    p_fc = switch_probability(params, 1.0, rho_C, x_c - x_f)
    classes = (y < 0.0, y == 0.0, y > 0.0)
    n_s = np.array([np.count_nonzero(c) for c in classes])
    leave = rng.binomial(n_s, p_cf)
    weight = n_s * p_fc
    k = int(rng.binomial(n_f, min(1.0, weight.sum() / y.size)))
    join = rng.multinomial(k, weight / weight.sum()) if k else (0, 0, 0)
    gone, adopted = [], []
    for members, n, d, a in zip(classes, n_s, leave, join):
        if d or a:
            members = np.flatnonzero(members)
            gone.append(members[rng.choice(n, d, replace=False)])
            adopted.append(y[members[rng.integers(0, n, a)]])
    if not gone:
        return y.copy()
    return np.concatenate([np.delete(y, np.concatenate(gone))] + adopted)


class TestRun:
    def test_zero_iterations_records_initial_state_only(self):
        traj = run(small_config(n_iters=0))
        assert len(traj) == 1
        assert traj.S[0] == 10.0
        assert traj.rho_C[0] == 1.0

    def test_record_count(self):
        traj = run(small_config(n_iters=25))
        assert len(traj) == 26

    def test_seed_determinism_bit_identical(self):
        a = run(small_config())
        b = run(small_config())
        for field in ("t", "S", "Y", "rho_C", "rho_F", "E", "y_final", "s_final"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_different_seeds_differ(self):
        a = run(small_config(seed=1))
        b = run(small_config(seed=2))
        assert not np.array_equal(a.s_final, b.s_final)

    def test_price_holds_near_initial_level_with_pinned_mean(self):
        traj = run(small_config(n_iters=200,
                                params=ModelParams(alpha1=0.01, alpha2=0.01,
                                                   sigma2_opinion=0.02, beta=0.1,
                                                   zeta2_price=2e-4, t_C=1.0,
                                                   gamma_f=1.3, S_F=20.0)))
        assert abs(traj.S[-1] - 10.0) / 10.0 < 0.01

    def test_mean_propensity_preserved_without_market_coupling(self):
        # alpha2 = 0, constant H: pair interactions preserve the mean, so Y(T)
        # is an unbiased estimate of Y(0); check across independent seeds
        p = ModelParams(alpha1=0.05, alpha2=0.0, sigma2_opinion=0.01,
                        herding_a=1.0, herding_b=0.0, beta=0.1, gamma_f=1.3,
                        zeta2_price=0.0)
        finals = []
        for seed in range(50):
            cfg = small_config(params=p, N=1000, N_s=50, n_iters=50, seed=seed,
                               chartist_init="constant:0.3", pin_mean=False)
            finals.append(run(cfg).Y[-1])
        finals = np.array(finals)
        se = finals.std(ddof=1) / np.sqrt(finals.size)
        assert abs(finals.mean() - 0.3) < 3.0 * max(se, 1e-12)

    def test_boom_bound_per_step_factor(self):
        # pure chartists, no price noise: the per-step growth factor is
        # confined to [1 - beta t_C dt, 1 + beta t_C dt] because |Y| <= 1
        p = ModelParams(alpha1=0.05, alpha2=0.05, sigma2_opinion=0.01,
                        beta=0.1, t_C=1.0, gamma_f=1.3, zeta2_price=0.0)
        traj = run(small_config(params=p, n_iters=300, pin_mean=False,
                                chartist_init="uniform"))
        factors = traj.S[1:] / traj.S[:-1]
        assert np.all(factors >= 1.0 - 0.1 - 1e-12)
        assert np.all(factors <= 1.0 + 0.1 + 1e-12)

    def test_conservation_and_confinement_with_switching(self):
        p = ModelParams(alpha1=0.2, alpha2=0.55, sigma2_opinion=5e-4,
                        beta=6.0, zeta2_price=2.5e-3, t_C=0.02, gamma_f=0.1,
                        S_F=20.0, dividend=0.004, mu_freq=0.2, sigma_switch=0.8,
                        herding_a=0.0, herding_b=1.0)
        cfg = small_config(params=p, N=4000, N_s=4000, n_iters=400, S0=20.0,
                           rho_C0=0.5, enable_switching=True, pin_mean=False)
        traj = run(cfg)
        assert np.all(traj.rho_C + traj.rho_F == 1.0)
        assert np.all((traj.n_chartists >= 0) & (traj.n_chartists <= 4000))
        assert np.abs(traj.y_final).max() <= 1.0
        assert traj.s_final.min() >= 0.0
        assert traj.n_switches_cf > 0 and traj.n_switches_fc > 0

    def test_callable_chartist_init_rejected(self):
        # chartist_init is a name the engine resolves, not a hook
        with pytest.raises(ConfigurationError):
            small_config(chartist_init=lambda rng, n: rng.uniform(-0.5, 0.5, n))

    def test_equilibrium_init_draws_the_opinion_equilibrium(self):
        cfg = small_config(chartist_init="equilibrium", n_iters=0, rho_C0=0.5)
        p = cfg.params
        kappa = p.sigma2_opinion / (p.alpha1 + p.alpha2)
        # run() draws the initial opinions from the first of its streams
        want = kinmarket.fokker_planck.ChartistEquilibrium(0.0, kappa).sample(
            kinmarket.simulation._streams(cfg.seed)[0], 1000)
        traj = run(cfg)
        assert traj.n_chartists[0] == 1000
        assert np.array_equal(traj.y_final, want)

    def test_chartists_stay_in_one_buffer(self, monkeypatch):
        # the exchange moves chartists within the run's buffer of capacity
        # N: y is always its prefix
        seen = []
        exchange = kinmarket.simulation.step_strategy_exchange

        def watched(ensemble, *args):
            counts = exchange(ensemble, *args)
            seen.append((ensemble.buffer, ensemble.y))
            return counts

        monkeypatch.setattr(kinmarket.simulation, "step_strategy_exchange",
                            watched)
        cfg = preset("test3a", {"N": 1000, "N_s": 500, "n_iters": 30}).sim
        traj = run(cfg)
        buffer = seen[0][0]
        assert buffer.size == cfg.N and len(seen) == cfg.n_iters
        for buf, y in seen:
            assert buf is buffer and y.base is buffer
            assert y.ctypes.data == buffer.ctypes.data
        assert len({y.size for _, y in seen}) > 1
        assert np.array_equal(traj.y_final, seen[-1][1])

    def test_price_stream_is_its_own(self, monkeypatch):
        # a pinned test1 market holds Y at round-off, so its prices read the
        # price stream alone: without the pairing step's draws they are the same
        cfg = preset("test1", {"N": 2000, "N_s": 2000, "n_iters": 100}).sim
        want = run(cfg).S
        monkeypatch.setattr(kinmarket.simulation, "step_chartists",
                            lambda *args: 0)
        np.testing.assert_allclose(run(cfg).S, want, rtol=1e-12, atol=0.0)

    def test_trend_is_read_from_the_last_two_records(self, monkeypatch):
        # iteration i reacts to the price move of the step before it:
        # (S[i-1] - S[i-2]) / (dt S[i-1]) of the returned trajectory, 0 at
        # i = 1, both in the market target and in the strategy exchange
        sim = kinmarket.simulation
        value, exchange = sim.value_function, sim.step_strategy_exchange
        targets, exchanges = [], []

        def seen_value(spec, x):
            targets.append(x)
            return value(spec, x)

        def seen_exchange(ensemble, S, trend, *args):
            exchanges.append((S, trend))
            return exchange(ensemble, S, trend, *args)

        monkeypatch.setattr(sim, "value_function", seen_value)
        monkeypatch.setattr(sim, "step_strategy_exchange", seen_exchange)
        cfg = preset("test3a", {"N": 500, "N_s": 500, "n_iters": 40,
                                "dt": 0.3}).sim
        S = run(cfg).S
        want = [0.0] + [(S[i - 1] - S[i - 2]) / (cfg.dt * S[i - 1])
                        for i in range(2, cfg.n_iters + 1)]
        assert np.count_nonzero(want) == cfg.n_iters - 1
        assert targets == want
        assert exchanges == list(zip(S[:-1], want))

    def test_one_mean_propensity_per_iteration(self, monkeypatch):
        calls = []
        mean = AgentEnsemble.mean_propensity

        def counted(self, *args):
            calls.append(1)
            return mean(self, *args)

        monkeypatch.setattr(AgentEnsemble, "mean_propensity", counted)
        cfg = preset("test3a", {"N": 500, "N_s": 500, "n_iters": 20}).sim
        run(cfg)
        assert len(calls) == 21

    def test_trace_hooks_exist_where_they_are_looked_up(self):
        # the benchmark's tracer (bench/harness.py install_spans) replaces
        # these names where the program looks them up; a missing one fails a
        # traced benchmark run with KeyError
        for owner, name in trace_hooks():
            assert name in vars(owner), f"{owner.__name__}.{name}"
            assert callable(getattr(owner, name)), f"{owner.__name__}.{name}"

    def test_trace_hooks_are_called_on_the_loops_thread(self, monkeypatch,
                                                        tmp_path):
        # the tracer keeps one span stack, so a traced name called from the
        # thread that draws the pairing ahead would corrupt every span
        seen = []
        for owner, name in trace_hooks():
            raw = vars(owner)[name]
            func = raw.__func__ if isinstance(raw, classmethod) else raw

            def watched(*args, _func=func, _name=name, **kwargs):
                seen.append((_name, threading.get_ident()))
                return _func(*args, **kwargs)

            monkeypatch.setattr(owner, name, classmethod(watched)
                                if isinstance(raw, classmethod) else watched)
        starts = count_thread_starts(monkeypatch)
        out = str(tmp_path / "run")
        for argv in (["run", "--preset", "test1", "--out", out, "--set", "N=600",
                      "--set", "N_s=600", "--set", "n_iters=40"],
                     ["analyze", "--out", out]):
            assert kinmarket.cli.main(argv) == 0
        assert len(starts) == 1
        names = {name for name, _ in seen}
        assert {"step_chartists", "binary_interact", "step_price"} <= names
        assert {ident for _, ident in seen} == {threading.get_ident()}

    @pytest.mark.parametrize("name, threads", [
        ("test1", 1), ("test2", 0), ("test3a", 0)])
    def test_only_an_all_pairs_market_draws_ahead(self, monkeypatch, name,
                                                  threads):
        # only rho_C dt = 1 (no fundamentalist, dt = 1): test2's pairing, at
        # fixed N_C and rho_C dt, reads no market state either, but drawing
        # it ahead was measured slower
        starts = count_thread_starts(monkeypatch)
        run(preset(name, {"N": 500, "N_s": 500, "n_iters": 20}).sim)
        assert len(starts) == threads

    def test_drawing_ahead_keeps_every_byte(self, monkeypatch):
        cfg = dataclasses.replace(
            preset("test1", {"N": 1001, "N_s": 800, "n_iters": 50}).sim,
            pin_mean=False)
        monkeypatch.setattr(kinmarket.simulation, "_DrawAhead",
                            lambda *args: None)
        inline = run(cfg)
        monkeypatch.undo()
        # three runs at once, each with its drawing thread: more threads than
        # cores, switched between as often as the interpreter allows
        starts = count_thread_starts(monkeypatch)
        got = [None] * 3

        def one(j):
            got[j] = run(cfg)

        threads = [threading.Thread(target=one, args=(j,)) for j in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(starts) == 6
        for ahead in got:
            for field in ("S", "Y", "E", "max_abs_y", "min_price", "rejected",
                          "y_final", "s_final"):
                assert np.array_equal(getattr(ahead, field),
                                      getattr(inline, field)), field

    def test_no_thread_outlives_a_failed_run(self, monkeypatch):
        price = kinmarket.simulation.step_price
        calls = []

        def failing(*args):
            calls.append(1)
            if len(calls) == 5:
                raise InvariantViolation("a price sample became negative")
            return price(*args)

        monkeypatch.setattr(kinmarket.simulation, "step_price", failing)
        starts = count_thread_starts(monkeypatch)
        before = threading.active_count()
        with pytest.raises(InvariantViolation):
            run(preset("test1", {"N": 500, "N_s": 500, "n_iters": 20}).sim)
        assert len(starts) == 1 and len(calls) == 5
        assert threading.active_count() == before

    def test_an_error_drawing_ahead_is_raised_by_run(self, monkeypatch):
        draws = kinmarket.simulation._pair_draws
        calls = []

        def failing(*args):
            calls.append(1)
            if len(calls) == 3:
                raise MemoryError("no room for the pairing")
            return draws(*args)

        monkeypatch.setattr(kinmarket.simulation, "_pair_draws", failing)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="pairing"):
            run(preset("test1", {"N": 500, "N_s": 500, "n_iters": 20}).sim)
        assert len(calls) == 3
        assert threading.active_count() == before

    @pytest.mark.parametrize("values", [
        np.array([-0.0, 5e-324, 1e300, 0.1, -2.5, 1.0 / 3.0]),
        np.array([17.25]),
        np.zeros(0),
    ], ids=["special", "single", "empty"])
    def test_write_samples_bytes_match_savetxt(self, tmp_path, values):
        traj = run(small_config(n_iters=1))
        traj.y_final, traj.s_final = values, values[::-1].copy()
        traj.write_samples(tmp_path / "y.txt", tmp_path / "s.txt")
        np.savetxt(tmp_path / "y_ref.txt", values, fmt="%.17g")
        np.savetxt(tmp_path / "s_ref.txt", values[::-1], fmt="%.17g")
        for name in ("y", "s"):
            assert (tmp_path / f"{name}.txt").read_bytes() == \
                (tmp_path / f"{name}_ref.txt").read_bytes()

    @pytest.mark.parametrize("columns", [
        # an int64 column stays exact up to 2^53, above every count a run
        # writes (at most max(N, n_iters))
        [np.array([-0.0, 5e-324, 1e300, np.nan, np.inf, -np.inf, 1.0 / 3.0]),
         np.array([0, 1, 7, 50000, 2**40 + 1, 2**53 - 1, 123], dtype=np.int64)],
        [np.zeros(0), np.zeros(0, dtype=np.int64)],
        # tables that cross the writer's block of values: a sample file, and
        # a trajectory's 12 columns with its int iteration index
        [np.random.default_rng(8).lognormal(size=10_001)],
        [np.arange(2001)] + list(np.random.default_rng(9).normal(size=(11, 2001))),
    ], ids=["special", "empty", "10001x1", "2001x12"])
    def test_write_columns_bytes_match_a_per_row_format(self, tmp_path, columns):
        path = tmp_path / "c.csv"
        kinmarket.stats.write_columns(path, "x,count", *columns)
        assert path.read_text() == "x,count\n" + "".join(
            ",".join(f"{v}" if isinstance(v, np.integer) else f"{v:.17g}"
                     for v in row) + "\n"
            for row in zip(*columns))

    def test_csv_export_round_trips(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        totals = np.zeros(3, dtype=np.int64)
        # with no analytic noise bound (gamma_diff = 2) chartists reject
        # interactions; test3a switches both ways
        p = dataclasses.replace(small_config().params, sigma2_opinion=0.3,
                                gamma_diff=2.0)
        for cfg in (small_config(params=p, n_iters=10, chartist_init="uniform"),
                    preset("test3a", {"N": 2000, "N_s": 2000, "n_iters": 10}).sim):
            traj = run(cfg)
            traj.to_csv(path)
            rows = np.loadtxt(path, delimiter=",", skiprows=1)
            assert rows.shape == (11, 12)
            for k, col in ((2, traj.S), (7, traj.max_abs_y), (8, traj.min_price)):
                assert np.array_equal(rows[:, k], col)
            sums = rows[:, 9:].sum(axis=0)
            assert list(sums) == [traj.rejected.sum(), traj.n_switches_cf,
                                  traj.n_switches_fc]
            totals += sums.astype(np.int64)
        assert np.all(totals > 0)
        ypath, spath = tmp_path / "y.txt", tmp_path / "s.txt"
        traj.write_samples(ypath, spath)
        assert np.array_equal(np.loadtxt(ypath), traj.y_final)
        assert np.array_equal(np.loadtxt(spath), traj.s_final)

    def test_inadmissible_opinion_noise_rejected_before_running(self):
        # the parameters refuse it: no configuration, so no run, can hold it
        with pytest.raises(ConfigurationError):
            run(small_config(params=ModelParams(alpha1=0.3, alpha2=0.3,
                                                sigma2_opinion=0.5)))

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            small_config(dt=0.0)
        with pytest.raises(ConfigurationError):
            small_config(dt=1.5)
        with pytest.raises(ConfigurationError):
            small_config(rho_C0=1.2)
        with pytest.raises(ConfigurationError):
            small_config(S0=0.0)
        with pytest.raises(ConfigurationError):
            small_config(chartist_init="nope")
        with pytest.raises(ConfigurationError, match="seed"):
            small_config(seed=-1)



# --------------------------------------------------------------------------
# The sequential loop as it stood before the engine gathered chartists by
# index, reused one mean per iteration, wrote into scratch buffers and sampled
# pairs, switches and prices from fewer draws.  It is kept verbatim (bar the
# removed thread-pool path, and with the herding, diffusion, profit and
# switch-rate formulas and the initialization inlined), one uniform per pair
# and per switching agent, as an independent oracle of the engine's law.
# --------------------------------------------------------------------------

def _ref_binary_interact(y, y_star, phi_val, eta, eta_star, params):
    ya = np.asarray(y, dtype=float)
    ysa = np.asarray(y_star, dtype=float)
    a1, a2 = params.alpha1, params.alpha2

    def herding(v):
        return params.herding_a + params.herding_b * (1.0 - np.abs(v))

    def diffusion(v):
        return np.clip(1.0 - np.square(v), 0.0, None) ** params.gamma_diff

    hy = herding(ya)
    hs = herding(ysa)
    y_new = (1.0 - a1 * hy - a2) * ya + a1 * hy * ysa + a2 * phi_val \
        + diffusion(ya) * eta
    ys_new = (1.0 - a1 * hs - a2) * ysa + a1 * hs * ya + a2 * phi_val \
        + diffusion(ysa) * eta_star
    rejected = (np.abs(y_new) > 1.0) | (np.abs(ys_new) > 1.0)
    return np.where(rejected, ya, y_new), np.where(rejected, ysa, ys_new), rejected


def _ref_step_chartists(y, mask, phi, params, dt, rng):
    idx = np.flatnonzero(mask)
    n_c = idx.size
    rho_C = n_c / y.size
    if n_c < 2:
        return 0
    perm = rng.permutation(n_c)
    m = n_c // 2
    first = idx[perm[:m]]
    second = idx[perm[m:2 * m]]
    hit = rng.random(m) < rho_C * dt
    first = first[hit]
    second = second[hit]
    if first.size == 0:
        return 0
    c = math.sqrt(3.0 * params.sigma2_opinion)
    noise = rng.uniform(-c, c, 2 * first.size)
    eta, eta_star = noise[:first.size], noise[first.size:]
    y1, y2, rejected = _ref_binary_interact(y[first], y[second], phi, eta,
                                            eta_star, params)
    y[first] = y1
    y[second] = y2
    return int(np.count_nonzero(rejected))


def _ref_step_price(s, Y, rho_C, rho_F, params, dt, rng):
    c = math.sqrt(3.0 * params.zeta2_price * dt)
    d = 1.0 - dt * params.beta * (rho_C * params.t_C + rho_F * params.gamma_f)
    if c > d:
        raise ConfigurationError(
            f"maximum admissible variance is {d * d / (3.0 * dt)}")
    eta = rng.uniform(-c, c, s.size)
    new = s + dt * params.beta * (rho_C * params.t_C * Y * s
                                  + rho_F * params.gamma_f * (params.S_F - s)) \
        + eta * s
    if np.any(new < 0.0):
        raise InvariantViolation("negative price sample")
    return new


def _ref_switch_probabilities(params, dt, rho_other, payoff_gain):
    expo = np.minimum(params.sigma_switch * np.asarray(payoff_gain, dtype=float),
                      60.0)
    return np.minimum(1.0, dt * params.mu_freq * rho_other * np.exp(expo))


def _ref_step_strategy_exchange(y, mask, S, trend, params, dt, rng):
    c_idx = np.flatnonzero(mask)
    f_idx = np.flatnonzero(~mask)
    rho_C = c_idx.size / y.size
    rho_F = 1.0 - rho_C
    x_f = fundamentalist_profit(params, S)
    s_dot = trend * S
    signal = (s_dot / params.mu_freq + params.dividend) / S \
        - params.dividend / params.S_F

    to_fund = np.zeros(0, dtype=np.intp)
    if c_idx.size and rho_F > 0.0:
        x_c = np.sign(y[c_idx]) * signal
        p_cf = _ref_switch_probabilities(params, dt, rho_F, x_f - x_c)
        to_fund = c_idx[rng.random(c_idx.size) < p_cf]

    to_chart = np.zeros(0, dtype=np.intp)
    adopted = np.zeros(0)
    if f_idx.size and c_idx.size:
        ybar = rng.choice(y[c_idx], size=f_idx.size, replace=True)
        x_c_bar = np.sign(ybar) * signal
        p_fc = _ref_switch_probabilities(params, dt, rho_C, x_c_bar - x_f)
        hit = rng.random(f_idx.size) < p_fc
        to_chart = f_idx[hit]
        adopted = ybar[hit]

    mask[to_fund] = False
    mask[to_chart] = True
    y[to_chart] = adopted
    return int(to_fund.size), int(to_chart.size)


def _ref_recenter(y, mask):
    if mask.any():
        yc = y[mask]
        y[mask] = np.clip(yc - yc.mean(), -1.0, 1.0)


def _ref_initialize(config, rng):
    n_c = int(round(config.rho_C0 * config.N))
    init = config.chartist_init
    if init == "equilibrium":
        # a fresh instance, as run() builds one when it draws
        p = config.params
        eq = kinmarket.fokker_planck.ChartistEquilibrium(
            0.0, p.sigma2_opinion / (p.alpha1 + p.alpha2))
        y0 = eq.sample(rng, n_c)
    elif init == "symmetric_uniform":
        u = rng.random(n_c // 2)
        y0 = np.concatenate([u, -u, np.zeros(n_c % 2)])
    else:
        raise ValueError(f"the reference loop has no chartist_init {init!r}")
    y = np.zeros(config.N)
    y[:n_c] = y0
    return y, np.arange(config.N) < n_c


def _reference_run(config):
    params = config.params
    # the initial opinions from run()'s init stream, every later draw from
    # one more generator
    init_rng, rng = kinmarket.simulation._streams(config.seed)[:2]
    y, mask = _ref_initialize(config, init_rng)
    s = np.full(config.N_s, float(config.S0))
    S_prev = S_curr = float(config.S0)
    trend = 0.0

    def mean_propensity():
        return float(y[mask].mean()) if mask.any() else 0.0

    rec = {k: [] for k in ("t", "S", "Y", "rho_C", "rho_F", "E", "n_chartists",
                           "max_abs_y", "min_price", "rejected", "switch_cf",
                           "switch_fc")}

    def record(i, rejected=0, cf=0, fc=0):
        n_c = int(np.count_nonzero(mask))
        rc = n_c / config.N
        rec["t"].append(i * config.dt)
        rec["S"].append(S_curr)
        rec["Y"].append(mean_propensity())
        rec["rho_C"].append(rc)
        rec["rho_F"].append(1.0 - rc)
        rec["E"].append(float(np.mean(s * s)))
        rec["n_chartists"].append(n_c)
        rec["max_abs_y"].append(float(np.abs(y[mask]).max()) if mask.any()
                                else 0.0)
        rec["min_price"].append(float(s.min()))
        rec["rejected"].append(rejected)
        rec["switch_cf"].append(cf)
        rec["switch_fc"].append(fc)

    record(0)
    for i in range(1, config.n_iters + 1):
        y_mean = mean_propensity()
        rc = np.count_nonzero(mask) / config.N
        rf = 1.0 - rc
        phi = value_function(config.value_spec, trend)
        rejected = _ref_step_chartists(y, mask, phi, params, config.dt, rng)
        if config.pin_mean:
            _ref_recenter(y, mask)
        cf = fc = 0
        if config.enable_switching:
            cf, fc = _ref_step_strategy_exchange(y, mask, S_curr, trend, params,
                                                 config.dt, rng)
        s = _ref_step_price(s, y_mean, rc, rf, params, config.dt, rng)
        S_prev, S_curr = S_curr, float(s.mean())
        trend = (S_curr - S_prev) / (config.dt * S_curr) if S_curr > 0.0 else 0.0
        record(i, rejected, cf, fc)

    return dict({k: np.array(v) for k, v in rec.items()},
                y_final=y[mask].copy(), s_final=s.copy())


# The law test below compares run() and the reference loop over LAW_SEEDS
# seeds at N = N_s = 2999 and 80 iterations, by two-sample KS distances.
# The samples of one run share its market path, so pooled samples spread far
# wider than independent ones.  The bounds are calibrated from the reference
# loop against itself on disjoint blocks of 20 seeds, 40 block pairs for each
# of the 20 cases, 80 per (preset, pin_mean): each bound is 1.5 times the
# largest distance seen, rounded up.  The per-run terminal S and rho_C reached
# 0.55 and 0.5 (11 and 1 of 800 pairs at 0.5 or more).  Without a pinned mean
# the test3 chartists of one run sit in a narrow bump that moves with its
# market path, so their pooled y has ~20 effective samples, like the per-run
# statistics, and takes their bound: the largest distance seen was 0.25 and,
# of run() against the reference, 0.33.
LAW_SEEDS = 20
LAW_KS_PER_RUN = 0.6
# (preset, pin_mean) -> bounds on the KS distance of the pooled terminal y
# and s
LAW_KS_POOLED = {
    ("test1", True): (0.0086, 0.016), ("test1", False): (0.054, 0.39),
    ("test2", True): (0.015, 0.012), ("test2", False): (0.022, 0.014),
    ("test3a", True): (0.12, 0.015), ("test3a", False): (LAW_KS_PER_RUN, 0.098),
    ("test3b", True): (0.12, 0.015), ("test3b", False): (LAW_KS_PER_RUN, 0.056),
    ("test3c", True): (0.072, 0.016), ("test3c", False): (LAW_KS_PER_RUN, 0.056),
}


def _terminal_laws(simulate, cfg, seeds):
    """Per-run outputs, and the pooled terminal y and s with the per-run
    terminal S and rho_C."""
    runs = []
    for seed in seeds:
        r = simulate(dataclasses.replace(cfg, seed=seed))
        runs.append(r if isinstance(r, dict) else vars(r))
    laws = {"y": np.concatenate([r["y_final"] for r in runs]),
            "s": np.concatenate([r["s_final"] for r in runs]),
            "S": np.array([r["S"][-1] for r in runs]),
            "rho_C": np.array([r["rho_C"][-1] for r in runs])}
    return runs, laws


def _assert_laws_agree(got, want, name, pin_mean):
    bounds = dict(zip(("y", "s"), LAW_KS_POOLED[name, pin_mean]),
                  S=LAW_KS_PER_RUN, rho_C=LAW_KS_PER_RUN)
    for key, bound in bounds.items():
        ks = ks_2samp(got[key], want[key]).statistic
        assert ks <= bound, f"{key}: KS distance {ks:.4f} > {bound}"


class TestBitIdentity:
    """run() against the reference loop.

    The engine draws its pairs, switches and price noise from other draws
    than the reference loop, so after the initialization, which both draw
    alike, they agree in law, not bit for bit.
    """

    @pytest.mark.parametrize("pin_mean", [True, False], ids=["pinned", "free"])
    @pytest.mark.parametrize("seed, dt", [(1, 1.0), (7, 0.3)])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_run_matches_reference_loop(self, name, seed, dt, pin_mean):
        # odd sizes reach the leftover-agent path of the pairing step; a
        # time step below 1 tells apart products that dt = 1 would make equal
        cfg = dataclasses.replace(
            preset(name, {"N": 2999, "N_s": 2999, "n_iters": 80, "dt": dt}).sim,
            pin_mean=pin_mean)
        seeds = range(1000 * seed, 1000 * seed + LAW_SEEDS)
        runs, got = _terminal_laws(run, cfg, seeds)
        refs, want = _terminal_laws(_reference_run, cfg, seeds)
        for r, ref in zip(runs, refs):
            assert r["N"] == cfg.N and r["t"][1] == cfg.dt
            assert len(r["S"]) == len(ref["S"]) == cfg.n_iters + 1
            # the initial record precedes every step
            for field in ("S", "Y", "rho_C", "rho_F", "E", "n_chartists",
                          "max_abs_y", "min_price", "rejected", "switch_cf",
                          "switch_fc"):
                assert r[field][0] == ref[field][0], field
            if cfg.enable_switching:
                assert r["switch_cf"].sum() > 0 and r["switch_fc"].sum() > 0
        _assert_laws_agree(got, want, name, pin_mean)

    @pytest.mark.parametrize("pin_mean", [True, False], ids=["pinned", "free"])
    def test_all_pairs_run_matches_reference_loop(self, pin_mean):
        # at an even size every test1 step pairs all chartists, and the
        # outcomes overwrite y in pair order: the branch 2999 never reaches
        cfg = dataclasses.replace(
            preset("test1", {"N": 3000, "N_s": 3000, "n_iters": 80}).sim,
            pin_mean=pin_mean)
        seeds = range(1000, 1000 + LAW_SEEDS)
        got = _terminal_laws(run, cfg, seeds)[1]
        want = _terminal_laws(_reference_run, cfg, seeds)[1]
        _assert_laws_agree(got, want, "test1", pin_mean)
