"""Behavioral functions: value-of-trend, herding, diffusion, profits, rates."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from kinmarket import cli
from kinmarket.model import (
    ConfigurationError,
    ModelParams,
    ValueFunctionSpec,
    chartist_profit,
    diffusion,
    fundamentalist_profit,
    herding,
    price_noise_halfwidth,
    switch_rate,
    value_function,
)
from kinmarket.simulation import AgentEnsemble, SimConfig, step_chartists


def make_test3_params(**over):
    base = dict(alpha1=0.2, alpha2=0.55, sigma2_opinion=5e-4, beta=6.0,
                zeta2_price=2.5e-3, t_C=0.02, gamma_f=0.1, S_F=20.0,
                dividend=0.004, k_discount=0.75, mu_freq=0.2, sigma_switch=0.8,
                herding_a=0.0, herding_b=1.0)
    base.update(over)
    return ModelParams(**base)


class TestValueFunction:
    spec = ValueFunctionSpec(L=1.0, R0=0.0, r_exp=0.5, l_exp=0.25)

    def test_reference_point(self):
        assert value_function(self.spec, 0.0) == 0.0

    def test_upper_saturation(self):
        assert value_function(self.spec, 1.0) == 1.0
        # clamped beyond the domain boundary
        assert value_function(self.spec, 2.5) == 1.0
        assert value_function(self.spec, -3.0) == -1.0

    def test_gain_branch(self):
        assert value_function(self.spec, 0.25) == pytest.approx(0.5, abs=1e-15)

    def test_loss_branch(self):
        # loss branch evaluates -(0.25)**(1/4); oracle: independent scalar power
        assert value_function(self.spec, -0.25) == pytest.approx(
            -(0.25 ** 0.25), abs=1e-15)
        assert value_function(self.spec, -0.25) == pytest.approx(
            -0.7071067811865476, abs=1e-12)

    def test_monotone_and_bounded_on_grid(self):
        x = np.linspace(-1.5, 1.5, 10001)
        v = value_function(self.spec, x)
        assert np.all(np.diff(v) >= 0.0)
        assert v.min() >= -1.0 and v.max() <= 1.0

    def test_loss_aversion(self):
        # steeper for losses: |phi(-x)| >= phi(x) on (0, L) when l < r
        x = np.linspace(1e-6, 1.0 - 1e-9, 2000)
        assert np.all(np.abs(value_function(self.spec, -x))
                      >= value_function(self.spec, x))

    def test_shifted_reference_point(self):
        spec = ValueFunctionSpec(L=1.0, R0=0.2, r_exp=0.5, l_exp=0.3)
        assert value_function(spec, 0.2) == 0.0
        assert value_function(spec, 1.0) == 1.0
        assert value_function(spec, -1.0) == -1.0
        x = np.linspace(-1.0, 1.0, 4001)
        v = value_function(spec, x)
        assert np.all(np.diff(v) >= 0.0)

    @pytest.mark.parametrize("kwargs", [
        dict(L=0.0), dict(L=-1.0), dict(R0=1.0), dict(R0=-1.5),
        dict(r_exp=1.0), dict(r_exp=0.0), dict(l_exp=0.6, r_exp=0.5),
        dict(l_exp=0.0),
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ValueFunctionSpec(**kwargs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", [f.name for f in fields(ValueFunctionSpec)])
    def test_non_finite_spec_rejected(self, name, bad):
        with pytest.raises(ConfigurationError, match=rf"^{name} must be finite"):
            ValueFunctionSpec(**{name: bad})

    def test_spec_is_callable(self):
        assert self.spec(0.25) == value_function(self.spec, 0.25)


class TestHerdingDiffusion:
    def test_constant_herding(self):
        p = ModelParams(herding_a=1.0, herding_b=0.0)
        assert herding(p, 0.7) == 1.0

    def test_linear_herding_endpoints(self):
        p = ModelParams(herding_a=0.0, herding_b=1.0)
        assert herding(p, 0.0) == 1.0
        assert herding(p, 1.0) == 0.0
        assert herding(p, -1.0) == 0.0

    def test_herding_hand_value(self):
        p = ModelParams(herding_a=0.2, herding_b=0.5)
        assert herding(p, 0.5) == pytest.approx(0.45, abs=1e-15)

    def test_herding_symmetric_and_bounded(self):
        p = ModelParams(herding_a=0.3, herding_b=0.6)
        y = np.linspace(0.0, 1.0, 10000)
        assert np.array_equal(herding(p, y), herding(p, -y))
        all_y = np.linspace(-1.0, 1.0, 10000)
        h = herding(p, all_y)
        assert h.min() >= 0.0 and h.max() <= 1.0

    def test_diffusion_values(self):
        p1 = ModelParams(gamma_diff=1.0)
        assert diffusion(p1, 0.0) == 1.0
        assert diffusion(p1, 1.0) == 0.0
        assert diffusion(p1, -1.0) == 0.0
        p2 = ModelParams(gamma_diff=2.0)
        assert diffusion(p2, 0.5) == pytest.approx(0.5625, abs=1e-15)

    def test_diffusion_symmetric_bounded(self):
        p = ModelParams(gamma_diff=1.5)
        y = np.linspace(0.0, 1.0, 10000)
        assert np.array_equal(diffusion(p, y), diffusion(p, -y))
        d = diffusion(p, np.linspace(-1.0, 1.0, 10000))
        assert d.min() >= 0.0


class TestProfits:
    def test_calibration_at_fundamental_price(self):
        # D=0.004, S_F=20 gives r=0.0002; stable price at S_F zeroes both payoffs
        p = make_test3_params()
        assert p.dividend / p.S_F == pytest.approx(0.0002, abs=1e-18)
        assert chartist_profit(p, 0.5, 20.0, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert fundamentalist_profit(p, 20.0) == 0.0

    def test_fundamentalist_zero_at_s_f_any_k(self):
        for k in (0.1, 0.5, 0.9):
            p = ModelParams(S_F=20.0, k_discount=k)
            assert fundamentalist_profit(p, 20.0) == 0.0

    def test_fundamentalist_hand_value(self):
        p = ModelParams(k_discount=0.75, S_F=20.0)
        assert fundamentalist_profit(p, 10.0) == pytest.approx(0.75, abs=1e-15)

    def test_fundamentalist_nonnegative(self):
        p = ModelParams(k_discount=0.3, S_F=20.0)
        for s in np.linspace(0.5, 60.0, 50):
            assert fundamentalist_profit(p, s) >= 0.0

    def test_chartist_sign_relation(self):
        p = make_test3_params()
        rng = np.random.default_rng(3)
        for _ in range(200):
            y = rng.uniform(-1, 1)
            s = rng.uniform(1.0, 40.0)
            s_dot = rng.uniform(-2.0, 2.0)
            signal = (s_dot / p.mu_freq + p.dividend) / s - p.dividend / p.S_F
            assert np.sign(chartist_profit(p, y, s, s_dot)) == np.sign(y) * np.sign(signal)

    def test_nonpositive_price_rejected(self):
        p = ModelParams()
        with pytest.raises(ValueError):
            chartist_profit(p, 0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            fundamentalist_profit(p, -1.0)

    def test_profit_consistency_across_parameter_sets(self):
        # both payoffs vanish simultaneously at (S=S_F, S_dot=0)
        for div, sf in ((0.0, 10.0), (0.004, 20.0), (0.1, 5.0)):
            p = ModelParams(dividend=div, S_F=sf)
            assert chartist_profit(p, 0.9, sf, 0.0) == pytest.approx(0.0, abs=1e-15)
            assert fundamentalist_profit(p, sf) == 0.0


class TestSwitchRate:
    def test_unit_at_zero(self):
        p = ModelParams(sigma_switch=0.8)
        assert switch_rate(p, 0.0) == 1.0

    def test_hand_value(self):
        p = ModelParams(sigma_switch=0.8)
        assert switch_rate(p, 1.0) == pytest.approx(math.exp(0.8), rel=1e-15)
        assert switch_rate(p, 1.0) == pytest.approx(2.225540928492468, rel=1e-12)

    def test_monotone_positive(self):
        p = ModelParams(sigma_switch=0.5)
        x = np.linspace(-5.0, 5.0, 1000)
        r = switch_rate(p, x)
        assert np.all(r > 0.0)
        assert np.all(np.diff(r) > 0.0)


class TestNoiseBounds:
    # each bound written out: at gamma_diff = 1 the opinion noise, uniform on
    # +-sqrt(3 sigma2), fits in +-(1 - alpha1 - alpha2) / 2; the price noise,
    # uniform on +-sqrt(3 zeta2 dt), in 1 - dt beta (rho_C t_C + rho_F gamma_f)

    @pytest.mark.parametrize("a1, a2", [(0.01, 0.01), (0.2, 0.55), (0.0, 0.0)])
    def test_opinion_noise_at_its_bound(self, a1, a2):
        c = 0.5 * (1.0 - a1 - a2)
        below, above = (c * c / 3.0 * (1.0 + e) for e in (-1e-12, 1e-12))
        ModelParams(alpha1=a1, alpha2=a2, sigma2_opinion=below)
        with pytest.raises(ConfigurationError, match="maximum admissible"):
            ModelParams(alpha1=a1, alpha2=a2, sigma2_opinion=above)
        ModelParams(alpha1=a1, alpha2=a2, sigma2_opinion=above, gamma_diff=2.0)

    @pytest.mark.parametrize("dt", [1.0, 0.25])
    @pytest.mark.parametrize("rho_C", [0.0, 0.5, 1.0])
    def test_price_noise_at_its_bound(self, rho_C, dt):
        p = ModelParams(beta=0.1, t_C=1.0, gamma_f=1.3)
        d = 1.0 - dt * 0.1 * (rho_C * 1.0 + (1.0 - rho_C) * 1.3)
        below, above = (d * d / (3.0 * dt) * (1.0 + e) for e in (-1e-12, 1e-12))
        assert price_noise_halfwidth(replace(p, zeta2_price=below), rho_C, dt) \
            == math.sqrt(3.0 * below * dt)
        with pytest.raises(ConfigurationError, match="maximum admissible"):
            price_noise_halfwidth(replace(p, zeta2_price=above), rho_C, dt)

    def test_degenerate_halfwidth(self):
        # alpha1 + alpha2 = 1 leaves no room: only a noiseless market
        ModelParams(alpha1=0.5, alpha2=0.5, sigma2_opinion=0.0)
        with pytest.raises(ConfigurationError):
            ModelParams(alpha1=0.5, alpha2=0.5, sigma2_opinion=1e-300)

    def test_inadmissible_opinion_variance_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            ModelParams(alpha1=0.01, alpha2=0.01, sigma2_opinion=0.5)
        # the error reports the admissible maximum
        c = 0.5 * (1.0 - 0.01 - 0.01)
        assert f"maximum admissible variance is {c * c / 3.0}" in str(err.value)

    def test_admissible_variance_accepted(self):
        # from y = 0, with phi = 0, each interaction moves y to its own noise
        # draw: uniform on the half-width sqrt(3 sigma2)
        p = ModelParams(alpha1=0.01, alpha2=0.01, sigma2_opinion=0.02)
        ens = AgentEnsemble(y=np.zeros(20000), n_fundamentalists=0)
        assert step_chartists(ens, 0.0, p, 1.0, np.random.default_rng(1)) == 0
        c = np.abs(ens.y).max()
        assert 0.999 * math.sqrt(0.06) < c <= math.sqrt(3.0 * 0.02)

    def test_nonquadratic_diffusion_skips_support_check(self):
        # other exponents reject the interactions that leave [-1, 1] instead
        p = ModelParams(alpha1=0.4, alpha2=0.4, sigma2_opinion=0.5, gamma_diff=2.0)
        ens = AgentEnsemble(y=np.zeros(2000), n_fundamentalists=0)
        assert step_chartists(ens, 0.0, p, 1.0, np.random.default_rng(1)) > 0
        assert np.abs(ens.y).max() <= 1.0


class TestModelParamsValidation:
    def test_records_hold_only_their_keys(self):
        # every field is a constructor argument, and the 29 config keys are
        # the records' fields less SimConfig's two records
        records = (ModelParams, ValueFunctionSpec, SimConfig)
        assert all(f.init for cls in records for f in fields(cls))
        keys = [f.name for cls in records for f in fields(cls)
                if f.name not in ("params", "value_spec")]
        assert list(cli._SCHEMA) == keys and len(keys) == 29

    def test_kappa_derived(self):
        # the test1 parameters: bit for bit the ratio, 0.02 / 0.02
        p = ModelParams(alpha1=0.01, alpha2=0.01, sigma2_opinion=0.02)
        assert p.kappa == 0.02 / (0.01 + 0.01)
        assert p.kappa == 1.0

    def test_kappa_nan_without_interaction(self):
        assert math.isnan(ModelParams(alpha1=0.0, alpha2=0.0).kappa)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", [f.name for f in fields(ModelParams)])
    def test_non_finite_params_rejected(self, name, bad):
        # a nan passes every `x < 0` check: it must be refused by name
        with pytest.raises(ConfigurationError, match=rf"^{name} must be finite"):
            ModelParams(**{name: bad})

    @pytest.mark.parametrize("kwargs", [
        dict(alpha1=0.6, alpha2=0.6),
        dict(alpha1=-0.1),
        dict(alpha2=1.2),
        dict(sigma2_opinion=-1.0),
        dict(S_F=0.0),
        dict(dividend=-0.1),
        dict(k_discount=1.0),
        dict(k_discount=0.0),
        dict(mu_freq=0.0),
        dict(herding_a=0.7, herding_b=0.7),
        dict(herding_b=-0.1),
        dict(gamma_diff=0.0),
        dict(beta=0.5, t_C=1.0, gamma_f=1.3),  # beta*(t_C+gamma_f) >= 1
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ModelParams(**kwargs)
