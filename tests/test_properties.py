"""Property tests: the engine's invariants over random admissible parameters.

Each example draws a full parameter set inside every admissibility bound of
``ModelParams`` and a small ensemble, so the whole suite stays within a few
seconds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kinmarket.model import ModelParams, ValueFunctionSpec
from kinmarket.simulation import (
    AgentEnsemble,
    SimConfig,
    binary_interact,
    run,
    step_strategy_exchange,
)

PROPERTY = settings(deadline=None, database=None, max_examples=60)
unit = st.floats(0.0, 1.0)


@st.composite
def params_and_dt(draw):
    """Admissible ModelParams and a time step at which the price noise is too."""
    alpha1, alpha2 = draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 0.5))
    t_C, gamma_f = draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 2.0))
    # beta (t_C + gamma_f) < 1
    beta = draw(unit) * 0.99 / max(t_C + gamma_f, 1.0)
    dt = draw(st.floats(0.01, 1.0))
    # the uniform price noise keeps s' > 0 at every population split
    reach = 1.0 - dt * beta * max(t_C, gamma_f)
    # the opinion noise fits in +-(1 - alpha1 - alpha2) / 2 for gamma_diff = 1;
    # other exponents admit any variance and reject the interactions that
    # leave [-1, 1]
    gamma_diff = draw(st.sampled_from([1.0, 0.5, 2.0]))
    c = 0.5 * (1.0 - alpha1 - alpha2)
    vmax = c * c / 3.0 if gamma_diff == 1.0 else 1.0
    params = ModelParams(
        alpha1=alpha1, alpha2=alpha2, sigma2_opinion=draw(unit) * vmax,
        beta=beta, zeta2_price=0.9 * draw(unit) * reach * reach / (3.0 * dt),
        t_C=t_C, gamma_f=gamma_f, S_F=draw(st.floats(1.0, 50.0)),
        dividend=draw(st.floats(0.0, 0.1)),
        k_discount=draw(st.floats(0.01, 0.99)),
        mu_freq=draw(st.floats(0.01, 1.0)),
        sigma_switch=draw(st.floats(0.0, 3.0)),
        herding_a=draw(st.floats(0.0, 0.5)), herding_b=draw(st.floats(0.0, 0.5)),
        gamma_diff=gamma_diff,
    )
    return params, dt


@st.composite
def sim_configs(draw):
    params, dt = draw(params_and_dt())
    L = draw(st.floats(0.1, 2.0))
    r_exp = draw(st.floats(0.05, 0.95))
    return SimConfig(
        params=params,
        value_spec=ValueFunctionSpec(L=L, R0=draw(st.floats(-0.9, 0.9)) * L,
                                     r_exp=r_exp,
                                     l_exp=draw(st.floats(0.05, 1.0)) * r_exp),
        N=draw(st.integers(1, 40)), N_s=draw(st.integers(1, 40)), dt=dt,
        n_iters=draw(st.integers(0, 25)), seed=draw(st.integers(0, 2**32)),
        enable_switching=draw(st.booleans()), S0=draw(st.floats(0.5, 50.0)),
        rho_C0=draw(unit),
        chartist_init=draw(st.sampled_from(
            ["symmetric_uniform", "uniform", "constant:0", "constant:0.7",
             "constant:-1"])),
        pin_mean=draw(st.booleans()),
    )


def propensities(n):
    return hnp.arrays(float, n, elements=st.floats(-1.0, 1.0))


@settings(PROPERTY, max_examples=100)
@given(cfg=sim_configs())
def test_criterion_5_invariants_hold_at_every_iteration(cfg):
    traj = run(cfg)
    assert np.all(traj.rho_C + traj.rho_F == 1.0)
    assert np.all((traj.n_chartists >= 0) & (traj.n_chartists <= cfg.N))
    assert np.all(traj.rho_C == traj.n_chartists / cfg.N)
    assert np.all(traj.max_abs_y <= 1.0)
    assert np.all(traj.min_price >= 0.0)
    assert np.all(np.abs(traj.y_final) <= 1.0)


@settings(PROPERTY, max_examples=200)
@given(pd=params_and_dt(), data=st.data(), n=st.integers(1, 20))
def test_binary_interact_stays_in_unit_interval(pd, data, n):
    params, _ = pd
    c = np.sqrt(3.0 * params.sigma2_opinion)
    noise = hnp.arrays(float, n, elements=st.floats(-1.0, 1.0))
    y, y_star = data.draw(propensities(n)), data.draw(propensities(n))
    eta, eta_star = c * data.draw(noise), c * data.draw(noise)
    phi = data.draw(st.floats(-1.0, 1.0))
    y1, y2, rejected = binary_interact(y, y_star, phi, eta, eta_star, params)
    assert np.all(np.abs(y1) <= 1.0) and np.all(np.abs(y2) <= 1.0)
    assert np.array_equal(y1[rejected], y[rejected])
    assert np.array_equal(y2[rejected], y_star[rejected])


@settings(PROPERTY, max_examples=100)
@given(pd=params_and_dt(), data=st.data(), n=st.integers(1, 60),
       S=st.floats(0.1, 100.0), trend=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2**32))
def test_switching_conserves_agents(pd, data, n, S, trend, seed):
    params, dt = pd
    y, is_chartist = data.draw(propensities(n)), data.draw(hnp.arrays(bool, n))
    ens = AgentEnsemble(y=y[is_chartist],
                        n_fundamentalists=int(n - is_chartist.sum()))
    before = ens.n_chartists
    cf, fc = step_strategy_exchange(ens, S, trend, params, dt,
                                    np.random.default_rng(seed))
    assert ens.N == n
    assert 0 <= cf <= before and 0 <= fc <= n - before
    assert ens.n_chartists == before - cf + fc
    assert np.all(np.abs(ens.y) <= 1.0)
