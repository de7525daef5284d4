"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion is one test that prints a single machine-readable line

    ACCEPTANCE CRITERION <n>: PASS|FAIL - <measurements>

(run with ``pytest tests/test_acceptance.py -v -rA`` to see the lines for
passing tests as well).  Expensive preset runs are executed once per session
and shared across criteria.
"""

import concurrent.futures
import math
import multiprocessing
import os
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from kinmarket import fokker_planck as fp
from kinmarket import stats
from kinmarket.cli import classify_regime, preset
from kinmarket.model import ModelParams, ValueFunctionSpec
from kinmarket.simulation import SimConfig, run

pytestmark = pytest.mark.acceptance

SEED = 1
REGIME_SEEDS = tuple(range(1, 11))


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="session")
def test1_traj():
    return run(preset("test1", {"seed": SEED}).sim)


@pytest.fixture(scope="session")
def test2_traj():
    return run(preset("test2", {"seed": SEED}).sim)


def _run_preset(job):
    # module level, so that worker processes can unpickle it
    name, seed = job
    return name, run(preset(name, {"seed": seed}).sim)


@pytest.fixture(scope="session")
def test3_trajs():
    # one process per core: each run is seeded from its own config, so the
    # trajectories are those of serial runs; spawned workers, because a
    # forked copy of a process with threads may deadlock
    jobs = [(name, seed) for name in ("test3a", "test3b", "test3c")
            for seed in REGIME_SEEDS]
    out = {"test3a": [], "test3b": [], "test3c": []}
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=os.cpu_count(),
            mp_context=multiprocessing.get_context("spawn")) as ex:
        for name, traj in ex.map(_run_preset, jobs):
            out[name].append(traj)
    return out


def test_criterion_1_chartist_equilibrium_l1(test1_traj):
    """Terminal opinion histogram vs the drift-diffusion equilibrium law."""
    cfg = preset("test1")
    p = cfg.sim.params
    kappa = p.sigma2_opinion / (p.alpha1 + p.alpha2)
    eq = fp.ChartistEquilibrium(0.0, kappa)
    hist = stats.Histogram.from_samples(test1_traj.y_final, bins=100,
                                        range=(-1.0, 1.0))
    l1 = stats.l1_density_distance(hist, eq)
    ok = report(1, l1 <= 0.08,
                f"L1(y-histogram, equilibrium density) = {l1:.4f} <= 0.08 "
                f"(kappa={kappa}, N={cfg.sim.N}, iters={cfg.sim.n_iters})")
    assert ok


def test_criterion_2_lognormal_price_ks(test1_traj):
    """Terminal price samples vs the self-similar lognormal law."""
    S_ref = preset("test1").sim.S0
    E_T = float(test1_traj.E[-1])
    ks = stats.ks_statistic(test1_traj.s_final,
                            lambda s: fp.lognormal_price_cdf(s, S_ref, E_T))
    ok = report(2, ks <= 0.02,
                f"KS(s-samples, lognormal(S={S_ref}, E={E_T:.4f})) = {ks:.4f} "
                f"<= 0.02")
    assert ok


def test_test1_price_level_holds(test1_traj):
    # the constant-price regime: mean price stays at S0 = 10 up to stochastic
    # drift below 1 percent over the full run
    dev = abs(test1_traj.S[-1] - 10.0) / 10.0
    assert dev < 0.01, f"terminal mean price deviates by {dev:.2%}"


def test_criterion_3_pareto_tail(test2_traj):
    """Hill plateau vs the configured tail exponent; mean reversion to S_F."""
    cfg = preset("test2")
    p = cfg.sim.params
    rho_F = 1.0 - cfg.sim.rho_C0
    state = fp.pareto_steady_state(p, rho_F)
    mu = state.mu_exp
    scan = stats.hill_plateau(test2_traj.s_final, k_min_frac=0.02,
                              k_max_frac=0.08)
    hill = float(scan.estimates.mean())
    hill_err = abs(hill - mu) / mu
    mean_err = abs(float(test2_traj.s_final.mean()) - p.S_F) / p.S_F
    ok = report(3, hill_err <= 0.15 and mean_err <= 0.03,
                f"Hill[k in 2-8%] = {hill:.3f} vs mu_exp = {mu}, "
                f"rel err = {hill_err:.1%} (<=15%); "
                f"mean(s) rel err = {mean_err:.2%} (<=3%)")
    assert ok


def test_criterion_4_regime_map(test3_trajs):
    """Majority regime of each switching preset over a ten-seed sweep.

    The checked map is test3a damped_to_SF, test3b oscillatory, test3c
    damped_to_SF.  Each target must also be the regime of the preset's
    deterministic mean-field solution (``fokker_planck.mean_field_price``, at
    its default 101 grid points), so the map is that of the model's equations
    rather than of one sampled realization.

    'crash' is not a target: while any fundamentalist remains, the
    fundamentalist payoff beats every reachable chartist payoff within the
    classifier's crash threshold, so switching runs toward the fundamentalists
    there (TestStrategyExchange::
    test_fundamentalists_outearn_chartists_near_crash in test_simulation.py).
    rho_F = 0 is absorbing, and a run whose fundamentalists die out would be
    left to the chartists; no run of these presets comes near it.
    """
    S_F = preset("test3a").sim.params.S_F
    want = {"test3a": "damped_to_SF", "test3b": "oscillatory",
            "test3c": "damped_to_SF"}
    ok = True
    details = []
    for name, target in want.items():
        tags = Counter(classify_regime(t, S_F) for t in test3_trajs[name])
        mean_field = classify_regime(
            SimpleNamespace(S=fp.mean_field_price(preset(name).sim)), S_F)
        ok = ok and tags.get(target, 0) >= 8 and mean_field == target
        min_rho_F = min(float(np.min(t.rho_F)) for t in test3_trajs[name])
        details.append(f"{name}: want {target} (mean field and >=8/10 runs), "
                       f"mean field {mean_field}, runs {dict(tags)}, "
                       f"min rho_F {min_rho_F:.2f}")
    report(4, ok, "; ".join(details))
    assert ok, "; ".join(details)


def test_criterion_5_conservation(test1_traj, test2_traj, test3_trajs):
    """Exact population bookkeeping and confinement over every preset run."""
    runs = [("test1", test1_traj), ("test2", test2_traj)]
    for name, trajs in test3_trajs.items():
        runs.extend((name, t) for t in trajs)
    violations = []
    for name, traj in runs:
        if not np.all(traj.rho_C + traj.rho_F == 1.0):
            violations.append(f"{name}: rho_C + rho_F != 1")
        if not np.all((traj.n_chartists >= 0) & (traj.n_chartists <= traj.N)):
            violations.append(f"{name}: chartist count out of range")
        if not np.all(traj.rho_C == traj.n_chartists / traj.N):
            violations.append(f"{name}: fractions not integer-count based")
        if traj.max_abs_y.max() > 1.0:
            violations.append(f"{name}: |y| exceeded 1 "
                              f"({traj.max_abs_y.max()})")
        if traj.min_price.min() < 0.0:
            violations.append(f"{name}: negative price sample")
    ok = report(5, not violations,
                f"{len(runs)} preset runs, violations: {violations or 'none'}")
    assert ok


def test_criterion_6_oracle_residuals():
    """Stationarity residual, normalizations, and steady-state mean."""
    checks = []

    y = np.linspace(-0.99, 0.99, 397)
    worst = 0.0
    for y_star in (0.0, 0.2, -0.2):
        eq = fp.ChartistEquilibrium(y_star, 1.0)
        res = np.abs(fp.chartist_stationary_residual(eq, y, 1.0, 1.0)).max()
        worst = max(worst, res)
    # same residual under the simulation-bridge scaling of the test1 preset
    eq = fp.ChartistEquilibrium(0.0, 1.0)
    res = np.abs(fp.chartist_stationary_residual(eq, y, 0.02, 0.02)).max()
    worst = max(worst, res)
    checks.append(("stationary residual", worst, worst < 1e-6))

    mass, _ = quad(fp.ChartistEquilibrium(0.2, 1.0, rho_C=0.5), -1, 1, limit=200)
    err_eq = abs(mass - 0.5)
    checks.append(("chartist normalization", err_eq, err_eq <= 1e-6))

    m, _ = quad(lambda s: fp.lognormal_price_density(s, 10.0, 150.0),
                0.0, np.inf, limit=300)
    err_ln = abs(m - 1.0)
    checks.append(("lognormal normalization", err_ln, err_ln <= 1e-6))

    worst_mass = worst_mean = 0.0
    for mu in (1.5, 2.0, 3.0, 5.0):
        ps = fp.ParetoSteadyState(mu, 20.0)
        th = ps.scale
        mass, _ = quad(lambda x: ps.pdf(th / x) * th / x**2, 0.0, np.inf,
                       limit=300)
        mean, _ = quad(lambda x: (th / x) * ps.pdf(th / x) * th / x**2,
                       0.0, np.inf, limit=300)
        worst_mass = max(worst_mass, abs(mass - 1.0))
        worst_mean = max(worst_mean, abs(mean - 20.0) / 20.0)
    checks.append(("pareto normalization", worst_mass, worst_mass <= 1e-6))
    checks.append(("pareto mean rel err", worst_mean, worst_mean <= 1e-6))

    ok = all(c[2] for c in checks)
    report(6, ok, "; ".join(f"{n} = {v:.2e}" for n, v, _ in checks))
    assert ok, checks


def test_criterion_7_deterministic_skeleton():
    """Macro ODE vs closed forms, RK4 order, noise-free mean replay."""
    details = []

    # pure fundamentalists: exponential relaxation to the fundamental price
    p = ModelParams(beta=0.1, gamma_f=1.0, t_C=1.0, S_F=20.0)
    phi = ValueFunctionSpec()
    exact = 20.0 - 10.0 * math.exp(-1.0)
    _, S, _ = fp.solve_macro_ode(10.0, 0.0, 0.0, p, T=10.0, dt=0.01, phi=phi)
    relax_err = abs(S[-1] - exact) / exact
    ok_relax = relax_err < 1e-10

    errs = []
    for dt in (0.5, 0.25):
        _, S, _ = fp.solve_macro_ode(10.0, 0.0, 0.0, p, T=10.0, dt=dt, phi=phi)
        errs.append(abs(S[-1] - exact))
    ratio = errs[0] / errs[1]
    ok_order = 12.0 < ratio < 20.0
    details.append(f"relaxation err {relax_err:.1e}, dt-halving ratio {ratio:.1f}")

    # pure chartists: the boom envelope S0 e^(+-beta t_C t), plus exact
    # exponential growth when the propensity is locked at 1
    t, S, _ = fp.solve_macro_ode(10.0, 0.6, 1.0, p, T=30.0, dt=0.05, phi=phi)
    ok_env = bool(np.all(S <= 10.0 * np.exp(0.1 * t) * (1 + 1e-9))
                  and np.all(S >= 10.0 * np.exp(-0.1 * t) * (1 - 1e-9)))
    _, S, _ = fp.solve_macro_ode(10.0, 1.0, 1.0, p, T=20.0, dt=0.01,
                                 phi=lambda x: 1.0)
    boom_err = abs(S[-1] - 10.0 * math.exp(2.0)) / (10.0 * math.exp(2.0))
    ok_boom = boom_err < 1e-9
    details.append(f"envelope {'held' if ok_env else 'violated'}, "
                   f"locked-boom err {boom_err:.1e}")

    # noise-free ensemble mean replays the forward-Euler recursion exactly
    pe = ModelParams(alpha1=0.0, alpha2=0.0, sigma2_opinion=0.0, beta=0.1,
                     t_C=1.0, gamma_f=1.3, S_F=20.0, zeta2_price=0.0)
    cfg = SimConfig(params=pe, value_spec=phi, N=500, N_s=400, n_iters=200,
                    seed=SEED, S0=10.0, rho_C0=0.5,
                    chartist_init="constant:0.3")
    traj = run(cfg)
    s = 10.0
    worst = 0.0
    for i in range(1, len(traj)):
        s = s + 0.1 * (0.5 * traj.Y[i - 1] * s + 0.5 * 1.3 * (20.0 - s))
        worst = max(worst, abs(traj.S[i] - s) / s)
    ok_euler = worst < 1e-12
    details.append(f"euler replay max rel err {worst:.1e}")

    ok = ok_relax and ok_order and ok_env and ok_boom and ok_euler
    report(7, ok, "; ".join(details))
    assert ok, details


def test_criterion_8_equilibrium_classifier():
    """Tabulated classification cases and the locked-propensity root."""
    phi = ValueFunctionSpec()
    params = ModelParams(beta=0.1, t_C=1.0, gamma_f=1.3, S_F=20.0)
    got = (
        fp.classify_equilibrium(0.5, 20.0, 0.0, phi, params),
        fp.classify_equilibrium(0.0, 12.0, 0.0, phi, params),
        fp.classify_equilibrium(0.0, 0.0, 0.0, phi, params),
        fp.classify_equilibrium(0.5, 20.0, 0.0, lambda x: 0.1, params),
    )
    ok_cls = got == ("i", "ii", "iii", "none")

    ok_root = True
    for spec in (ValueFunctionSpec(),
                 ValueFunctionSpec(L=0.5, r_exp=0.7, l_exp=0.3)):
        for beta, t_C in ((0.1, 1.0), (6.0, 0.02), (1.0, 0.9)):
            roots = fp.solve_Y_fixed_point(spec, beta, t_C)
            ok_root = ok_root and bool(np.min(np.abs(roots)) <= 1e-12)

    ok = ok_cls and ok_root
    report(8, ok, f"classifier tags {got}; zero fixed point found for every "
                  f"centered value function: {ok_root}")
    assert ok
