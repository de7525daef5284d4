"""Reference values and output checks for the benchmark.

Every reference here is computed by the benchmark itself, from the preset's
parameters, with no call into the simulation engine: the closed-form opinion
equilibrium and lognormal price law of the pure-chartist market, the Pareto
tail exponent of the mixed market, and the deterministic mean-field solution
of the switching presets.  Each check returns a list of problems, empty when
the output passes, so that tests can feed it a wrong output and see it
rejected.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from kinmarket.model import (
    chartist_profit,
    diffusion,
    fundamentalist_profit,
    herding,
    switch_rate,
    value_function,
)

L1_OPINION_MAX = 0.08
KS_LOGNORMAL_MAX = 0.02
HILL_REL_ERR_MAX = 0.15
HILL_K_FRACS = (0.02, 0.08)    # order counts k as shares of the sample size
HILL_N_K = 25
MEAN_FIELD_GRID = 51            # propensity grid points
MEAN_FIELD_NODES = 4            # Gauss-Legendre nodes for the opinion noise
MEAN_FIELD_PERTURB = 1e-3       # relative offset of the initial price


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------

def opinion_density(y, kappa: float):
    """Unnormalized stationary opinion density (1 - y^2)^-2 exp(-1 / (kappa (1 - y^2))).

    The symmetric equilibrium (mean propensity 0) of the drift-diffusion
    limit with constant herding and D(y) = 1 - y^2; zero outside (-1, 1).
    """
    w = 1.0 - np.square(np.asarray(y, dtype=float))
    out = np.zeros_like(w)
    inside = w > 0.0
    with np.errstate(under="ignore"):
        out[inside] = np.exp(-2.0 * np.log(w[inside]) - 1.0 / (kappa * w[inside]))
    return out


def l1_to_opinion_law(y_samples, kappa: float) -> float:
    """L1 distance between the 100-bin [-1, 1] histogram of y and the equilibrium law.

    Cell masses of the law come from 16-point Gauss-Legendre rules per bin;
    the law is normalized by their sum, since it puts no mass outside (-1, 1).
    """
    counts, edges = np.histogram(y_samples, bins=100, range=(-1.0, 1.0))
    nodes, weights = np.polynomial.legendre.leggauss(16)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    cell = (opinion_density(mid[:, None] + half[:, None] * nodes, kappa)
            @ weights) * half
    return float(np.abs(counts / counts.sum() - cell / cell.sum()).sum())


def ks_to_lognormal(s_samples, S_mean: float, E_second: float) -> float:
    """Kolmogorov-Smirnov distance to the lognormal law of given mean and E[s^2]."""
    v = math.log(E_second / (S_mean * S_mean))
    m = math.log(S_mean) - 0.5 * v
    x = np.sort(np.asarray(s_samples, dtype=float))
    n = x.size
    F = ndtr((np.log(x) - m) / math.sqrt(v))
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - F), np.max(F - (i - 1) / n)))


def pareto_exponent(table: dict) -> float:
    """Tail exponent 1 + 2 beta rho_F gamma_f / zeta^2 of a fixed-population preset."""
    rho_F = 1.0 - table["rho_C0"]
    return 1.0 + 2.0 * table["beta"] * rho_F * table["gamma_f"] / table["zeta2_price"]


def hill_mean(samples) -> float:
    """Mean of the Hill tail-index estimates over 25 order counts k in HILL_K_FRACS."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    logs = np.log(x)
    ks = np.unique(np.linspace(int(HILL_K_FRACS[0] * n), int(HILL_K_FRACS[1] * n),
                               HILL_N_K).astype(int))
    top = np.cumsum(logs[::-1])  # top[k - 1] = sum of the k largest logs
    return float(np.mean(ks / (top[ks - 1] - ks * logs[n - ks - 1])))


def mean_field_price(sim) -> np.ndarray:
    """Mean price of a switching preset under its N -> infinity mean-field equations.

    The chartist propensity law is a mass vector on a uniform grid over
    [-1, 1] with total mass rho_C.  Each iteration follows the engine's order:
    a share rho_C dt of the mass meets a partner drawn from the law (noise
    integrated by Gauss-Legendre nodes, the new propensity split between the
    two nearest grid points), switching moves mass with the switch
    probabilities of ``kinmarket.model``, and the mean price takes the mean
    sample update.  The preset starts at an equilibrium that the Monte Carlo
    leaves through finite-N noise, so the initial price is offset by the
    relative amount MEAN_FIELD_PERTURB.
    """
    p, dt = sim.params, sim.dt
    n_grid = MEAN_FIELD_GRID
    y = np.linspace(-1.0, 1.0, n_grid)
    h = y[1] - y[0]
    m = np.full(n_grid, sim.rho_C0 / (n_grid - 1))
    m[[0, -1]] *= 0.5
    nodes, weights = np.polynomial.legendre.leggauss(MEAN_FIELD_NODES)
    eta = math.sqrt(3.0 * p.sigma2_opinion) * nodes
    a1h = p.alpha1 * herding(p, y)
    y_mix = ((1.0 - a1h - p.alpha2) * y)[:, None, None] \
        + a1h[:, None, None] * y[None, :, None] \
        + diffusion(p, y)[:, None, None] * eta
    S = [sim.S0 * (1.0 + MEAN_FIELD_PERTURB)]
    trend = 0.0
    for _ in range(sim.n_iters):
        s = S[-1]
        rho_C = m.sum()
        rho_F = 1.0 - rho_C
        Y = m @ y / rho_C
        y_new = y_mix + p.alpha2 * value_function(sim.value_spec, trend)
        if np.abs(y_new).max() > 1.0:
            raise ValueError("mean-field propensity left [-1, 1]: the opinion "
                             "noise is inadmissible for this preset")
        pos = (y_new + 1.0) / h
        lo = np.minimum(pos.astype(int), n_grid - 2)
        frac = pos - lo
        w = m[:, None, None] * (m / rho_C)[None, :, None] * (weights / 2.0)
        met = np.bincount(lo.ravel(), (w * (1.0 - frac)).ravel(), n_grid) \
            + np.bincount(lo.ravel() + 1, (w * frac).ravel(), n_grid)
        m = (1.0 - rho_C * dt) * m + rho_C * dt * met
        x_f = fundamentalist_profit(p, s)
        x_c = chartist_profit(p, y, s, trend * s)
        p_cf = np.minimum(1.0, dt * p.mu_freq * rho_F * switch_rate(p, x_f - x_c))
        p_fc = np.minimum(1.0, dt * p.mu_freq * rho_C * switch_rate(p, x_c - x_f))
        m = m * (1.0 - p_cf) + rho_F * (m / rho_C) * p_fc
        S.append(s + dt * p.beta * (rho_C * p.t_C * Y * s
                                    + rho_F * p.gamma_f * (p.S_F - s)))
        trend = (S[-1] - s) / (dt * S[-1])
    return np.asarray(S)


# --------------------------------------------------------------------------
# checks on a finished run
# --------------------------------------------------------------------------

def check_invariants(rows: np.ndarray, traj, y, s) -> list[str]:
    """Population bookkeeping and confinement at every recorded iteration.

    ``rows`` is trajectory.csv as read back, ``traj`` the Trajectory the run
    returned, ``y``/``s`` the terminal sample files as read back.
    """
    bad = []
    rho_C, rho_F = rows[:, 4], rows[:, 5]
    if not np.all(rho_C + rho_F == 1.0):
        bad.append("rho_C + rho_F != 1 in trajectory.csv")
    if not np.array_equal(rho_C, traj.n_chartists / traj.N):
        bad.append("rho_C in trajectory.csv is not n_chartists / N")
    if traj.max_abs_y.max() > 1.0 or (y.size and np.abs(y).max() > 1.0):
        bad.append("|y| exceeded 1")
    if traj.min_price.min() < 0.0 or s.min() < 0.0:
        bad.append("negative price sample")
    return bad


def check_chartist_relax(table: dict, rows, y, s) -> list[str]:
    """Opinion equilibrium (L1), lognormal price law (KS) and the price level."""
    bad = []
    kappa = table["sigma2_opinion"] / (table["alpha1"] + table["alpha2"])
    l1 = l1_to_opinion_law(y, kappa)
    if not l1 <= L1_OPINION_MAX:
        bad.append(f"L1 to the opinion equilibrium {l1:.4f} > {L1_OPINION_MAX}")
    # The self-similar law with the recorded terminal mean and second moment.
    # Centring it on S0 instead would fold the drift of the mean price, which
    # is checked below, into a distance meant for the shape: a 0.6% drift
    # alone puts KS near 0.015.
    S_T, E_T = float(rows[-1, 2]), float(rows[-1, 6])
    ks = ks_to_lognormal(s, S_T, E_T) if E_T > S_T * S_T else math.inf
    if not ks <= KS_LOGNORMAL_MAX:
        bad.append(f"KS to the lognormal price law {ks:.4f} > {KS_LOGNORMAL_MAX}")
    S0 = table["S0"]
    # With no fundamentalists and Y pinned at 0 the mean price is a
    # martingale: each step adds the mean of N_s price noises, of variance
    # zeta^2 dt E_t / N_s.  After 1500 steps at N_s = 50k its standard
    # deviation is ~0.47% of S0, so a bare 1% bound would fail correct runs
    # on a few seeds in a hundred; the bound is widened to 5 deviations.
    sd = math.sqrt(table["zeta2_price"] * table["dt"] * rows[:-1, 6].sum()
                   / table["N_s"]) / S0
    tol = max(0.01, 5.0 * sd)
    dev = abs(float(s.mean()) - S0) / S0
    if not dev <= tol:
        bad.append(f"mean price {s.mean():.4f} off S0 = {S0} by {dev:.2%} "
                   f"> {tol:.2%}")
    return bad


def check_regime(tag: str | None, want: str, rows) -> list[str]:
    """The run's regime tag equals the mean-field tag; fundamentalists never die out."""
    bad = []
    if tag != want:
        bad.append(f"regime {tag} differs from the mean-field regime {want}")
    if not np.all(rows[:, 5] > 0.0):
        bad.append("rho_F reached 0")
    return bad


def check_fat_tail(table: dict, rows, s) -> list[str]:
    """Hill tail index against mu from the parameters; mean price against S_F."""
    bad = []
    mu = pareto_exponent(table)
    hill = hill_mean(s)
    err = abs(hill - mu) / mu
    if not err <= HILL_REL_ERR_MAX:
        bad.append(f"Hill estimate {hill:.3f} off mu = {mu} by {err:.1%} > 15%")
    # The mean price recorded over the second half of the run, not the mean
    # of the terminal samples: at mu = 2 the samples have no finite variance,
    # and their mean misses S_F by 3% on a few seeds in a hundred.
    S_F = table["S_F"]
    S_avg = float(rows[rows.shape[0] // 2:, 2].mean())
    dev = abs(S_avg - S_F) / S_F
    if not dev <= 0.03:
        bad.append(f"mean price {S_avg:.4f} off S_F = {S_F} by {dev:.2%} > 3%")
    return bad


# statistics that `analyze` recomputes from the files of a finished run
ANALYZED_KEYS = (
    "terminal_S", "terminal_Y", "terminal_rho_C", "terminal_rho_F", "terminal_E",
    "min_price_terminal", "max_abs_y_terminal", "rho_sum_exact", "regime",
    "mu_exp", "hill_plateau_found", "hill_plateau_mean", "hill_k",
    "hill_estimate", "price_mean", "price_mean_rel_err",
)


def check_analyze(run_summary: dict, analyze_summary: dict) -> list[str]:
    """`analyze` reports the same statistics as the run it reads back."""
    return [f"analyze gives {k}={analyze_summary.get(k)}, the run gave "
            f"{run_summary.get(k)}"
            for k in ANALYZED_KEYS if analyze_summary.get(k) != run_summary.get(k)]
