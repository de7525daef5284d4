"""Closed-form asymptotic oracles and the macroscopic ODE skeleton.

In the small-interaction, small-noise scaling limit the pair-interaction
dynamics of the chartist opinions and the per-sample price updates reduce to
a pair of drift-diffusion equations.  This module evaluates their explicit
long-time solutions:

* the chartist equilibrium opinion density (for constant herding and the
  quadratic diffusion profile D(y) = 1 - y^2),
* the self-similar lognormal price law of the pure-chartist market,
* the inverse-Gamma price steady state with Pareto tail that appears once
  fundamentalists hold a finite population share,

together with the deterministic mean-value ODE system, an equilibrium
classifier and the fixed-point solver for the locked mean propensity.

The opinion density is normalized once, by a trapezoid sum in u = atanh(y)
taken in log space.  In u the integrand decays double-exponentially, so the
sum converges geometrically in the node count, and the log form keeps the
mass finite where it underflows a double (kappa below ~1.3e-3).  Everything
here needs numpy and the standard library only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .model import (
    ConfigurationError,
    ModelParams,
    NumericsError,
    price_drift,
)

__all__ = [
    "FokkerPlanckParams",
    "ChartistEquilibrium",
    "symmetric_equilibrium",
    "chartist_stationary_residual",
    "lognormal_price_density",
    "lognormal_price_cdf",
    "lognormal_log_params",
    "ParetoSteadyState",
    "pareto_steady_state",
    "MacroState",
    "PriceCollapse",
    "macro_ode_step",
    "solve_macro_ode",
    "classify_equilibrium",
    "solve_Y_fixed_point",
]

# the normalization sums over u in [-_U_MAX, _U_MAX], on 2 * _HALF_NODES
# intervals and on every other node; beyond |u| ~ 19 tanh(u) rounds to +-1
_U_MAX = 19.0
_HALF_NODES = 8000
_LOG_MASS_TOL = 1e-10
# classify_equilibrium's tolerance; solve_Y_fixed_point's grid and tolerance
_EQUILIBRIUM_EPS = 1e-8
_ROOT_GRID = 10001
_ROOT_TOL = 1e-12


def _on_support(x, inside, f):
    """f on the entries of x where ``inside`` holds, 0 elsewhere.

    Accepts a scalar or an array and returns the same shape.
    """
    arr = np.asarray(x, dtype=float)
    xv = np.atleast_1d(arr)
    out = np.zeros_like(xv)
    mask = inside(xv)
    out[mask] = f(xv[mask])
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _positive(x):
    return x > 0.0


def _inside_unit(x):
    return np.abs(x) < 1.0


@dataclass(frozen=True)
class FokkerPlanckParams:
    """Scaled drift-diffusion parameters and the derived ratio kappa.

    The bridge from the interaction-level constants identifies the scaling
    parameter with the simulation time step: alpha1_t = alpha1/dt,
    alpha2_t = alpha2/dt, lam = sigma2_opinion/dt, beta_t = beta/dt,
    nu = zeta2_price/dt.  kappa = lam / (alpha1_t + alpha2_t) is derived,
    never set, so it is consistent with its components by construction.
    """

    alpha1_t: float
    alpha2_t: float
    lam: float
    beta_t: float
    nu: float
    kappa: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("alpha1_t", "alpha2_t", "lam", "beta_t", "nu"):
            if getattr(self, name) < 0.0:
                raise ConfigurationError(f"{name} must be nonnegative")
        denom = self.alpha1_t + self.alpha2_t
        object.__setattr__(self, "kappa", self.lam / denom if denom > 0.0 else math.nan)

    @classmethod
    def from_model(cls, params: ModelParams, dt: float = 1.0) -> "FokkerPlanckParams":
        if dt <= 0.0:
            raise ConfigurationError("dt must be positive")
        return cls(
            alpha1_t=params.alpha1 / dt,
            alpha2_t=params.alpha2 / dt,
            lam=params.sigma2_opinion / dt,
            beta_t=params.beta / dt,
            nu=params.zeta2_price / dt,
        )


class ChartistEquilibrium:
    """Stationary opinion density for constant herding and D(y) = 1 - y^2.

    The unnormalized form is

        (1+y)^(-2 + Y*/(2 kappa)) (1-y)^(-2 - Y*/(2 kappa))
            * exp(-(1 - Y* y) / (kappa (1 - y^2)))

    with kappa the ratio of scaled noise intensity to total interaction
    strength.  Normalization to total mass rho_C happens once, at
    construction; the sampler's rejection bound, at the first draw.
    Instances are otherwise immutable and safe to share across workers.
    """

    def __init__(self, Y_star: float, kappa: float, rho_C: float = 1.0):
        if not abs(Y_star) < 1.0:
            raise ValueError("mean propensity Y_star must lie strictly inside (-1, 1)")
        if not kappa > 0.0 or not math.isfinite(kappa):
            raise ValueError("kappa must be positive and finite")
        if not 0.0 < rho_C <= 1.0:
            raise ValueError("rho_C must lie in (0, 1]")
        self.Y_star = float(Y_star)
        self.kappa = float(kappa)
        self.rho_C = float(rho_C)
        self._p = -2.0 + Y_star / (2.0 * kappa)
        self._q = -2.0 - Y_star / (2.0 * kappa)

        u = np.linspace(-_U_MAX, _U_MAX, 2 * _HALF_NODES + 1)
        g = self._log_integrand(u)
        top = float(g.max())
        e = np.exp(g - top)
        e[[0, -1]] *= 0.5  # trapezoid end weights, on both node sets
        h = 2.0 * _U_MAX / (u.size - 1)  # u[1] - u[0] is off by ~1e-12 relative
        fine = math.log(h * float(e.sum()))
        coarse = math.log(2.0 * h * float(e[::2].sum()))
        if not (abs(fine - coarse) <= _LOG_MASS_TOL
                and max(e[0], e[-1]) <= 1e-16 * e.sum()):
            raise NumericsError(
                f"equilibrium normalization did not converge at kappa={kappa}, "
                f"Y*={Y_star}: log-mass {fine + top} on {u.size} nodes, "
                f"{coarse + top} on {u.size // 2 + 1}"
            )
        self._log_c0 = math.log(rho_C) - (fine + top)

    def _log_integrand(self, u: np.ndarray) -> np.ndarray:
        """log of f(tanh u) sech^2(u), unnormalized, finite for all u.

        With 1 +- tanh(u) = e^(+-u) / cosh(u) and 1 - tanh(u)^2 = sech^2(u),
        log f + log sech^2 = (p - q) u - (p + q + 2) log cosh(u)
        - (1 - Y* tanh u) cosh^2(u) / kappa, where p - q = Y*/kappa,
        p + q = -4 and 2 (1 - Y* tanh u) cosh^2(u)
        = 1 + (1 - Y*) e^(2u) / 2 + (1 + Y*) e^(-2u) / 2.
        """
        a = np.abs(u)
        log_cosh = a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)
        w = 1.0 + 0.5 * ((1.0 - self.Y_star) * np.exp(2.0 * u)
                         + (1.0 + self.Y_star) * np.exp(-2.0 * u))
        return self.Y_star / self.kappa * u + 2.0 * log_cosh - w / (2.0 * self.kappa)

    def __call__(self, y):
        """Density value(s) at y; zero outside (-1, 1)."""
        return _on_support(y, _inside_unit, self._density_inside)

    def _density_inside(self, y: np.ndarray) -> np.ndarray:
        one_m_y2 = (1.0 - y) * (1.0 + y)
        with np.errstate(divide="ignore", over="ignore"):
            logf = (
                self._log_c0
                + self._p * np.log1p(y)
                + self._q * np.log1p(-y)
                - (1.0 - self.Y_star * y) / (self.kappa * one_m_y2)
            )
        return np.exp(logf)

    def log_density_derivatives(self, y):
        """First and second derivatives of log f, in closed form."""
        yv = np.asarray(y, dtype=float)
        one_m_y2 = 1.0 - yv * yv
        Ys, kap = self.Y_star, self.kappa
        du = (-Ys + 2.0 * yv - Ys * yv * yv) / one_m_y2**2
        d2u = 2.0 * (1.0 - 3.0 * Ys * yv + 3.0 * yv * yv - Ys * yv**3) / one_m_y2**3
        l1 = self._p / (1.0 + yv) - self._q / (1.0 - yv) - du / kap
        l2 = -self._p / (1.0 + yv) ** 2 - self._q / (1.0 - yv) ** 2 - d2u / kap
        return l1, l2

    @cached_property
    def _sample_bound(self) -> float:
        # the rejection bound: 5% above the density's maximum on a fine grid
        return 1.05 * float(np.max(self(np.linspace(-1.0, 1.0, 100001))))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n opinions by rejection from a uniform proposal on (-1, 1)."""
        bound = self._sample_bound
        out = np.empty(n)
        filled = 0
        while filled < n:
            m = max(2 * (n - filled), 1024)
            y = rng.uniform(-1.0, 1.0, m)
            u = rng.uniform(0.0, bound, m)
            acc = y[u < self(y)]
            take = min(acc.size, n - filled)
            out[filled:filled + take] = acc[:take]
            filled += take
        return out


@cache
def symmetric_equilibrium(kappa: float) -> ChartistEquilibrium:
    """The opinion equilibrium at Y* = 0, one per kappa per process, so its
    normalization and rejection bound are paid once."""
    return ChartistEquilibrium(0.0, kappa)


def chartist_stationary_residual(eq: ChartistEquilibrium, y, alpha_t_sum: float,
                                 lam: float):
    """Residual of the stationary drift-diffusion equation at points y.

    Evaluates d/dy[(alpha1_t + alpha2_t)(Y* - y) f] minus
    (lam/2) d^2/dy^2[(1 - y^2)^2 f] with all derivatives taken analytically.
    Zero (to round-off) when f is the equilibrium density and
    lam / alpha_t_sum equals the kappa the density was built with.
    """
    yv = np.asarray(y, dtype=float)
    f = eq(yv)
    l1, l2 = eq.log_density_derivatives(yv)
    fp = f * l1
    fpp = f * (l2 + l1 * l1)
    drift_term = alpha_t_sum * (-f + (eq.Y_star - yv) * fp)
    one_m_y2 = 1.0 - yv * yv
    d2sq = one_m_y2 * one_m_y2
    d_d2sq = -4.0 * yv * one_m_y2
    d2_d2sq = -4.0 + 12.0 * yv * yv
    diff_term = 0.5 * lam * (d2_d2sq * f + 2.0 * d_d2sq * fp + d2sq * fpp)
    return drift_term - diff_term


def lognormal_price_density(s, S_tau: float, E_tau: float):
    """Self-similar lognormal price density with mean S_tau, 2nd moment E_tau.

    Requires E_tau > S_tau^2 (positive log-variance).  The zero-variance limit
    E_tau -> S_tau^2 concentrates all mass at s = S_tau.
    """
    m, v = lognormal_log_params(S_tau, E_tau)

    def density(sp):
        return np.exp(-((np.log(sp) - m) ** 2) / (2.0 * v)) / (sp * math.sqrt(2.0 * math.pi * v))

    return _on_support(s, _positive, density)


def _erfc(x: np.ndarray) -> np.ndarray:
    """math.erfc of each entry of a 1-d array (numpy has no erfc)."""
    return np.fromiter(map(math.erfc, x.tolist()), float, x.size)


def lognormal_price_cdf(s, S_tau: float, E_tau: float):
    """CDF of the self-similar lognormal price law."""
    m, v = lognormal_log_params(S_tau, E_tau)
    return _on_support(s, _positive, lambda sp: 0.5 * _erfc(
        -(np.log(sp) - m) / math.sqrt(2.0 * v)))


def lognormal_log_params(S_tau: float, E_tau: float) -> tuple[float, float]:
    """Log-space (mean, variance) of the lognormal with mean S_tau, 2nd moment E_tau."""
    if S_tau <= 0.0:
        raise ValueError("mean price S_tau must be positive")
    if E_tau <= S_tau * S_tau:
        raise ValueError(
            f"second moment E_tau={E_tau} must exceed S_tau^2={S_tau * S_tau} "
            "(degenerate variance)"
        )
    v = math.log(E_tau / (S_tau * S_tau))
    m = 2.0 * math.log(S_tau) - 0.5 * math.log(E_tau)
    return m, v


@dataclass(frozen=True)
class ParetoSteadyState:
    """Inverse-Gamma price steady state with Pareto tail exponent mu_exp.

    Density C1 * s^-(1+mu) * exp(-(mu-1) S_F / s) on s > 0, normalized with
    C1 = ((mu-1) S_F)^mu / Gamma(mu), held as its log.  The mean equals S_F
    for every mu > 1; the CCDF decays like s^-mu.
    """

    mu_exp: float
    S_F: float
    _log_c1: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.mu_exp <= 1.0:
            raise ValueError(
                f"tail exponent mu={self.mu_exp} must exceed 1 (non-normalizable regime)"
            )
        if self.S_F <= 0.0:
            raise ValueError("fundamental price S_F must be positive")
        log_c1 = self.mu_exp * math.log((self.mu_exp - 1.0) * self.S_F) - math.lgamma(self.mu_exp)
        object.__setattr__(self, "_log_c1", log_c1)

    @property
    def scale(self) -> float:
        return (self.mu_exp - 1.0) * self.S_F

    def pdf(self, s):
        return _on_support(s, _positive, lambda sp: np.exp(
            self._log_c1 - (1.0 + self.mu_exp) * np.log(sp) - self.scale / sp))


def pareto_steady_state(fp_params: FokkerPlanckParams, rho_F: float,
                        gamma_f: float, S_F: float) -> ParetoSteadyState:
    """Steady state of the price equation for a fixed fundamentalist share.

    The tail exponent is mu = 1 + 2 beta_t rho_F gamma_f / nu; requires
    positive price-noise intensity and a nonvanishing fundamentalist share.
    """
    if fp_params.nu <= 0.0:
        raise ValueError("price-noise intensity nu must be positive")
    if rho_F <= 0.0:
        raise ValueError("fundamentalist share rho_F must be positive")
    mu = 1.0 + 2.0 * fp_params.beta_t * rho_F * gamma_f / fp_params.nu
    return ParetoSteadyState(mu_exp=mu, S_F=S_F)


@dataclass(frozen=True)
class MacroState:
    """State of the deterministic mean-value system."""

    S: float
    Y: float
    rho_C: float
    rho_F: float


class PriceCollapse(RuntimeError):
    """Mean price reached zero during integration: crash regime."""


def macro_ode_step(state: MacroState, params: ModelParams, dt: float,
                   phi) -> MacroState:
    """One RK4 step of the coupled (S, Y) mean-value system.

    The price equation is dS/dt = beta (rho_C t_C Y S + rho_F gamma_f (S_F - S));
    the trend fed to the value function is evaluated from this right-hand side
    at every stage.  With constant herding the propensity equation closes to
    dY/dt = alpha2 rho_C (phi(trend) - Y).  Population fractions are held fixed.
    """
    rho_C, rho_F = state.rho_C, state.rho_F

    def deriv(S: float, Y: float) -> tuple[float, float]:
        if S <= 0.0:
            raise PriceCollapse(f"price reached S={S} during integration")
        S_dot = params.beta * float(price_drift(params, S, Y, rho_C, rho_F))
        Y_dot = params.alpha2 * rho_C * (float(phi(S_dot / S)) - Y)
        return S_dot, Y_dot

    s0, y0 = state.S, state.Y
    k1s, k1y = deriv(s0, y0)
    k2s, k2y = deriv(s0 + 0.5 * dt * k1s, y0 + 0.5 * dt * k1y)
    k3s, k3y = deriv(s0 + 0.5 * dt * k2s, y0 + 0.5 * dt * k2y)
    k4s, k4y = deriv(s0 + dt * k3s, y0 + dt * k3y)
    s1 = s0 + dt / 6.0 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
    y1 = y0 + dt / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
    if s1 <= 0.0:
        raise PriceCollapse(f"price reached S={s1} after one step")
    return MacroState(S=s1, Y=y1, rho_C=rho_C, rho_F=rho_F)


def solve_macro_ode(state0: MacroState, params: ModelParams, T: float, dt: float,
                    phi):
    """Integrate the mean-value system to time T; returns (t, S, Y) arrays."""
    n = int(round(T / dt))
    t = np.linspace(0.0, n * dt, n + 1)
    S = np.empty(n + 1)
    Y = np.empty(n + 1)
    S[0], Y[0] = state0.S, state0.Y
    state = state0
    for i in range(1, n + 1):
        state = macro_ode_step(state, params, dt, phi)
        S[i], Y[i] = state.S, state.Y
    return t, S, Y


def classify_equilibrium(rho_F: float, S: float, Y: float, phi,
                         params: ModelParams) -> str:
    """Match a candidate equilibrium against the three admissible classes.

    Returns 'i' (mixed population at the fundamental price), 'ii' (pure
    chartists, undecided, price arbitrary), 'iii' (pure chartists, crashed
    price, propensity locked at the fixed point of phi(beta t_C Y)), or
    'none'.  Equalities hold to an absolute eps = 1e-8; 'iii' is tested
    before 'ii' since a vanished price is the more specific state.

    The fixed-point residual of case 'iii' is tested at a tolerance widened
    by the value function's own response to an eps-sized propensity: phi may
    have unbounded slope at its reference point, so a bare eps threshold
    would flip the tag under perturbations far smaller than eps.
    """
    eps = _EQUILIBRIUM_EPS
    phi0 = float(phi(0.0))
    if abs(rho_F) > eps:
        if (abs(S - params.S_F) <= eps and abs(Y) <= eps and abs(phi0) <= eps):
            return "i"
        return "none"
    if abs(S) <= eps:
        residual = abs(Y - float(phi(params.beta * params.t_C * Y)))
        modulus = abs(float(phi(params.beta * params.t_C * eps)) - phi0)
        if residual <= max(eps, modulus + eps):
            return "iii"
    if abs(Y) <= eps and abs(phi0) <= eps:
        return "ii"
    return "none"


def solve_Y_fixed_point(phi, beta: float, t_C: float) -> np.ndarray:
    """All roots of Y = phi(beta t_C Y) on [-1, 1].

    Scans a uniform grid of 10,001 points for sign changes of
    g(Y) = phi(beta t_C Y) - Y and bisects each one down to |g| <= 1e-12;
    zeros at grid points are kept as roots directly.  Multiplicity is
    reported, not resolved: uniqueness depends on the shape of phi and on
    beta t_C.
    """
    tol = _ROOT_TOL
    grid = np.linspace(-1.0, 1.0, _ROOT_GRID)

    def g(yv):
        out = np.asarray(phi(beta * t_C * np.asarray(yv, dtype=float)), dtype=float)
        return out - yv

    gv = np.broadcast_to(np.asarray(phi(beta * t_C * grid), dtype=float), grid.shape) - grid
    roots = list(grid[np.abs(gv) <= tol])
    for i in np.flatnonzero(gv[:-1] * gv[1:] < 0.0):
        a, b = grid[i], grid[i + 1]
        ga = gv[i]
        for _ in range(200):
            m = 0.5 * (a + b)
            gm = float(g(m))
            if abs(gm) <= tol or (b - a) < 1e-15:
                break
            if ga * gm < 0.0:
                b = m
            else:
                a, ga = m, gm
        roots.append(0.5 * (a + b) if abs(gm) > tol else m)
    if not roots:
        return np.array([])
    roots = np.sort(np.asarray(roots))
    keep = [roots[0]]
    for r in roots[1:]:
        if r - keep[-1] > 1e-9:
            keep.append(r)
    return np.asarray(keep)
