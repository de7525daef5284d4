"""Parameter records and behavioral functions of the two-population market.

The market couples trend followers ("chartists"), each carrying an investment
propensity y in [-1, 1], with fundamentalists who bet on reversal of the price
toward a fundamental value S_F.  This module holds the validated parameter
records and every pure behavioral function the rest of the package consumes:
the prospect-theoretic value function, herding and diffusion profiles, the
profit comparison driving strategy switches, and the admissibility bounds for
the bounded interaction noises.

All functions here are deterministic and reentrant; validation happens once,
at construction of the parameter records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConfigurationError",
    "NumericsError",
    "InvariantViolation",
    "ModelParams",
    "ValueFunctionSpec",
    "value_function",
    "herding",
    "diffusion",
    "chartist_profit",
    "fundamentalist_profit",
    "switch_rate",
    "opinion_noise_halfwidth",
    "price_noise_halfwidth",
    "max_opinion_noise_variance",
    "max_price_noise_variance",
    "validate_opinion_noise",
    "validate_price_noise",
]


class ConfigurationError(ValueError):
    """Inconsistent model parameters or run configuration."""


class NumericsError(RuntimeError):
    """A numerical routine failed to reach its required tolerance."""


class InvariantViolation(RuntimeError):
    """A state invariant that should be unreachable was violated."""


@dataclass(frozen=True)
class ModelParams:
    """All market and behavioral constants, validated once.

    ``r_return`` is always derived as ``dividend / S_F`` so that a stable
    price at the fundamental value yields identical (zero) excess profits for
    both strategies; it cannot be set independently.

    The admissibility condition ``beta * (t_C + gamma_f) < 1`` is the uniform
    (over population fractions) version of the support bound required to keep
    prices nonnegative under bounded multiplicative noise.
    """

    alpha1: float = 0.01          # herding weight in a binary interaction
    alpha2: float = 0.01          # market-trend weight in a binary interaction
    sigma2_opinion: float = 0.02  # variance of the opinion noise
    beta: float = 0.1             # price speed evaluation, per unit time
    zeta2_price: float = 0.0      # variance of the price noise, per unit time
    t_C: float = 1.0              # units traded by each chartist
    gamma_f: float = 1.3          # fundamentalist reaction strength
    S_F: float = 20.0             # fundamental price
    dividend: float = 0.0         # nominal dividend, per unit time
    k_discount: float = 0.75      # discount on the fundamentalist expected gain
    mu_freq: float = 0.2          # strategy-exchange frequency
    sigma_switch: float = 0.8     # inertia inside the switch-rate exponential
    herding_a: float = 1.0        # constant part of H(y)
    herding_b: float = 0.0        # slope part of H(y)
    gamma_diff: float = 1.0       # exponent of the diffusion profile D(y)
    r_return: float = field(init=False)  # derived: dividend / S_F

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha1 <= 1.0 and 0.0 <= self.alpha2 <= 1.0):
            raise ConfigurationError("alpha1 and alpha2 must lie in [0, 1]")
        if self.alpha1 + self.alpha2 > 1.0:
            raise ConfigurationError(
                f"alpha1 + alpha2 = {self.alpha1 + self.alpha2} exceeds 1; "
                "the opinion-noise support bound requires alpha1 + alpha2 <= 1"
            )
        if self.sigma2_opinion < 0.0 or self.zeta2_price < 0.0:
            raise ConfigurationError("noise variances must be nonnegative")
        if self.S_F <= 0.0:
            raise ConfigurationError("fundamental price S_F must be positive")
        if self.dividend < 0.0:
            raise ConfigurationError("dividend must be nonnegative")
        if self.beta < 0.0 or self.t_C < 0.0 or self.gamma_f < 0.0:
            raise ConfigurationError("beta, t_C and gamma_f must be nonnegative")
        if not (0.0 < self.k_discount < 1.0):
            raise ConfigurationError("k_discount must lie in (0, 1)")
        if self.mu_freq <= 0.0:
            raise ConfigurationError("mu_freq must be positive")
        if self.sigma_switch < 0.0:
            raise ConfigurationError("sigma_switch must be nonnegative")
        if self.herding_a < 0.0 or self.herding_b < 0.0:
            raise ConfigurationError("herding coefficients must be nonnegative")
        if self.herding_a + self.herding_b > 1.0:
            raise ConfigurationError("herding_a + herding_b must not exceed 1")
        if self.gamma_diff <= 0.0:
            raise ConfigurationError("gamma_diff must be positive")
        if self.beta * (self.t_C + self.gamma_f) >= 1.0:
            raise ConfigurationError(
                f"beta * (t_C + gamma_f) = {self.beta * (self.t_C + self.gamma_f)} "
                "must be < 1 to admit nonnegative prices for every population split"
            )
        object.__setattr__(self, "r_return", self.dividend / self.S_F)


@dataclass(frozen=True)
class ValueFunctionSpec:
    """Reference-point value function: concave for gains, steeper convex for losses.

    Maps a relative price trend x (clamped to [-L, L]) to a propensity shift in
    [-1, 1], with zero at the reference point R0.  Exponents must satisfy
    0 < l_exp <= r_exp < 1, which makes the reaction to losses at least as
    steep as the reaction to gains of the same size.
    """

    L: float = 1.0
    R0: float = 0.0
    r_exp: float = 0.5
    l_exp: float = 0.25

    def __post_init__(self) -> None:
        if self.L <= 0.0:
            raise ConfigurationError("value-function half-width L must be positive")
        if not (-self.L < self.R0 < self.L):
            raise ConfigurationError("reference point R0 must lie strictly inside (-L, L)")
        if not (0.0 < self.l_exp <= self.r_exp < 1.0):
            raise ConfigurationError("exponents must satisfy 0 < l_exp <= r_exp < 1")

    def __call__(self, x):
        return value_function(self, x)


def value_function(spec: ValueFunctionSpec, x):
    """Evaluate the value function; accepts scalars or arrays.

    Arguments outside [-L, L] are clamped to the boundary (the reaction to a
    trend saturates), so the output always lies in [-1, 1].
    """
    arr = np.asarray(x, dtype=float)
    xc = np.clip(arr, -spec.L, spec.L)
    gain = np.clip((xc - spec.R0) / (spec.L - spec.R0), 0.0, 1.0) ** spec.r_exp
    loss = -(np.clip((spec.R0 - xc) / (spec.R0 + spec.L), 0.0, 1.0) ** spec.l_exp)
    out = np.where(xc > spec.R0, gain, loss)
    return float(out) if arr.ndim == 0 else out


def herding(params: ModelParams, y, out=None):
    """Herding weight H(y) = a + b (1 - |y|), largest at y = 0; into ``out`` if given."""
    h = np.subtract(1.0, np.abs(y, out=out), out=out)
    h = np.multiply(params.herding_b, h, out=out)
    return np.add(params.herding_a, h, out=out)


def diffusion(params: ModelParams, y, out=None):
    """Diffusion amplitude D(y) = (1 - y^2)^gamma, 0 at y = +-1; into ``out`` if given."""
    d = np.subtract(1.0, np.square(y, out=out), out=out)
    d = np.clip(d, 0.0, None, out=out)
    d **= params.gamma_diff
    return d


def chartist_profit(params: ModelParams, y, S: float, S_dot: float, out=None):
    """Chartist excess profit sgn(y) * ((S_dot/mu + D)/S - r).

    The sign factor accounts for the agent's position: buyers gain from an
    uptrend, sellers from a downtrend.  Requires S > 0.  ``out``, an array
    shaped like ``y``, receives the result when given.
    """
    if S <= 0.0:
        raise ValueError(f"price must be positive to evaluate profits, got S={S}")
    signal = (S_dot / params.mu_freq + params.dividend) / S - params.r_return
    return np.multiply(np.sign(y, out=out), signal, out=out)


def fundamentalist_profit(params: ModelParams, S: float) -> float:
    """Fundamentalist expected gain k |S_F - S| / S, realized on reversal."""
    if S <= 0.0:
        raise ValueError(f"price must be positive to evaluate profits, got S={S}")
    return params.k_discount * abs(params.S_F - S) / S


def switch_rate(params: ModelParams, x):
    """Strategy-switch rate exp(sigma * x); monotone increasing, positive."""
    with np.errstate(over="ignore"):
        out = np.exp(params.sigma_switch * np.asarray(x, dtype=float))
    return float(out) if np.ndim(x) == 0 else out


def opinion_noise_halfwidth(params: ModelParams) -> float:
    """Support half-width (1 - alpha1 - alpha2) / 2 keeping |y'| <= 1.

    The bound holds for the diffusion profile with gamma_diff = 1; for other
    exponents there is no analytic bound and out-of-range interactions are
    rejected instead.
    """
    return 0.5 * (1.0 - params.alpha1 - params.alpha2)


def price_noise_halfwidth(params: ModelParams, rho_C: float, rho_F: float,
                          dt: float = 1.0) -> float:
    """Support half-width 1 - dt*beta*(rho_C t_C + rho_F gamma_f) keeping s' >= 0."""
    return 1.0 - dt * params.beta * (rho_C * params.t_C + rho_F * params.gamma_f)


def max_opinion_noise_variance(params: ModelParams) -> float:
    """Largest admissible opinion-noise variance for a uniform noise law."""
    c = opinion_noise_halfwidth(params)
    return c * c / 3.0


def max_price_noise_variance(params: ModelParams, rho_C: float, rho_F: float,
                             dt: float = 1.0) -> float:
    """Largest admissible per-unit-time price-noise variance (uniform law)."""
    d = price_noise_halfwidth(params, rho_C, rho_F, dt)
    if d <= 0.0:
        return 0.0
    return d * d / (3.0 * dt)


def validate_opinion_noise(params: ModelParams) -> None:
    """Reject opinion-noise variances whose uniform support exceeds the bound.

    Only enforced for gamma_diff = 1, where the analytic support bound applies;
    other diffusion exponents fall back to interaction rejection.
    """
    if params.gamma_diff != 1.0:
        return
    vmax = max_opinion_noise_variance(params)
    if params.sigma2_opinion > vmax:
        raise ConfigurationError(
            f"opinion-noise variance {params.sigma2_opinion} is inadmissible; "
            f"maximum admissible variance is {vmax} "
            f"(uniform noise on +-{opinion_noise_halfwidth(params)})"
        )


def validate_price_noise(params: ModelParams, rho_C: float, rho_F: float,
                         dt: float = 1.0) -> None:
    """Reject price-noise variances whose uniform support allows s' < 0."""
    halfwidth = math.sqrt(3.0 * params.zeta2_price * dt)
    d = price_noise_halfwidth(params, rho_C, rho_F, dt)
    if halfwidth > d:
        raise ConfigurationError(
            f"price-noise variance {params.zeta2_price} is inadmissible at "
            f"rho_C={rho_C}, rho_F={rho_F}, dt={dt}; maximum admissible "
            f"variance is {max_price_noise_variance(params, rho_C, rho_F, dt)}"
        )
