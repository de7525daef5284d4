"""Parameter records and behavioral functions of the two-population market.

The market couples trend followers ("chartists"), each carrying an investment
propensity y in [-1, 1], with fundamentalists who bet on reversal of the price
toward a fundamental value S_F.  This module holds the validated parameter
records and every pure behavioral function the rest of the package consumes:
the prospect-theoretic value function, herding and diffusion profiles, the
profit comparison driving strategy switches, and the admissibility rule of the
bounded price noise.

All functions here are deterministic and reentrant.  The parameter records
validate themselves once, at construction, the opinion-noise bound included;
the price-noise bound moves with the population split, so each price step
checks it (``price_noise_halfwidth``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

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
    "switch_probability",
    "price_noise_halfwidth",
]


class ConfigurationError(ValueError):
    """Inconsistent model parameters or run configuration."""


class NumericsError(RuntimeError):
    """A numerical routine failed to reach its required tolerance."""


class InvariantViolation(RuntimeError):
    """A state invariant that should be unreachable was violated."""


def check_finite(record) -> None:
    """Reject a nan or infinite float field: a nan passes every ``x < 0`` check."""
    for f in fields(record):
        if f.type == "float" and not math.isfinite(v := getattr(record, f.name)):
            raise ConfigurationError(f"{f.name} must be finite, got {v}")


@dataclass(frozen=True)
class ModelParams:
    """All market and behavioral constants, each a config key, validated once.

    The admissibility condition ``beta * (t_C + gamma_f) < 1`` is the uniform
    (over population fractions) version of the support bound required to keep
    prices nonnegative under bounded multiplicative noise.  With gamma_diff =
    1 the opinion noise, uniform on +-sqrt(3 sigma2_opinion), must fit inside
    +-(1 - alpha1 - alpha2) / 2 to keep |y'| <= 1; other exponents have no
    such bound, and the interactions that leave [-1, 1] are rejected instead.
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

    def __post_init__(self) -> None:
        check_finite(self)
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
        c = 0.5 * (1.0 - self.alpha1 - self.alpha2)
        if self.gamma_diff == 1.0 and self.sigma2_opinion > c * c / 3.0:
            raise ConfigurationError(
                f"opinion-noise variance {self.sigma2_opinion} is inadmissible; "
                f"maximum admissible variance is {c * c / 3.0} "
                f"(uniform noise on +-{c})"
            )

    @property
    def kappa(self) -> float:
        """sigma2_opinion / (alpha1 + alpha2); nan when alpha1 + alpha2 = 0."""
        denom = self.alpha1 + self.alpha2
        return self.sigma2_opinion / denom if denom > 0.0 else math.nan


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
        check_finite(self)
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
    h = np.multiply(np.abs(y, out=out), -params.herding_b, out=out)
    return np.add(h, params.herding_a + params.herding_b, out=out)


def diffusion(params: ModelParams, y, out=None):
    """Diffusion amplitude D(y) = (1 - y^2)^gamma on |y| <= 1, 0 at y = +-1;
    into ``out`` if given.  At gamma = 1 it is 1 - y^2 >= 0, unclipped."""
    d = np.subtract(1.0, np.square(y, out=out), out=out)
    if params.gamma_diff != 1.0:
        d = np.clip(d, 0.0, None, out=out)
        d **= params.gamma_diff
    return d


def chartist_profit(params: ModelParams, y, S: float, S_dot: float):
    """Chartist excess profit sgn(y) * ((S_dot/mu + D)/S - r).

    The return r = D/S_F makes both strategies earn nothing at a stable price
    S = S_F.  The sign factor accounts for the agent's position: buyers gain
    from an uptrend, sellers from a downtrend.  Requires S > 0.
    """
    if S <= 0.0:
        raise ValueError(f"price must be positive to evaluate profits, got S={S}")
    signal = (S_dot / params.mu_freq + params.dividend) / S \
        - params.dividend / params.S_F
    return np.sign(y) * signal


def fundamentalist_profit(params: ModelParams, S: float) -> float:
    """Fundamentalist expected gain k |S_F - S| / S, realized on reversal."""
    if S <= 0.0:
        raise ValueError(f"price must be positive to evaluate profits, got S={S}")
    return params.k_discount * abs(params.S_F - S) / S


def price_drift(params: ModelParams, s, Y: float, rho_C: float):
    """Mean-price drift per unit beta, rho_C t_C Y s + rho_F gamma_f (S_F - s),
    with rho_F = 1 - rho_C."""
    return rho_C * params.t_C * Y * s \
        + (1.0 - rho_C) * params.gamma_f * (params.S_F - s)


# exp(60) ~ 1e26: any switch rate beyond this saturates min(1, .) for every
# admissible population fraction, so capping the exponent only avoids overflow
_MAX_SWITCH_EXPONENT = 60.0


def switch_rate(params: ModelParams, x):
    """Strategy-switch rate exp(sigma * x), the exponent capped at 60.

    Monotone nondecreasing and positive.
    """
    rate = np.exp(np.minimum(np.multiply(params.sigma_switch, x),
                             _MAX_SWITCH_EXPONENT))
    return float(rate) if np.ndim(x) == 0 else rate


def switch_probability(params: ModelParams, dt: float, rho_other: float,
                       payoff_gain):
    """min(1, dt mu rho_other switch_rate(payoff_gain)): one step's switch
    probability into the strategy of population share rho_other."""
    return np.minimum(1.0, dt * params.mu_freq * rho_other
                      * switch_rate(params, payoff_gain))


def price_noise_halfwidth(params: ModelParams, rho_C: float, dt: float) -> float:
    """Half-width sqrt(3 zeta2 dt) of the uniform price noise at split rho_C.

    Refuses, naming the largest admissible variance, a support wider than
    1 - dt beta (rho_C t_C + rho_F gamma_f), rho_F = 1 - rho_C, past which a
    price could turn negative.
    """
    halfwidth = math.sqrt(3.0 * params.zeta2_price * dt)
    d = 1.0 - dt * params.beta * (rho_C * params.t_C + (1.0 - rho_C) * params.gamma_f)
    if halfwidth > d:
        raise ConfigurationError(
            f"price-noise variance {params.zeta2_price} is inadmissible at "
            f"rho_C={rho_C}, dt={dt}; maximum admissible variance is "
            f"{max(d, 0.0) ** 2 / (3.0 * dt)}"
        )
    return halfwidth
