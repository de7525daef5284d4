"""Discrete-time Monte Carlo evolution of the coupled market system.

One iteration advances three coupled pieces, in a fixed order:

1. refresh the frozen market state (mean propensity Y, mean price S, trend);
2. pair up the chartists at random and let disjoint pairs interact with
   probability rho_C * dt (constant-kernel sampling);
3. optionally let agents switch strategy with probability
   min(1, dt * mu * rho_other * B(payoff difference)), evaluated against the
   pre-update population;
4. update every price sample independently with fresh bounded noise.

Per-iteration statistics are recorded after step 4; a fixed seed reproduces
the trajectory bit for bit.

The state is what the dynamics read: a dense array of chartist propensities,
in no particular order, and a count of fundamentalists, who carry none.
Each step draws its law exactly, from as few draws as it can
(Nanbu-Babovsky selection; Pareschi & Russo, ESAIM Proc. 2001):

* pairing draws the number K of interacting pairs, then 2K distinct
  chartists in random order, and pairs the first K with the last K;
* switching draws one count per sign class of y for departures, and one
  count for arrivals, since both switch laws depend on y only through sgn(y);
* the price step is one multiply-add per sample, the drift being affine in s.

The mean propensity is taken once per iteration, when recording; the next
price step reuses it.  Scratch arrays live as long as the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fokker_planck as fp
from .model import (
    ConfigurationError,
    InvariantViolation,
    ModelParams,
    ValueFunctionSpec,
    chartist_profit,
    check_finite,
    diffusion,
    fundamentalist_profit,
    herding,
    price_drift,
    switch_rate,
    validate_opinion_noise,
    validate_price_noise,
    value_function,
)

__all__ = [
    "AgentEnsemble",
    "PriceEnsemble",
    "SimConfig",
    "Trajectory",
    "binary_interact",
    "step_chartists",
    "step_price",
    "step_strategy_exchange",
    "run",
]

InitLaw = Callable[[np.random.Generator, int], np.ndarray]


@dataclass
class AgentEnsemble:
    """The chartists' propensities, in no particular order, and the number of
    fundamentalists, who carry no state."""

    y: np.ndarray
    n_fundamentalists: int

    def __post_init__(self) -> None:
        self.y = np.asarray(self.y, dtype=float)
        if self.y.ndim != 1 or self.n_fundamentalists < 0:
            raise ConfigurationError(
                "y must be a 1-d array and n_fundamentalists nonnegative")

    @property
    def N(self) -> int:
        return self.y.size + self.n_fundamentalists

    @property
    def n_chartists(self) -> int:
        return self.y.size

    def mean_propensity(self) -> float:
        """Mean y over the chartists (0 if none)."""
        return float(self.y.mean()) if self.y.size else 0.0

    @classmethod
    def initialize(cls, config: SimConfig,
                   rng: np.random.Generator) -> "AgentEnsemble":
        """round(rho_C0 N) chartists drawn from the law ``chartist_init`` names."""
        n_c = int(round(config.rho_C0 * config.N))
        law = _init_law(config.chartist_init, config.params)
        return cls(y=law(rng, n_c), n_fundamentalists=config.N - n_c)


def _symmetric_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    # exactly mirrored pairs: the initial mean is zero in exact arithmetic
    half = n // 2
    u = rng.random(half)
    parts = [u, -u] + ([np.zeros(1)] if n % 2 else [])
    return np.concatenate(parts) if n else np.zeros(0)


# chartist_init laws; _init_law also resolves "equilibrium", "constant:<v>"
_NAMED_INITS = {
    "symmetric_uniform": _symmetric_uniform,
    "uniform": lambda rng, n: rng.uniform(-1.0, 1.0, n),
    "zero": lambda rng, n: np.zeros(n),
}


def _init_law(init: str, params: ModelParams) -> InitLaw:
    """The (rng, n) -> propensities law named ``init``; ``equilibrium`` is the
    opinion equilibrium at Y* = 0 for the kappa of ``params``."""
    if init in _NAMED_INITS:
        return _NAMED_INITS[init]
    if init == "equilibrium":
        return fp.symmetric_equilibrium(params.kappa).sample
    if isinstance(init, str) and init.startswith("constant:"):
        try:
            v = float(init.split(":", 1)[1])
        except ValueError:
            raise ConfigurationError(f"chartist_init={init}: the constant is not a number") from None
        if not abs(v) <= 1.0:
            raise ConfigurationError(f"chartist_init={init}: the constant must lie in [-1, 1]")
        return lambda rng, n: np.full(n, v)
    raise ConfigurationError(f"unknown chartist_init {init!r}")


@dataclass
class PriceEnsemble:
    """Price sample set with its mean, smallest sample and trend estimate."""

    samples: np.ndarray
    S_curr: float
    s_min: float
    trend: float  # (S_curr - S_prev) / (dt * S_curr); 0 before the first update

    @classmethod
    def initialize(cls, N_s: int, S0: float) -> "PriceEnsemble":
        S0 = float(S0)
        return cls(samples=np.full(N_s, S0), S_curr=S0, s_min=S0, trend=0.0)


@dataclass
class SimConfig:
    """Complete, validated configuration of one Monte Carlo run."""

    params: ModelParams
    value_spec: ValueFunctionSpec
    N: int = 50000
    N_s: int = 50000
    dt: float = 1.0
    n_iters: int = 1500
    seed: int = 0
    enable_switching: bool = False
    S0: float = 10.0
    rho_C0: float = 1.0
    chartist_init: str = "symmetric_uniform"
    pin_mean: bool = False

    def __post_init__(self) -> None:
        check_finite(self)
        if self.N < 1 or self.N_s < 1:
            raise ConfigurationError("ensemble sizes must be positive")
        if self.dt <= 0.0:
            raise ConfigurationError("dt must be positive")
        if self.dt > 1.0:
            raise ConfigurationError(
                "dt must not exceed 1: the pair-interaction probability rho_C*dt "
                "has to stay <= 1"
            )
        if self.n_iters < 0:
            raise ConfigurationError("n_iters must be nonnegative")
        if not (0.0 <= self.rho_C0 <= 1.0):
            raise ConfigurationError("rho_C0 must lie in [0, 1]")
        if self.S0 <= 0.0:
            raise ConfigurationError("initial price S0 must be positive")
        _init_law(self.chartist_init, self.params)


@dataclass
class Trajectory:
    """Per-iteration statistics plus terminal snapshots of both sample sets."""

    t: np.ndarray
    S: np.ndarray
    Y: np.ndarray
    rho_C: np.ndarray
    rho_F: np.ndarray
    E: np.ndarray
    n_chartists: np.ndarray
    max_abs_y: np.ndarray
    min_price: np.ndarray
    rejected: np.ndarray   # interactions voided in each iteration
    switch_cf: np.ndarray  # chartist -> fundamentalist switches in each
    switch_fc: np.ndarray  # fundamentalist -> chartist switches in each
    N: int
    y_final: np.ndarray
    s_final: np.ndarray
    # the header of to_csv, which writes one row per recorded iteration
    CSV_COLUMNS = ("iter", "t", "S", "Y", "rho_C", "rho_F", "E", "max_abs_y",
                   "min_price", "rejected", "switch_cf", "switch_fc")

    def __len__(self) -> int:
        return self.S.size

    @property
    def n_switches_cf(self) -> int:
        return int(self.switch_cf.sum())

    @property
    def n_switches_fc(self) -> int:
        return int(self.switch_fc.sum())

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(self.CSV_COLUMNS) + "\n")
            for i in range(self.S.size):
                fh.write(
                    f"{i},{self.t[i]:.17g},{self.S[i]:.17g},{self.Y[i]:.17g},"
                    f"{self.rho_C[i]:.17g},{self.rho_F[i]:.17g},{self.E[i]:.17g},"
                    f"{self.max_abs_y[i]:.17g},{self.min_price[i]:.17g},"
                    f"{self.rejected[i]},{self.switch_cf[i]},{self.switch_fc[i]}\n"
                )

    def write_samples(self, y_path, s_path) -> None:
        # the bytes of np.savetxt(path, a, fmt="%.17g"), in one format call
        for path, a in ((y_path, self.y_final), (s_path, self.s_final)):
            with open(path, "w") as fh:
                fh.write(("%.17g\n" * a.size) % tuple(a.tolist()))


class _Workspace(dict):
    """Named scratch arrays, reused by the loop's kernels across iterations.

    An array of 50k samples made afresh in every iteration is returned to
    the operating system and faulted back in: with fresh temporaries, page
    faults took 11-26% of the loop's time at N = N_s = 50k.
    """

    def __call__(self, name: str, n: int, dtype=float) -> np.ndarray:
        """``name``'s array cut to length n; its contents are undefined."""
        a = self.get(name)
        if a is None or a.size < n:
            a = self[name] = np.empty(n, dtype)
        return a[:n]


def binary_interact(y, y_star, phi_val: float, eta, eta_star,
                    params: ModelParams, out=None):
    """Apply one symmetric binary opinion interaction; scalars or arrays.

    Returns (y', y_star', rejected).  Where either proposed output leaves
    [-1, 1] the interaction is void and both partners keep their states;
    the rejected flag reports those cases (a defined outcome, not an error).
    ``out``, three arrays shaped like ``y``, receives y' and y_star' and
    serves as scratch when given.
    """
    ya = np.asarray(y, dtype=float)
    ysa = np.asarray(y_star, dtype=float)
    a1, a2 = params.alpha1, params.alpha2
    y_buf, ys_buf, tmp = (None, None, None) if out is None else out
    proposed = []
    for u, partner, noise, new in ((ya, ysa, eta, y_buf),
                                   (ysa, ya, eta_star, ys_buf)):
        # (1 - a1 H(u) - a2) u + a1 H(u) partner + a2 phi + D(u) noise, summed
        # left to right; the in-place steps apply to arrays (not to scalars)
        a1h = herding(params, u, out=tmp)
        a1h *= a1
        new = np.subtract(1.0, a1h, out=new)
        new -= a2
        new *= u
        a1h *= partner
        new += a1h
        new += a2 * phi_val
        d = diffusion(params, u, out=tmp)
        d *= noise
        new += d
        proposed.append(new)
    y_new, ys_new = proposed
    rejected = np.abs(y_new, out=tmp) > 1.0
    rejected |= np.abs(ys_new, out=tmp) > 1.0
    if ya.ndim == 0 and ysa.ndim == 0:
        if rejected:
            return float(ya), float(ysa), True
        return float(y_new), float(ys_new), False
    np.copyto(y_new, ya, where=rejected)
    np.copyto(ys_new, ysa, where=rejected)
    return y_new, ys_new, rejected


def step_chartists(ensemble: AgentEnsemble, phi: float,
                   params: ModelParams, dt: float, rng,
                   work: _Workspace | None = None) -> int:
    """Pair-interaction step over the chartist subpopulation.

    Of floor(N_C/2) disjoint uniformly random pairs, each interacts with
    probability rho_C * dt (a leftover odd agent is untouched); phi is the
    market-trend target of the interaction.  Sampled as K ~ Binomial(floor(N_C/2),
    rho_C * dt) pairs of 2K distinct chartists drawn in random order, the
    first K against the last K: a uniform K-subset of a uniform matching.
    Returns the number of rejected interactions.
    """
    y = ensemble.y
    n_c = y.size
    p = n_c / ensemble.N * dt
    if p > 1.0:
        raise ConfigurationError(f"interaction probability rho_C*dt = {p} exceeds 1")
    m = n_c // 2
    k = m if p == 1.0 else int(rng.binomial(m, p))
    if k == 0:
        return 0
    pick = rng.choice(n_c, 2 * k, replace=False)
    first, second = pick[:k], pick[k:]
    c = validate_opinion_noise(params)
    noise = rng.uniform(-c, c, 2 * k)
    work = _Workspace() if work is None else work
    # np.take with mode="clip" writes straight into its buffer; every index
    # is in range
    y1, y2, rejected = binary_interact(
        np.take(y, first, out=work("pair_y", k), mode="clip"),
        np.take(y, second, out=work("pair_y_star", k), mode="clip"),
        phi, noise[:k], noise[k:], params,
        out=(work("new_y", k), work("new_y_star", k), work("tmp", k)),
    )
    y[first] = y1
    y[second] = y2
    return int(np.count_nonzero(rejected))


def step_price(prices: PriceEnsemble, Y: float, rho_C: float, rho_F: float,
               params: ModelParams, dt: float, rng,
               work: _Workspace | None = None) -> PriceEnsemble:
    """Update every price sample independently and refresh the trend estimate.

    The drift is scaled by dt and the noise variance by dt; the noise support
    is validated against the nonnegativity bound for the current population
    split before any sample is touched.  The drift is affine in the sample,
    so s' = s (1 + dt beta slope + eta) + dt beta intercept, one pass in place.
    """
    c = validate_price_noise(params, rho_C, rho_F, dt)
    s = prices.samples
    scale = dt * params.beta
    intercept = price_drift(params, 0.0, Y, rho_C, rho_F)
    slope = price_drift(params, 1.0, Y, rho_C, rho_F) - intercept
    work = _Workspace() if work is None else work
    # eta = c (2u - 1), uniform on [-c, c)
    factor = rng.random(out=work("u", s.size))
    factor *= 2.0 * c
    factor += 1.0 - c + scale * slope
    s *= factor
    s += scale * intercept
    s_min = float(s.min())
    if s_min < 0.0:
        raise InvariantViolation(
            f"price sample {int(np.argmin(s))} became negative ({s_min}) "
            f"despite an admissible noise support; rho_C={rho_C}, "
            f"rho_F={rho_F}, dt={dt}"
        )
    S_prev = prices.S_curr
    prices.s_min, prices.S_curr = s_min, float(s.mean())
    prices.trend = (prices.S_curr - S_prev) / (dt * prices.S_curr) \
        if prices.S_curr > 0.0 else 0.0
    return prices


def _switch_probabilities(params: ModelParams, dt: float, rho_other: float,
                          payoff_gain) -> np.ndarray:
    """min(1, dt * mu * rho_other * switch_rate(payoff_gain))."""
    return np.minimum(1.0, dt * params.mu_freq * rho_other
                      * switch_rate(params, payoff_gain))


# the values of sgn(y): a chartist's profit depends on y only through them
_SIGNS = np.array([-1.0, 0.0, 1.0])


def step_strategy_exchange(ensemble: AgentEnsemble, S: float, trend: float,
                           params: ModelParams, dt: float,
                           rng: np.random.Generator) -> tuple[int, int]:
    """Stochastic strategy switching, evaluated against the pre-update population.

    A chartist with propensity y turns fundamentalist with probability
    min(1, dt mu rho_F B(X_F - X_C(y))); a fundamentalist turns chartist with
    probability min(1, dt mu rho_C B(X_C(ybar) - X_F)) where ybar is its own
    draw from the current chartist propensity pool (the profit of the chartist
    strategy is sign-valued in y, so the mean propensity is not a sufficient
    statistic).  A switching fundamentalist adopts the ybar it evaluated.
    S and trend are the mean price and its relative trend.

    Both laws depend on y only through sgn(y), so they are sampled per sign
    class s of n_s chartists with switch probabilities p_s: a Binomial(n_s,
    p_s) count of departures, a uniform subset of the class; and a
    Binomial(n_F, sum_s n_s p_s / N_C) count of arrivals, each of class s
    with weight n_s p_s and then a uniform member of it.  The departures are
    compacted out, the rest keeping their order, and the arrivals appended.
    Returns (chartist->fundamentalist, fundamentalist->chartist) counts.
    """
    if S <= 0.0:
        raise ValueError(f"price must be positive for strategy exchange, got {S}")
    y = ensemble.y
    n_c = y.size
    if n_c == 0:
        return 0, 0
    rho_C = n_c / ensemble.N
    x_f = fundamentalist_profit(params, S)
    x_c = chartist_profit(params, _SIGNS, S, trend * S)
    p_cf = _switch_probabilities(params, dt, 1.0 - rho_C, x_f - x_c)
    p_fc = _switch_probabilities(params, dt, rho_C, x_c - x_f)
    classes = (y < 0.0, y == 0.0, y > 0.0)
    n_s = np.array([np.count_nonzero(c) for c in classes])
    leave = rng.binomial(n_s, p_cf)
    weight = n_s * p_fc
    k = int(rng.binomial(ensemble.n_fundamentalists,
                         min(1.0, weight.sum() / n_c)))
    join = rng.multinomial(k, weight / weight.sum()) if k else (0, 0, 0)
    gone, adopted = [], []
    for members, n, d, a in zip(classes, n_s, leave, join):
        if d or a:
            members = np.flatnonzero(members)
            gone.append(members[rng.choice(n, d, replace=False)])
            adopted.append(y[members[rng.integers(0, n, a)]])
    if gone:
        ensemble.y = np.concatenate([np.delete(y, np.concatenate(gone))] + adopted)
        ensemble.n_fundamentalists += int(leave.sum()) - k
    return int(leave.sum()), k


def _recenter(y: np.ndarray) -> None:
    # subtract the empirical mean, then clamp back into [-1, 1]
    if y.size:
        y -= y.mean()
        np.clip(y, -1.0, 1.0, out=y)


def run(config: SimConfig) -> Trajectory:
    """Run the full coupled simulation and return its recorded trajectory.

    Deterministic for a fixed seed.  Each iteration executes: (1) refresh of
    the frozen market state, (2) chartist pair interactions (followed by mean
    re-centering when ``pin_mean`` is set), (3) strategy exchange when
    enabled, (4) price-sample updates.  Statistics are recorded after step 4;
    the trajectory has n_iters + 1 records.
    """
    params = config.params
    validate_opinion_noise(params)
    rng = np.random.default_rng(config.seed)

    ensemble = AgentEnsemble.initialize(config, rng)
    prices = PriceEnsemble.initialize(config.N_s, config.S0)

    n_rec = config.n_iters + 1
    t, S, Y, rho_C, rho_F, E, max_abs_y, min_price = np.empty((8, n_rec))
    n_chart = np.empty(n_rec, dtype=np.int64)
    rejected, switch_cf, switch_fc = np.zeros((3, n_rec), dtype=np.int64)
    work = _Workspace()

    def record(i: int) -> None:
        y, s = ensemble.y, prices.samples
        t[i] = i * config.dt
        S[i] = prices.S_curr
        Y[i] = ensemble.mean_propensity()
        rc = y.size / ensemble.N
        rho_C[i] = rc
        rho_F[i] = 1.0 - rc
        # einsum, not dot: at 50k samples on 2 cores a threaded BLAS dot
        # took 7.9 ms, einsum 0.05 ms
        E[i] = np.einsum("i,i->", s, s) / s.size
        n_chart[i] = y.size
        max_abs_y[i] = max(y.max(), -y.min()) if y.size else 0.0
        min_price[i] = prices.s_min

    record(0)
    for i in range(1, n_rec):
        # the market state frozen for this iteration is the last record's
        phi = value_function(config.value_spec, prices.trend)
        rejected[i] = step_chartists(ensemble, phi, params, config.dt, rng, work)
        if config.pin_mean:
            _recenter(ensemble.y)
        if config.enable_switching:
            switch_cf[i], switch_fc[i] = step_strategy_exchange(
                ensemble, prices.S_curr, prices.trend, params, config.dt, rng)
        step_price(prices, float(Y[i - 1]), float(rho_C[i - 1]),
                   float(rho_F[i - 1]), params, config.dt, rng, work)
        record(i)

    return Trajectory(
        t=t, S=S, Y=Y, rho_C=rho_C, rho_F=rho_F, E=E, n_chartists=n_chart,
        max_abs_y=max_abs_y, min_price=min_price, rejected=rejected,
        switch_cf=switch_cf, switch_fc=switch_fc, N=config.N,
        y_final=ensemble.y.copy(),
        s_final=prices.samples.copy(),
    )
