"""Discrete-time Monte Carlo evolution of the coupled market system.

One iteration advances three coupled pieces, in a fixed order:

1. refresh the frozen market state (mean propensity Y, mean price S, trend);
2. pair up the chartists at random and let disjoint pairs interact with
   probability rho_C * dt (constant-kernel sampling, one permutation per
   step, O(N) cost);
3. optionally let agents switch strategy with probability
   min(1, dt * mu * rho_other * B(payoff difference)), evaluated against the
   pre-update population;
4. update every price sample independently with fresh bounded noise.

Per-iteration statistics are recorded after step 4; a fixed seed reproduces
the trajectory bit for bit.

Chartists are gathered by their index (``np.flatnonzero``, recomputed only
after a strategy exchange that moved someone), never by the boolean mask, and
read as a view while they are the first N_C agents.  The mean propensity is
taken once per iteration, when recording; the next price step reuses it.  The
array kernels write into scratch arrays that live as long as the run, in the
operation order of their defining expressions, so the bits are the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .model import (
    ConfigurationError,
    InvariantViolation,
    ModelParams,
    ValueFunctionSpec,
    chartist_profit,
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
ChartistInit = Union[str, InitLaw]


@dataclass
class AgentEnsemble:
    """Agent states: a strategy flag and a propensity (meaningful for chartists)."""

    y: np.ndarray
    is_chartist: np.ndarray

    def __post_init__(self) -> None:
        self.y = np.asarray(self.y, dtype=float)
        self.is_chartist = np.asarray(self.is_chartist, dtype=bool)
        if self.y.shape != self.is_chartist.shape or self.y.ndim != 1:
            raise ConfigurationError("y and is_chartist must be 1-d arrays of equal length")

    @property
    def N(self) -> int:
        return self.y.size

    @property
    def n_chartists(self) -> int:
        return int(np.count_nonzero(self.is_chartist))

    def chartist_y(self, idx: np.ndarray | None = None,
                   out: np.ndarray | None = None) -> np.ndarray:
        """Chartist propensities in agent order: a view of ``y`` when the
        chartists are the first N_C agents, else a copy (into ``out`` if
        given).  ``idx`` is ``np.flatnonzero(self.is_chartist)``, if known.
        """
        if idx is None:
            idx = np.flatnonzero(self.is_chartist)
        if _is_prefix(idx):
            return self.y[:idx.size]
        return np.take(self.y, idx, out=out, mode="clip")

    def mean_propensity(self, idx: np.ndarray | None = None,
                        out: np.ndarray | None = None) -> float:
        """Mean y over the chartists (0 if none); arguments as for chartist_y."""
        yc = self.chartist_y(idx, out)
        return float(yc.mean()) if yc.size else 0.0

    @classmethod
    def initialize(cls, N: int, rho_C0: float, init: ChartistInit,
                   rng: np.random.Generator) -> "AgentEnsemble":
        n_c = int(round(rho_C0 * N))
        y = np.zeros(N)
        is_chartist = np.zeros(N, dtype=bool)
        is_chartist[:n_c] = True
        y0 = np.asarray(_init_law(init)(rng, n_c), dtype=float)
        if y0.shape != (n_c,):
            raise ConfigurationError("chartist_init must return one value per agent")
        if np.any(np.abs(y0) > 1.0):
            raise ConfigurationError("initial propensities must lie in [-1, 1]")
        y[:n_c] = y0
        return cls(y=y, is_chartist=is_chartist)


def _is_prefix(idx: np.ndarray) -> bool:
    # an ascending index of distinct agents is 0..n-1 iff its last entry is n-1
    return idx.size == 0 or idx[-1] == idx.size - 1


def _symmetric_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    # exactly mirrored pairs: the initial mean is zero in exact arithmetic
    half = n // 2
    u = rng.random(half)
    parts = [u, -u] + ([np.zeros(1)] if n % 2 else [])
    return np.concatenate(parts) if n else np.zeros(0)


# the named chartist_init laws; "constant:<v>" and callables are accepted too
_NAMED_INITS = {
    "symmetric_uniform": _symmetric_uniform,
    "uniform": lambda rng, n: rng.uniform(-1.0, 1.0, n),
    "zero": lambda rng, n: np.zeros(n),
}


def _init_law(init: ChartistInit) -> InitLaw:
    """The (rng, n) -> propensities callable that ``init`` names."""
    if callable(init):
        return init
    if isinstance(init, str) and init in _NAMED_INITS:
        return _NAMED_INITS[init]
    if isinstance(init, str) and init.startswith("constant:"):
        v = float(init.split(":", 1)[1])
        if abs(v) > 1.0:
            raise ConfigurationError("constant initial propensity must lie in [-1, 1]")
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
    chartist_init: ChartistInit = "symmetric_uniform"
    pin_mean: bool = False

    def __post_init__(self) -> None:
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
        _init_law(self.chartist_init)


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
    N: int
    dt: float
    y_final: np.ndarray
    s_final: np.ndarray
    n_rejected: int = 0
    n_switches_cf: int = 0
    n_switches_fc: int = 0

    def __len__(self) -> int:
        return self.S.size

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("iter,t,S,Y,rho_C,rho_F,E\n")
            for i in range(self.S.size):
                fh.write(
                    f"{i},{self.t[i]:.17g},{self.S[i]:.17g},{self.Y[i]:.17g},"
                    f"{self.rho_C[i]:.17g},{self.rho_F[i]:.17g},{self.E[i]:.17g}\n"
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
                   idx: np.ndarray | None = None,
                   work: _Workspace | None = None) -> int:
    """Pair-interaction step over the chartist subpopulation.

    Partitions the chartists into floor(N_C/2) disjoint uniformly random
    pairs; each pair interacts with probability rho_C * dt (a leftover odd
    agent is untouched); phi is the market-trend target of the
    interaction.  ``idx`` is ``np.flatnonzero(ensemble.is_chartist)``
    when the caller holds it.  Returns the number of rejected interactions.
    """
    if idx is None:
        idx = np.flatnonzero(ensemble.is_chartist)
    n_c = idx.size
    rho_C = n_c / ensemble.N
    if dt * rho_C > 1.0:
        raise ConfigurationError(
            f"interaction probability rho_C*dt = {rho_C * dt} exceeds 1"
        )
    if n_c < 2:
        return 0
    work = _Workspace() if work is None else work
    # np.take with mode="clip" writes straight into its buffer; every index
    # is in range
    perm = rng.permutation(n_c)
    if not _is_prefix(idx):  # positions among the chartists -> agents
        perm = np.take(idx, perm, out=work("agents", n_c, np.intp), mode="clip")
    m = n_c // 2
    hit = rng.random(out=work("u", m)) < rho_C * dt
    if hit.all():
        first, second = perm[:m], perm[m:2 * m]
    else:
        hit = np.flatnonzero(hit)
        first = np.take(perm, hit, out=work("first", hit.size, np.intp),
                        mode="clip")
        second = np.take(perm[m:], hit, out=work("second", hit.size, np.intp),
                         mode="clip")
    k = first.size
    if k == 0:
        return 0
    c = validate_opinion_noise(params)
    noise = rng.uniform(-c, c, 2 * k)
    y1 = np.take(ensemble.y, first, out=work("pair_y", k), mode="clip")
    y2 = np.take(ensemble.y, second, out=work("pair_y_star", k), mode="clip")
    y1, y2, rejected = binary_interact(
        y1, y2, phi, noise[:k], noise[k:], params,
        out=(work("new_y", k), work("new_y_star", k), work("tmp", k)),
    )
    ensemble.y[first] = y1
    ensemble.y[second] = y2
    return int(np.count_nonzero(rejected))


def step_price(prices: PriceEnsemble, Y: float, rho_C: float, rho_F: float,
               params: ModelParams, dt: float, rng,
               work: _Workspace | None = None) -> PriceEnsemble:
    """Update every price sample independently and refresh the trend estimate.

    The drift is scaled by dt and the noise variance by dt; the noise support
    is validated against the nonnegativity bound for the current population
    split before any sample is touched.
    """
    c = validate_price_noise(params, rho_C, rho_F, dt)
    s = prices.samples
    eta = rng.uniform(-c, c, s.size)
    work = _Workspace() if work is None else work
    # s + dt beta drift + eta s
    new = price_drift(params, s, Y, rho_C, rho_F, out=work("prices", s.size),
                      tmp=work("tmp", s.size))
    new *= dt * params.beta
    new += s
    eta *= s
    new += eta
    s_min = float(new.min())
    if s_min < 0.0:
        raise InvariantViolation(
            f"price sample {int(np.argmin(new))} became negative ({s_min}) "
            f"despite an admissible noise support; rho_C={rho_C}, "
            f"rho_F={rho_F}, dt={dt}"
        )
    work["prices"] = s  # the old samples become the next step's buffer
    S_prev = prices.S_curr
    prices.samples, prices.s_min, prices.S_curr = new, s_min, float(new.mean())
    prices.trend = (prices.S_curr - S_prev) / (dt * prices.S_curr) \
        if prices.S_curr > 0.0 else 0.0
    return prices


def _switch_probabilities(params: ModelParams, dt: float, rho_other: float,
                          payoff_gain, out=None) -> np.ndarray:
    """min(1, dt * mu * rho_other * switch_rate(payoff_gain)).

    ``out``, an array shaped like the result (it may be ``payoff_gain``),
    receives it when given.
    """
    rate = np.multiply(dt * params.mu_freq * rho_other,
                       switch_rate(params, payoff_gain, out=out), out=out)
    return np.minimum(1.0, rate, out=out)


def step_strategy_exchange(ensemble: AgentEnsemble, S: float, trend: float,
                           params: ModelParams, dt: float,
                           rng: np.random.Generator,
                           idx: np.ndarray | None = None,
                           work: _Workspace | None = None) -> tuple[int, int]:
    """Stochastic strategy switching, evaluated against the pre-update population.

    A chartist with propensity y turns fundamentalist with probability
    min(1, dt mu rho_F B(X_F - X_C(y))); a fundamentalist turns chartist with
    probability min(1, dt mu rho_C B(X_C(ybar) - X_F)) where ybar is its own
    draw from the current chartist propensity pool (the profit of the chartist
    strategy is sign-valued in y, so the mean propensity is not a sufficient
    statistic).  A switching fundamentalist adopts the ybar it evaluated.
    S and trend are the mean price and its relative trend.
    ``idx`` is ``np.flatnonzero(ensemble.is_chartist)`` when the caller holds
    it.  Returns (chartist->fundamentalist, fundamentalist->chartist) counts.
    """
    if S <= 0.0:
        raise ValueError(f"price must be positive for strategy exchange, got {S}")
    work = _Workspace() if work is None else work
    c_idx = np.flatnonzero(ensemble.is_chartist) if idx is None else idx
    f_idx = np.flatnonzero(~ensemble.is_chartist)
    n_c, n_f = c_idx.size, f_idx.size
    rho_C = n_c / ensemble.N
    rho_F = 1.0 - rho_C
    x_f = fundamentalist_profit(params, S)
    s_dot = trend * S
    yc = ensemble.chartist_y(c_idx, out=work("chartist_y", n_c))

    to_fund = np.zeros(0, dtype=np.intp)
    if n_c and rho_F > 0.0:
        gain = chartist_profit(params, yc, S, s_dot,
                               out=work("tmp", n_c))
        p_cf = _switch_probabilities(params, dt, rho_F,
                                     np.subtract(x_f, gain, out=gain), out=gain)
        u = rng.random(out=work("u", n_c))
        to_fund = c_idx[np.flatnonzero(u < p_cf)]

    to_chart = np.zeros(0, dtype=np.intp)
    adopted = np.zeros(0)
    if n_f and n_c:
        ybar = rng.choice(yc, size=n_f, replace=True)
        gain = chartist_profit(params, ybar, S, s_dot,
                               out=work("tmp", n_f))
        p_fc = _switch_probabilities(params, dt, rho_C,
                                     np.subtract(gain, x_f, out=gain), out=gain)
        u = rng.random(out=work("u", n_f))
        hit = np.flatnonzero(u < p_fc)
        to_chart = f_idx[hit]
        adopted = ybar[hit]

    ensemble.is_chartist[to_fund] = False
    ensemble.is_chartist[to_chart] = True
    ensemble.y[to_chart] = adopted
    return int(to_fund.size), int(to_chart.size)


def _recenter(ensemble: AgentEnsemble, idx: np.ndarray,
              work: _Workspace) -> None:
    # subtract the empirical chartist mean, then clamp back into [-1, 1]
    if idx.size:
        yc = ensemble.chartist_y(idx, out=work("chartist_y", idx.size))
        yc -= yc.mean()
        np.clip(yc, -1.0, 1.0, out=yc)
        if not _is_prefix(idx):
            ensemble.y[idx] = yc


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

    ensemble = AgentEnsemble.initialize(config.N, config.rho_C0,
                                        config.chartist_init, rng)
    prices = PriceEnsemble.initialize(config.N_s, config.S0)

    n_rec = config.n_iters + 1
    t, S, Y, rho_C, rho_F, E, max_abs_y, min_price = np.empty((8, n_rec))
    n_chart = np.empty(n_rec, dtype=np.int64)
    work = _Workspace()

    def record(i: int, idx: np.ndarray) -> None:
        t[i] = i * config.dt
        S[i] = prices.S_curr
        yc_buf = work("chartist_y", idx.size)
        Y[i] = ensemble.mean_propensity(idx, yc_buf)
        rc = idx.size / ensemble.N
        rho_C[i] = rc
        rho_F[i] = 1.0 - rc
        s = prices.samples
        E[i] = np.mean(np.multiply(s, s, out=work("tmp", s.size)))
        n_chart[i] = idx.size
        yc = ensemble.chartist_y(idx, yc_buf)
        max_abs_y[i] = np.abs(yc, out=work("tmp", yc.size)).max() \
            if yc.size else 0.0
        min_price[i] = prices.s_min

    # the chartist index changes only in a strategy exchange
    idx = np.flatnonzero(ensemble.is_chartist)
    record(0, idx)
    n_rejected = 0
    n_cf = 0
    n_fc = 0
    for i in range(1, n_rec):
        # the market state frozen for this iteration is the last record's
        phi = value_function(config.value_spec, prices.trend)
        n_rejected += step_chartists(ensemble, phi, params, config.dt,
                                     rng, idx, work)
        if config.pin_mean:
            _recenter(ensemble, idx, work)
        if config.enable_switching:
            cf, fc = step_strategy_exchange(ensemble, prices.S_curr,
                                            prices.trend, params, config.dt,
                                            rng, idx, work)
            n_cf += cf
            n_fc += fc
            if cf or fc:
                idx = np.flatnonzero(ensemble.is_chartist)
        step_price(prices, float(Y[i - 1]), float(rho_C[i - 1]),
                   float(rho_F[i - 1]), params, config.dt, rng, work)
        record(i, idx)

    return Trajectory(
        t=t, S=S, Y=Y, rho_C=rho_C, rho_F=rho_F, E=E, n_chartists=n_chart,
        max_abs_y=max_abs_y, min_price=min_price,
        N=config.N, dt=config.dt,
        y_final=ensemble.chartist_y(idx).copy(),
        s_final=prices.samples.copy(),
        n_rejected=n_rejected, n_switches_cf=n_cf, n_switches_fc=n_fc,
    )
