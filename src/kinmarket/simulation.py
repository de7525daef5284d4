"""Discrete-time Monte Carlo evolution of the coupled market system.

One iteration advances three coupled pieces, in a fixed order:

1. read the frozen market state from the last records: the mean propensity
   Y, the chartist share rho_C, the mean price S and the trend
   (S[i-1] - S[i-2]) / (dt S[i-1]), 0 at the first iteration and at a zero
   mean price;
2. pair up the chartists at random and let disjoint pairs interact with
   probability rho_C * dt (constant-kernel sampling);
3. optionally let agents switch strategy with probability
   min(1, dt * mu * rho_other * B(payoff difference)), evaluated against the
   pre-update population;
4. update every price sample independently with fresh bounded noise.

Per-iteration statistics are recorded after step 4; a fixed seed reproduces
the trajectory bit for bit, each phase drawing from its own stream
(``STREAM_LAYOUT``), so a change to one phase leaves the others' draws alone.

The state is what the dynamics read: a dense array of chartist propensities,
in no particular order, a count of fundamentalists, who carry none, and the
array of price samples.
Each step draws its law exactly, from as few draws as it can
(Nanbu-Babovsky selection; Pareschi & Russo, ESAIM Proc. 2001):

* pairing draws the number K of interacting pairs, then 2K distinct
  chartists in random order, gathered in one pass, and pairs the first K
  with the last K; when all chartists pair, the outcomes overwrite y in pair
  order, otherwise one scatter puts them back;
* switching draws one count per sign class of y for departures, and one
  count for arrivals, since both switch laws depend on y only through sgn(y);
* the price step is one multiply-add per sample, the drift being affine in s.

The mean propensity is taken once per iteration, when recording; the next
price step reuses it.  Scratch arrays live as long as the run.

When every chartist interacts at every step (rho_C dt = 1: no fundamentalist
and dt = 1), nobody can switch and the pairing's draws read no market state,
so a second thread draws iteration i + 1's while the loop does iteration i,
from the same stream in the same order: the output bytes are the loop's own.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fokker_planck as fp
from . import stats
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
    price_noise_halfwidth,
    switch_rate,
    value_function,
)

__all__ = [
    "AgentEnsemble",
    "SimConfig",
    "Trajectory",
    "binary_interact",
    "step_chartists",
    "step_price",
    "step_strategy_exchange",
    "run",
]

STREAM_LAYOUT = "SeedSequence(seed).spawn(4) -> SFC64: init, pairing, exchange, price"


def _streams(seed: int) -> list[np.random.Generator]:
    return [np.random.Generator(np.random.SFC64(child))
            for child in np.random.SeedSequence(seed).spawn(4)]


@dataclass
class AgentEnsemble:
    """The chartists' propensities, in no particular order and the live prefix
    of ``buffer`` (capacity N), and the number of fundamentalists (no state)."""

    y: np.ndarray
    n_fundamentalists: int

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float)
        if y.ndim != 1 or self.n_fundamentalists < 0:
            raise ConfigurationError(
                "y must be a 1-d array and n_fundamentalists nonnegative")
        self.buffer = np.concatenate([y, np.empty(self.n_fundamentalists)])
        self.y = self.buffer[:y.size]

    @property
    def N(self) -> int:
        return self.y.size + self.n_fundamentalists

    @property
    def n_chartists(self) -> int:
        return self.y.size

    def mean_propensity(self) -> float:
        """Mean y over the chartists (0 if none)."""
        return float(self.y.mean()) if self.y.size else 0.0


def _symmetric_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    # exactly mirrored pairs: the initial mean is zero in exact arithmetic
    u = rng.random(n // 2)
    return np.concatenate([u, -u, np.zeros(n % 2)])


# chartist_init laws; _init_law also resolves "equilibrium", "constant:<v>"
_NAMED_INITS = {
    "symmetric_uniform": _symmetric_uniform,
    "uniform": lambda rng, n: rng.uniform(-1.0, 1.0, n),
}


def _init_law(init: str, params: ModelParams
              ) -> Callable[[np.random.Generator, int], np.ndarray]:
    """The (rng, n) -> propensities law named ``init``; ``equilibrium`` is the
    opinion equilibrium at Y* = 0 for the kappa of ``params``, built when it
    draws, so validating the name builds nothing."""
    if init in _NAMED_INITS:
        return _NAMED_INITS[init]
    if init == "equilibrium":
        return lambda rng, n: fp.ChartistEquilibrium(0.0, params.kappa).sample(rng, n)
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
        if self.N < 1:
            raise ConfigurationError("N must be positive")
        if self.N_s < 1:
            raise ConfigurationError("N_s must be positive")
        if self.dt <= 0.0:
            raise ConfigurationError("dt must be positive")
        if self.dt > 1.0:
            raise ConfigurationError(
                "dt must not exceed 1: the pair-interaction probability rho_C*dt "
                "has to stay <= 1"
            )
        if self.n_iters < 0:
            raise ConfigurationError("n_iters must be nonnegative")
        if self.seed < 0:
            raise ConfigurationError("seed must be nonnegative")
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
        stats.write_columns(path, ",".join(self.CSV_COLUMNS), np.arange(len(self)),
                            *(getattr(self, c) for c in self.CSV_COLUMNS[1:]))

    def write_samples(self, y_path, s_path) -> None:
        stats.write_columns(y_path, "", self.y_final)
        stats.write_columns(s_path, "", self.s_final)


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
    """Apply one symmetric binary opinion interaction to arrays of pairs.

    Returns (y', y_star', rejected).  Where either proposed output leaves
    [-1, 1] the interaction is void and both partners keep their states;
    the rejected flag reports those cases (a defined outcome, not an error).
    ``out``, three arrays shaped like ``y``, receives y' and y_star' and
    serves as scratch when given.
    """
    a1, a2 = params.alpha1, params.alpha2
    y_buf, ys_buf, tmp = (None, None, None) if out is None else out
    proposed = []
    for u, partner, noise, new in ((y, y_star, eta, y_buf),
                                   (y_star, y, eta_star, ys_buf)):
        # a1 H(u) (partner - u) + D(u) noise + (1 - a2) u + a2 phi, summed left
        # to right
        t = herding(params, u, out=tmp)
        t *= a1
        new = np.subtract(partner, u, out=new)
        new *= t
        t = diffusion(params, u, out=tmp)
        t *= noise
        new += t
        new += np.multiply(u, 1.0 - a2, out=tmp)
        new += a2 * phi_val
        proposed.append(new)
    y_new, ys_new = proposed
    rejected = np.abs(y_new, out=tmp) > 1.0
    rejected |= np.abs(ys_new, out=tmp) > 1.0
    if rejected.any():
        np.copyto(y_new, y, where=rejected)
        np.copyto(ys_new, y_star, where=rejected)
    return y_new, ys_new, rejected


def _pair_draws(rng, n_c: int, p: float, params: ModelParams, work: _Workspace):
    """The pairing step's draws, in stream order: K ~ Binomial(floor(n_c/2), p)
    (all pairs at p = 1), 2K distinct chartists in random order and their
    noise, uniform on [-c, c), c = sqrt(3 sigma2_opinion).  Returns (pick,
    noise), the noise in ``work``'s array; K = 0 draws no more."""
    m = n_c // 2
    k = m if p == 1.0 else int(rng.binomial(m, p))
    if k == 0:
        return np.empty(0, dtype=np.intp), None
    pick = rng.choice(n_c, 2 * k, replace=False)
    c = math.sqrt(3.0 * params.sigma2_opinion)
    noise = rng.random(out=work("noise", 2 * k))
    noise *= 2.0 * c
    noise -= c
    return pick, noise


def step_chartists(ensemble: AgentEnsemble, phi: float,
                   params: ModelParams, dt: float, rng,
                   work: _Workspace | None = None, draws=None) -> int:
    """Pair-interaction step over the chartist subpopulation.

    Of floor(N_C/2) disjoint uniformly random pairs, each interacts with
    probability rho_C * dt (a leftover odd agent is untouched); phi is the
    market-trend target of the interaction.  Sampled as K ~ Binomial(floor(N_C/2),
    rho_C * dt) pairs of 2K distinct chartists drawn in random order, the
    first K against the last K: a uniform K-subset of a uniform matching.
    The 2K are gathered once; at 2K = N_C the outcomes overwrite y in pair
    order (y keeps no order), otherwise one scatter puts them back.  The
    noise, uniform on +-sqrt(3 sigma2_opinion), is admitted by
    ``ModelParams``.  ``draws`` are this step's ``_pair_draws`` if made
    already; otherwise they are drawn from ``rng`` here.  Returns the number
    of rejected interactions.
    """
    y = ensemble.y
    work = _Workspace() if work is None else work
    if draws is None:
        draws = _pair_draws(rng, y.size, y.size / ensemble.N * dt, params, work)
    pick, noise = draws
    k = pick.size // 2
    if k == 0:
        return 0
    # np.take with mode="clip" writes straight into its buffer; every index
    # is in range
    pairs = np.take(y, pick, out=work("pairs", 2 * k), mode="clip")
    new = y if 2 * k == y.size else work("new", 2 * k)
    rejected = binary_interact(pairs[:k], pairs[k:], phi, noise[:k], noise[k:],
                               params, out=(new[:k], new[k:], work("tmp", k)))[2]
    if new is not y:
        y[pick] = new
    return int(np.count_nonzero(rejected))


class _DrawAhead:
    """A second thread that makes the pairing draws (``_pair_draws``) of
    iterations 1..n_iters one iteration ahead of the loop, for a market whose
    n_c chartists all interact (rho_C dt = 1).  Two noise arrays alternate,
    one drawn into while the loop reads the other."""

    def __init__(self, rng, n_c: int, params: ModelParams, n_iters: int):
        self.drawn, self.stopped = [None, None], False
        self.ready, self.free = threading.Semaphore(0), threading.Semaphore(1)
        # the noise arrays come from this thread's heap, which the run's
        # output reuses; a second thread's allocations stay in its own arena
        work = tuple(_Workspace(noise=np.empty(n_c)) for _ in range(2))
        self.thread = threading.Thread(target=self._draw, daemon=True,
                                       args=(rng, n_c, params, n_iters, work))
        self.thread.start()

    def _draw(self, rng, n_c, params, n_iters, work) -> None:
        for i in range(1, n_iters + 1):
            self.free.acquire()
            if self.stopped:
                return
            try:
                self.drawn[i % 2] = _pair_draws(rng, n_c, 1.0, params, work[i % 2])
            except BaseException as e:  # take raises it on the loop's thread
                self.drawn[i % 2] = e
                return
            finally:
                self.ready.release()

    def take(self, i: int):
        """Iteration i's draws; i - 1's noise is read, so i + 1's may start."""
        self.free.release()
        self.ready.acquire()
        if isinstance(self.drawn[i % 2], BaseException):
            raise self.drawn[i % 2]
        return self.drawn[i % 2]

    def stop(self) -> None:
        self.stopped = True
        self.free.release()
        self.thread.join()


def step_price(s: np.ndarray, Y: float, rho_C: float,
               params: ModelParams, dt: float, rng,
               work: _Workspace | None = None) -> float:
    """Update every price sample of ``s`` independently, in place, and return
    the smallest.

    rho_C is the chartist share (rho_F = 1 - rho_C).  Drift and noise variance
    scale with dt; before any sample is touched, the noise is checked against
    the nonnegativity bound at this split, so a run stops at the first step
    that makes it inadmissible.  The drift is affine in the sample, so
    s' = s (1 + dt beta slope + eta) + dt beta intercept, one pass in place.
    """
    c = price_noise_halfwidth(params, rho_C, dt)
    scale = dt * params.beta
    intercept = price_drift(params, 0.0, Y, rho_C)
    slope = price_drift(params, 1.0, Y, rho_C) - intercept
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
            f"despite an admissible noise support; rho_C={rho_C}, dt={dt}"
        )
    return s_min


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
    swap-removed, their holes below the new length filled from the survivors
    behind it, and the arrivals written after the survivors.
    Returns (chartist->fundamentalist, fundamentalist->chartist) counts.
    """
    x_f = fundamentalist_profit(params, S)  # raises unless S > 0
    y = ensemble.y
    n_c = y.size
    if n_c == 0:
        return 0, 0
    rho_C = n_c / ensemble.N
    x_c = chartist_profit(params, _SIGNS, S, trend * S)
    p_cf = _switch_probabilities(params, dt, 1.0 - rho_C, x_f - x_c)
    p_fc = _switch_probabilities(params, dt, rho_C, x_c - x_f)
    classes = (y < 0.0, None, y > 0.0)  # zeros: counted by subtraction
    n_neg, n_pos = np.count_nonzero(classes[0]), np.count_nonzero(classes[2])
    n_s = np.array([n_neg, n_c - n_neg - n_pos, n_pos])
    leave = rng.binomial(n_s, p_cf)
    weight = n_s * p_fc
    k = int(rng.binomial(ensemble.n_fundamentalists,
                         min(1.0, weight.sum() / n_c)))
    join = rng.multinomial(k, weight / weight.sum()) if k else (0, 0, 0)
    # arrivals adopt pre-update propensities, kept past the prefix (k <= n_F)
    leaving, arrivals, at = np.zeros(n_c, dtype=bool), ensemble.buffer[n_c:n_c + k], 0
    for members, n, gone, a in zip(classes, n_s, leave, join):
        if gone or a:
            members = np.flatnonzero(y == 0.0 if members is None else members)
            leaving[members[rng.choice(n, gone, replace=False)]] = True
            arrivals[at:at + a] = y[members[rng.integers(0, n, a)]]
            at += a
    m = n_c - int(leave.sum())  # the survivors behind m fill the holes below
    y[np.flatnonzero(leaving[:m])] = y[m + np.flatnonzero(~leaving[m:])]
    ensemble.buffer[m:m + k] = arrivals
    ensemble.y = ensemble.buffer[:m + k]
    ensemble.n_fundamentalists += n_c - m - k
    return n_c - m, k


def _recenter(y: np.ndarray) -> None:
    # subtract the empirical mean, then clamp back into [-1, 1]
    if y.size:
        y -= y.mean()
        np.clip(y, -1.0, 1.0, out=y)


def run(config: SimConfig) -> Trajectory:
    """Run the full coupled simulation and return its recorded trajectory.

    Deterministic for a fixed seed.  Each iteration executes: (1) reading the
    frozen market state from the last records, (2) chartist pair interactions
    (followed by mean re-centering when ``pin_mean`` is set), (3) strategy
    exchange when enabled, (4) price-sample updates.  Statistics are recorded
    after step 4; the trajectory has n_iters + 1 records.  At rho_C dt = 1 a
    second thread draws the pairing one iteration ahead (see the module
    notes); it is joined before ``run`` returns or raises.
    """
    params, dt, S0 = config.params, config.dt, float(config.S0)
    init_rng, pair_rng, switch_rng, price_rng = _streams(config.seed)

    # round(rho_C0 N) chartists drawn from the law chartist_init names
    n_c = int(round(config.rho_C0 * config.N))
    ensemble = AgentEnsemble(
        y=_init_law(config.chartist_init, params)(init_rng, n_c),
        n_fundamentalists=config.N - n_c)
    s = np.full(config.N_s, S0)

    n_rec = config.n_iters + 1
    t, S, Y, rho_C, rho_F, E, max_abs_y, min_price = np.empty((8, n_rec))
    n_chart = np.empty(n_rec, dtype=np.int64)
    rejected, switch_cf, switch_fc = np.zeros((3, n_rec), dtype=np.int64)
    work = _Workspace()

    def record(i: int, s_min: float) -> None:
        y = ensemble.y
        t[i] = i * dt
        # record 0 keeps S0 as given: the mean of N_s copies may round off it
        S[i] = s.mean() if i else S0
        Y[i] = ensemble.mean_propensity()
        rho_C[i] = rc = y.size / ensemble.N
        rho_F[i] = 1.0 - rc
        # einsum, not dot: at 50k samples on 2 cores a threaded BLAS dot
        # took 7.9 ms, einsum 0.05 ms
        E[i] = np.einsum("i,i->", s, s) / s.size
        n_chart[i] = y.size
        max_abs_y[i] = max(y.max(), -y.min()) if y.size else 0.0
        min_price[i] = s_min

    record(0, S0)
    # at rho_C dt = 1 the pairing reads no market state: it is drawn ahead
    ahead = (_DrawAhead(pair_rng, n_c, params, config.n_iters)
             if ensemble.n_fundamentalists == 0 and dt == 1.0 else None)
    try:
        for i in range(1, n_rec):
            # the market state frozen for this iteration is the last records'
            trend = (S[i - 1] - S[i - 2]) / (dt * S[i - 1]) if i > 1 and S[i - 1] > 0.0 else 0.0
            phi = value_function(config.value_spec, trend)
            rejected[i] = step_chartists(ensemble, phi, params, dt, pair_rng, work,
                                         None if ahead is None else ahead.take(i))
            if config.pin_mean:
                _recenter(ensemble.y)
            if config.enable_switching:
                switch_cf[i], switch_fc[i] = step_strategy_exchange(
                    ensemble, float(S[i - 1]), trend, params, dt, switch_rng)
            s_min = step_price(s, float(Y[i - 1]), float(rho_C[i - 1]), params, dt,
                               price_rng, work)
            record(i, s_min)
    finally:
        if ahead is not None:
            ahead.stop()

    return Trajectory(
        t=t, S=S, Y=Y, rho_C=rho_C, rho_F=rho_F, E=E, n_chartists=n_chart,
        max_abs_y=max_abs_y, min_price=min_price, rejected=rejected,
        switch_cf=switch_cf, switch_fc=switch_fc, N=config.N,
        y_final=ensemble.y.copy(),  # not a view that keeps the capacity-N buffer
        s_final=s,
    )
