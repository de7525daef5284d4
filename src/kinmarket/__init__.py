"""Kinetic Monte Carlo simulator and analytic oracles for a two-population
speculative market (trend-following chartists vs. fundamentalists)."""

from .model import (
    ConfigurationError,
    InvariantViolation,
    ModelParams,
    NumericsError,
    ValueFunctionSpec,
    chartist_profit,
    diffusion,
    fundamentalist_profit,
    herding,
    price_noise_halfwidth,
    switch_rate,
    value_function,
)
from .fokker_planck import (
    ChartistEquilibrium,
    ParetoSteadyState,
    PriceCollapse,
    classify_equilibrium,
    lognormal_price_density,
    pareto_steady_state,
    solve_macro_ode,
    solve_Y_fixed_point,
)
from .simulation import (
    AgentEnsemble,
    SimConfig,
    Trajectory,
    binary_interact,
    run,
    step_chartists,
    step_price,
    step_strategy_exchange,
)
from .stats import (
    Histogram,
    hill_plateau,
    hill_tail_index,
    ks_statistic,
    l1_density_distance,
    lognormal_fit,
)

__version__ = "0.1.0"
