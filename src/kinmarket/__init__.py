"""Kinetic Monte Carlo simulator and analytic oracles for a two-population
speculative market (trend-following chartists vs. fundamentalists).

The package exports the ``__all__`` of each engine module."""

from .model import *
from .fokker_planck import *
from .simulation import *
from .stats import *

__version__ = "0.1.0"
