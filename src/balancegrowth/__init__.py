"""Growth-mechanism detection for heavy-tailed balance data.

The library joins dated balance snapshots into transition panels, fits
and compares power-law vs log-normal tail models, estimates the
parameters of a power-scaled proportional-growth process from binned
panel moments, detects the two-regime (accumulating vs divesting)
structure, and ships a matching stochastic simulator that serves as the
ground-truth oracle for every estimator.
"""

from .errors import (
    BalanceGrowthError, ConfigError, DegenerateTailError, FitConvergenceError, HorizonError, InsufficientDataError,
    MalformedInputError, NoRetainedBinsError,
)
from .growth import (
    BinSeries, GrowthFit, HorizonEntry, HorizonSweep, RegimeSplit, TrendResult, bin_moments, fit_growth,
    horizon_sweep, make_bins, split_regimes, trend_test,
)
from .panel import (
    BalanceSnapshot, HopkinsResult, ScatterTaxonomy, TransitionPanel, build_panel, filter_active, hopkins_test,
    taxonomy,
)
from .sim import (
    InitialLaw, RegimeParams, Schedule, SimConfig, euler_paths, simulate_gbm_exact, simulate_power_sde,
    simulate_two_regime, snapshot_series,
)
from .tails import (
    ComparisonResult, TailFitResult, UmpuResult, compare_tails, fit_lognormal, fit_power_law, threshold_sweep,
    umpu_sweep, umpu_wilks,
)

__version__ = "0.1.0"

__all__ = [
    "__version__", "BalanceGrowthError", "ConfigError", "DegenerateTailError", "FitConvergenceError",
    "HorizonError", "InsufficientDataError", "MalformedInputError", "NoRetainedBinsError", "BinSeries", "GrowthFit",
    "HorizonEntry", "HorizonSweep", "RegimeSplit", "TrendResult", "bin_moments", "fit_growth", "horizon_sweep",
    "make_bins", "split_regimes", "trend_test", "BalanceSnapshot", "HopkinsResult", "ScatterTaxonomy",
    "TransitionPanel", "build_panel", "filter_active", "hopkins_test", "taxonomy", "InitialLaw",
    "RegimeParams", "Schedule", "SimConfig", "euler_paths", "simulate_gbm_exact", "simulate_power_sde",
    "simulate_two_regime", "snapshot_series", "ComparisonResult", "TailFitResult", "UmpuResult", "compare_tails",
    "fit_lognormal", "fit_power_law", "threshold_sweep", "umpu_sweep", "umpu_wilks",
]
