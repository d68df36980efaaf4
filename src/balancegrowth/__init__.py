"""Growth-mechanism detection for heavy-tailed balance data.

The library joins dated balance snapshots into transition panels, fits
and compares power-law vs log-normal tail models, estimates the
parameters of a power-scaled proportional-growth process from binned
panel moments, detects the two-regime (accumulating vs divesting)
structure, and ships a matching stochastic simulator that serves as the
ground-truth oracle for every estimator.

Public names are loaded from their submodule on first access (PEP 562),
so importing the package or its CLI does not import scipy.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": """BalanceGrowthError ConfigError DegenerateTailError FitConvergenceError HorizonError
        InsufficientDataError MalformedInputError NoRetainedBinsError""",
    "growth": """BinSeries GrowthFit HorizonEntry HorizonSweep RegimeSplit TrendResult
        bin_moments fit_growth horizon_sweep make_bins split_regimes trend_test""",
    "panel": """BalanceSnapshot HopkinsResult ScatterTaxonomy TransitionPanel build_panel filter_active
        hopkins hopkins_test taxonomy""",
    "sim": """InitialLaw RegimeParams Schedule SimConfig euler_paths simulate_gbm_exact simulate_power_sde
        simulate_two_regime snapshot_series""",
    "tails": """ComparisonResult TailFitResult UmpuResult compare_tails fit_lognormal fit_power_law
        threshold_sweep umpu_sweep umpu_wilks""",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name):
    if name in _EXPORTS:  # `balancegrowth.tails` and the like work after a bare `import balancegrowth`
        return import_module(f".{name}", __name__)
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
