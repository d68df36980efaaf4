"""The p-values call scipy.special kernels directly; scipy.stats is their oracle.

Each kernel is the one the matching scipy.stats survival function calls,
so the two must agree bit for bit, edges included.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import balancegrowth
from balancegrowth import tails, trend_test, umpu_wilks
from balancegrowth.panel import hopkins_pvalue

N_RANDOM = 20_000

# `balancegrowth.__all__` as it was when every submodule was imported eagerly
PUBLIC_NAMES = [
    "__version__",
    "BalanceGrowthError",
    "ConfigError",
    "DegenerateTailError",
    "FitConvergenceError",
    "HorizonError",
    "InsufficientDataError",
    "MalformedInputError",
    "NoRetainedBinsError",
    "BinSeries",
    "GrowthFit",
    "HorizonEntry",
    "HorizonSweep",
    "RegimeSplit",
    "TrendResult",
    "bin_moments",
    "fit_growth",
    "horizon_sweep",
    "make_bins",
    "split_regimes",
    "trend_test",
    "BalanceSnapshot",
    "HopkinsResult",
    "ScatterTaxonomy",
    "TransitionPanel",
    "build_panel",
    "filter_active",
    "hopkins",
    "hopkins_test",
    "taxonomy",
    "InitialLaw",
    "RegimeParams",
    "Schedule",
    "SimConfig",
    "euler_paths",
    "simulate_gbm_exact",
    "simulate_power_sde",
    "simulate_two_regime",
    "snapshot_series",
    "ComparisonResult",
    "TailFitResult",
    "UmpuResult",
    "compare_tails",
    "fit_lognormal",
    "fit_power_law",
    "threshold_sweep",
    "umpu_sweep",
    "umpu_wilks",
]

LOADED_SCIPY = "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"


def _fresh_python(code: str, cwd=None) -> str:
    """stdout of `code` run in a new interpreter that imports this checkout."""
    env = {**os.environ, "PYTHONPATH": str(Path(balancegrowth.__file__).resolve().parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_heavy_scipy_unloaded():
    assert _fresh_python("import sys, balancegrowth, balancegrowth.cli\n" + LOADED_SCIPY) == ""


def test_cli_import_leaves_thread_pool_unloaded():
    # the simulator imports its executor where it runs the chunks
    assert _fresh_python("import sys, balancegrowth.cli, balancegrowth.sim\nprint('concurrent.futures' in sys.modules)") == "False"


def test_simulate_and_estimate_load_no_scipy(tmp_path):
    (tmp_path / "sim.cfg").write_text(
        "model = two_regime\nn_users = 4000\nseed = 5\nhorizon_days = 14\ns0_law = lognormal\n"
        "s0_m = 23.03\ns0_v = 2.3\ns_star = 1e10\npoor_mu = 0.003\nwealthy_mu = -0.002\n"
        "poor_sigma = 0.001\nwealthy_sigma = 0.001\n"
    )
    code = (
        "import sys\n"
        "from balancegrowth.cli import main\n"
        "assert main(['simulate', 'sim.cfg', 'sim', '--quiet']) == 0\n"
        "assert main(['estimate', 'sim.panel.csv', 'est', '--bins', '20', '--quiet']) == 0\n"
        "assert main(['estimate', 'sim.panel.csv', 'abs', '--bins', '20', '--target', 'absolute', '--quiet']) == 0\n"
        + LOADED_SCIPY
    )
    assert _fresh_python(code, cwd=tmp_path) == ""
    assert (tmp_path / "est.regimes.json").exists()
    assert (tmp_path / "abs.absfits.json").exists()


def test_public_names_resolve_on_demand():
    # a fresh interpreter, so every name goes through the on-demand lookup
    code = (
        "import balancegrowth\n"
        "print(balancegrowth.tails.__name__)\n"
        "names = {}\n"
        "exec('from balancegrowth import *', names)\n"
        "print([n for n in balancegrowth.__all__ if n not in names or n not in vars(balancegrowth)])\n"
    )
    assert _fresh_python(code).split("\n") == ["balancegrowth.tails", "[]"]
    assert balancegrowth.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(balancegrowth))
    for name in PUBLIC_NAMES:
        assert getattr(balancegrowth, name) is vars(balancegrowth)[name]
    with pytest.raises(AttributeError, match="no_such_name"):
        balancegrowth.no_such_name


def test_fit_leaves_scipy_optimize_unloaded(tmp_path):
    values = np.random.default_rng(3).lognormal(16.0, 1.5, 400).astype(np.int64)
    (tmp_path / "v.csv").write_text("user_id,balance\n" + "".join(f"u{i},{v}\n" for i, v in enumerate(values)))
    run = "import sys\nfrom balancegrowth.cli import main\nfor extra in {}:\n    assert main(['fit', 'v.csv', '--quiet', *extra]) == 0\n"
    # the scan, the threshold sweep and the Monte Carlo rank sweep load no scipy at all
    default = "([], ['--sweep-start', '1000000', '--sweep-step', '1000000'], ['--umpu', '--mc-reps', '20'])"
    assert _fresh_python(run.format(default) + LOADED_SCIPY, cwd=tmp_path) == ""
    # the asymptotic p-value is scipy.special's chdtrc, and only that
    heavy = "print(' '.join(m for m in ('scipy.special', 'scipy.stats', 'scipy.optimize', 'scipy.spatial') if m in sys.modules))\n"
    asymptotic = "(['--umpu', '--umpu-method', 'asymptotic'],)"
    assert _fresh_python(run.format(asymptotic) + heavy, cwd=tmp_path) == "scipy.special"
    # the log-normal fit was interior, so the shape solve ran
    assert '"exponential_boundary": false' in (tmp_path / "v.log_normal.json").read_text()
    assert (tmp_path / "v.threshold_sweep.csv").exists() and (tmp_path / "v.umpu_sweep.csv").exists()


def test_hopkins_pvalue_equals_beta_sf():
    rng = np.random.default_rng(11)
    h = np.concatenate([rng.uniform(0.0, 1.0, N_RANDOM), [0.0, 1.0, 0.0, 1.0, 0.5]])
    m = np.concatenate([rng.integers(1, 1000, N_RANDOM), [1, 1, 500, 500, 100]])
    got = np.array([hopkins_pvalue(float(a), int(b)) for a, b in zip(h, m)])
    assert np.array_equal(got, stats.beta.sf(h, m, m))


def test_trend_pvalue_equals_twice_norm_sf():
    rng = np.random.default_rng(12)
    results = []
    for _ in range(2000):
        n = int(rng.integers(4, 25))
        values = rng.integers(0, 6, n) if rng.random() < 0.5 else rng.normal(size=n)
        results.append(trend_test(zip(range(n), values)))
    # S = 0 with spread: z is exactly 0 and the p-value is 1.
    results.append(trend_test([(1, 1.0), (2, 2.0), (3, 2.0), (4, 1.0)]))
    assert results[-1].s == 0
    results = [r for r in results if r.var_s > 0]
    # the continuity-corrected Mann-Kendall z
    z = np.array([(r.s - np.sign(r.s)) / math.sqrt(r.var_s) for r in results])
    assert np.array_equal([r.p_value for r in results], 2.0 * stats.norm.sf(np.abs(z)))


def test_asymptotic_umpu_pvalue_equals_half_chi2_sf():
    rng = np.random.default_rng(13)
    w = np.concatenate([rng.exponential(4.0, N_RANDOM), [1e-300, 1e-8, 1.0, 50.0, 1e4]])
    tests = [(1.0, 10, 10, 1.5, float(v)) for v in w]
    got = [r.p_value for r in tails._umpu_results(*zip(*tests), 0, 0, "asymptotic")]
    assert np.array_equal(got, 0.5 * stats.chi2.sf(w, df=1))
    for seed in range(20):
        local = np.random.default_rng(seed)
        data = 50.0 * np.exp(local.lognormal(-1.0, 0.5 + seed / 20, 400))
        r = umpu_wilks(data, 50.0, seed=seed, method="asymptotic")
        assert r.p_value == (1.0 if r.wilks_w <= 0.0 else 0.5 * stats.chi2.sf(r.wilks_w, df=1))
