"""No command loads scipy, and the p-values have exact oracles.

Each command runs in a fresh interpreter, which must hold no scipy
module afterwards. The Hopkins p-value, a binomial sum in `panel`, is
checked against 50-digit mpmath and against `scipy.stats.beta.sf`. The
trend and asymptotic UMPU p-values come from the normal kernels of
`tails`; they are checked against 50-digit mpmath at the exact float
statistic.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import stats

import balancegrowth
from balancegrowth import tails, trend_test, umpu_wilks
from balancegrowth.panel import hopkins_pvalue

N_RANDOM = 20_000

# `balancegrowth.__all__`, pinned: every public name, in order
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


SIM_CFG = (
    "model = two_regime\nn_users = 4000\nseed = 5\nhorizon_days = 28\nemit_days = 0,7,14,21,28\n"
    "s0_law = lognormal\ns0_m = 23.03\ns0_v = 2.3\ns_star = 1e10\npoor_mu = 0.003\nwealthy_mu = -0.002\n"
    "poor_sigma = 0.001\nwealthy_sigma = 0.001\n"
)


def _scipy_after(commands, cwd) -> list:
    """The scipy modules loaded after `main` runs each of `commands` in one new interpreter."""
    code = (
        "import sys\n"
        "from balancegrowth.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    assert main([*argv, '--quiet']) == 0, argv\n"
        + LOADED_SCIPY
    )
    return _fresh_python(code, cwd=cwd).split()


def test_simulate_and_estimate_load_no_scipy(tmp_path):
    (tmp_path / "sim.cfg").write_text(SIM_CFG)
    commands = [
        ["simulate", "sim.cfg", "sim"],
        ["estimate", "sim.panel.csv", "est", "--bins", "20"],
        ["estimate", "sim.panel.csv", "abs", "--bins", "20", "--target", "absolute"],
        # four horizons, so each regime's parameters get a trend test
        ["sweep", ".", "--t0", "2000-01-01", "--dts", "7,14,21,28", "--bins", "20"],
    ]
    assert _scipy_after(commands, tmp_path) == []
    assert (tmp_path / "est.regimes.json").exists() and (tmp_path / "abs.absfits.json").exists()
    assert len((tmp_path / "sweep.trends.csv").read_text().splitlines()) > 1


def test_fit_leaves_scipy_optimize_unloaded(tmp_path):
    values = np.random.default_rng(3).lognormal(16.0, 1.5, 400).astype(np.int64)
    (tmp_path / "v.csv").write_text("user_id,balance\n" + "".join(f"u{i},{v}\n" for i, v in enumerate(values)))
    commands = [
        ["fit", "v.csv"],
        ["fit", "v.csv", "--sweep-start", "1000000", "--sweep-step", "1000000"],
        ["fit", "v.csv", "--umpu", "--mc-reps", "20"],
        ["fit", "v.csv", "--umpu", "--umpu-method", "asymptotic", "--prefix", "asym"],
    ]
    assert _scipy_after(commands, tmp_path) == []
    # the log-normal fit was interior, so the shape solve ran
    assert '"exponential_boundary": false' in (tmp_path / "v.log_normal.json").read_text()
    assert (tmp_path / "v.threshold_sweep.csv").exists() and (tmp_path / "v.umpu_sweep.csv").exists()
    assert "asymptotic" in (tmp_path / "asym.umpu_sweep.csv").read_text()


def test_only_hopkins_loads_scipy(tmp_path):
    # named when the Hopkins diagnostic still loaded scipy.spatial; now it loads no scipy either
    (tmp_path / "sim.cfg").write_text(SIM_CFG)
    snaps = ["sim.snapshot_2000-01-01.csv", "sim.snapshot_2000-01-29.csv"]
    assert _scipy_after([["simulate", "sim.cfg", "sim"]], tmp_path) == []
    assert _scipy_after([["panel", *snaps, "p.csv", "--hopkins-m", "50"]], tmp_path) == []
    assert json.loads((tmp_path / "p.taxonomy.json").read_text())["hopkins"]["m"] == 50


def test_public_names_are_exported():
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


def _beta_sf(h: float, m: int):
    """P(Beta(m, m) > h) at 50 digits, from I_x(m, m) = x^m (1 - x)^m 2F1(2m, 1; m + 1; x) / (m B(m, m)).

    The series has positive terms and is summed at x = min(h, 1 - h) <= 1/2, so
    it runs fast where mpmath's `betainc` (a polynomial of alternating terms for
    integer m) needs many more digits: ~0.4 ms a point against ~5 ms."""
    with mpmath.workdps(50):
        h = mpmath.mpf(h)
        x = min(h, 1 - h)
        lower = x**m * (1 - x) ** m / (m * mpmath.beta(m, m)) * mpmath.hyp2f1(2 * m, 1, m + 1, x)
        return lower if x < h else 1 - lower


def test_beta_sf_reference_equals_mpmath_betainc():
    rng = np.random.default_rng(10)
    h = np.concatenate([rng.uniform(0.0, 1.0, 300), [0.5, 1e-300, 1.0 - 2.0**-53]])
    m = np.concatenate([rng.integers(1, 300, 300), [7, 3, 3]])
    with mpmath.workdps(50):
        for a, b in zip(h.tolist(), m.tolist()):
            exact = mpmath.betainc(b, b, 0, 1 - mpmath.mpf(a), regularized=True)
            assert abs(_beta_sf(a, b) - exact) <= mpmath.mpf(10) ** -40 * exact


def test_hopkins_pvalue_equals_beta_sf():
    # within 1e-12 relative of 50-digit mpmath, as scipy is (the binomial sum is not scipy's kernel, so not bit for bit)
    rng = np.random.default_rng(11)
    z = np.array([-4.0, -1.0, 0.0, 0.5, 2.0, 6.0, 20.0, 35.0])  # standard deviations above 1/2, to p near 1e-270
    large = np.repeat([2_000, 10_000, 100_000], z.size)
    near_half = 0.5 + np.tile(z, 3) / np.sqrt(8 * large)
    h = np.concatenate([rng.uniform(0.0, 1.0, N_RANDOM), [0.0, 1.0, 0.0, 1.0, 0.5], near_half])
    m = np.concatenate([rng.integers(1, 1000, N_RANDOM), [1, 1, 500, 500, 100], large])
    exact = np.array([float(_beta_sf(a, b)) for a, b in zip(h.tolist(), m.tolist())])
    got = np.array([hopkins_pvalue(a, b) for a, b in zip(h.tolist(), m.tolist())])
    for value in (got, stats.beta.sf(h, m, m)):
        err = np.abs(value - exact)
        assert np.all(np.where(exact >= 1e-300, err <= 1e-12 * exact, err <= 1e-300))
    for b in (1, 2, 500, 100_000):
        assert hopkins_pvalue(0.0, b) == 1.0 and hopkins_pvalue(1.0, b) == 0.0


def _within(got, exact, rel=1e-14) -> bool:
    """Every value of `got` within `rel` relative of the mpmath value beside it; 0 where that underflows."""
    exact = np.array([float(e) for e in exact])
    return bool(np.all(np.abs(np.asarray(got) - exact) <= rel * exact))


def _half_chi2_sf(w) -> list:
    """Half the chi-squared(1) survival function at each float w, erfc(sqrt(w/2))/2, at 50 digits."""
    with mpmath.workdps(50):
        return [mpmath.erfc(mpmath.sqrt(mpmath.mpf(float(v)) / 2)) / 2 for v in w]


def test_trend_pvalue_equals_twice_norm_sf():
    rng = np.random.default_rng(12)
    results = []
    for _ in range(2000):
        n = int(rng.integers(4, 25))
        values = rng.integers(0, 6, n) if rng.random() < 0.5 else rng.normal(size=n)
        results.append(trend_test(zip(range(n), values)))
    # S = 0 with spread: z is exactly 0 and the p-value is 1.
    results.append(trend_test([(1, 1.0), (2, 2.0), (3, 2.0), (4, 1.0)]))
    assert results[-1].s == 0 and results[-1].p_value == 1.0
    results = [r for r in results if r.var_s > 0]
    # the continuity-corrected Mann-Kendall z, and 2 Phi(-|z|) = erfc(|z|/sqrt(2)) at 50 digits
    z = [abs(r.s - np.sign(r.s)) / math.sqrt(r.var_s) for r in results]
    with mpmath.workdps(50):
        exact = [mpmath.erfc(mpmath.mpf(v) / mpmath.sqrt(2)) for v in z]
    assert _within([r.p_value for r in results], exact)


def test_asymptotic_umpu_pvalue_equals_half_chi2_sf():
    rng = np.random.default_rng(13)
    w = np.concatenate([rng.exponential(4.0, N_RANDOM), np.geomspace(1e-300, 1400.0, 301), [1e-8, 1.0, 50.0, 1e4]])
    tests = [(1.0, 10, 10, 1.5, float(v)) for v in w]
    got = [r.p_value for r in tails._umpu_results(*zip(*tests), 0, 0, "asymptotic")]
    assert _within(got, _half_chi2_sf(w))
    runs = []
    for seed in range(20):
        local = np.random.default_rng(seed)
        data = 50.0 * np.exp(local.lognormal(-1.0, 0.5 + seed / 20, 400))
        runs.append(umpu_wilks(data, 50.0, seed=seed, method="asymptotic"))
    assert all(r.p_value == 1.0 for r in runs if r.wilks_w <= 0.0)
    inner = [r for r in runs if r.wilks_w > 0.0]
    assert _within([r.p_value for r in inner], _half_chi2_sf([r.wilks_w for r in inner]))
