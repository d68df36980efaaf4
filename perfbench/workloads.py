"""The benchmark workloads: seeded inputs, the command chain, and output checks.

A workload's `setup(inputs, seed)` writes every input file under
`inputs` and returns its command chain. Each command runs as a fresh
`balancegrowth` process with the output directory as its working
directory, and names its inputs by absolute path. Its `check` reads the
outputs and returns one message per violated expectation; the expected
values come from what `gen` planted, never from the program.

Sizes are scaled down from the 1e6 users of the roadmap so that one run
of every workload, traced runs included, fits the run budget on a
2-core machine.
"""

import datetime as dt
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen

SIM_TWO_REGIME_USERS = 250_000
SIM_GBM_USERS = 200_000
SIM_POWER_USERS = 50_000
SIM_HORIZON_DAYS = 84
GBM_MU = 1e-3
GBM_SIGMA = 0.02

SNAPSHOT_USERS = 250_000

SCAN_VALUES = 15_000
SWEEP_VALUES = 300_000
SWEEP_THRESHOLDS = 1_500
SWEEP_MIN_TAIL = 100  # threshold_sweep's default stopping rule
UMPU_VALUES = 120
UMPU_REPS = 1000  # the CLI default, echoed here to bound the p-values
UMPU_MIN_RANK = 10

# recovery tolerances on the (t0, t0 + 28 days) panel; each is at least
# three times the largest deviation and eight standard deviations seen
# over 24 seeds at this size
POOR_ALPHA_TOL = 0.02
WEALTHY_DRIFT_TOL = 0.03
WEALTHY_VOL_TOL = 0.05
TAIL_ALPHA_SE = 5.0  # power-law alpha within this many standard errors (alpha - 1) / sqrt(n_tail)
SCAN_XMIN_RANGE = (0.5, 10.0)  # scanned xmin over the planted cutoff
SWEEP_AGREEMENT = 1e-6  # relative gap between `sweep` at 28 days and `estimate`


@dataclass(frozen=True)
class Command:
    label: str  # one of COMMAND_LABELS
    args: list
    manifest: str  # manifest file name in the output directory
    outputs: list  # files the command writes besides the manifest
    check: Callable[[Path], list]


def _json(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text(encoding="utf-8"))


def data_rows(path: Path) -> int:
    return path.read_bytes().count(b"\n") - 1


def read_columns(path: Path, names) -> list:
    """Numeric columns of a CSV by header name."""
    lines = path.read_bytes().split(b"\n")
    header = lines[0].decode().split(",")
    rows = [line.split(b",") for line in lines[1:] if line]
    return [np.array([row[header.index(name)] for row in rows]).astype(np.float64) for name in names]


def _near(failures, what, got, want, tol):
    if got is None or not abs(got - want) <= tol:
        failures.append(f"{what} = {got}, planted {want} (tolerance {tol})")


# ---------------------------------------------------------------- simulate-write


def _sim_config(path: Path, seed: int, lines: dict):
    base = {
        "seed": seed,
        "t0_date": gen.T0.isoformat(),
        "s0_law": "lognormal",
        "s0_m": gen.S0_LOG_MEDIAN,
        "s0_v": gen.S0_LOG_SD,
    }
    base.update(lines)
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()), encoding="utf-8")


def _snapshot_files(prefix: str, days) -> list:
    return [f"{prefix}.snapshot_{(gen.T0 + dt.timedelta(days=d)).isoformat()}.csv" for d in days]


def _check_rows(out: Path, files, n: int) -> list:
    return [f"{f}: {data_rows(out / f)} rows, expected {n}" for f in files if data_rows(out / f) != n]


def simulate_write(inputs: Path, seed: int) -> list:
    """`simulate` on a two-regime, an exact-GBM and a single-regime power config."""
    emit = [0, 28, 56, 84]
    _sim_config(
        inputs / "two_regime.cfg",
        seed,
        {
            "model": "two_regime",
            "n_users": SIM_TWO_REGIME_USERS,
            "step_days": 1,
            "horizon_days": SIM_HORIZON_DAYS,
            "emit_days": ",".join(map(str, emit)),
            "s_star": gen.S_STAR,
            **{f"poor_{k}": v for k, v in gen.POOR.items()},
            **{f"wealthy_{k}": v for k, v in gen.WEALTHY.items()},
        },
    )
    _sim_config(
        inputs / "gbm.cfg",
        seed,
        {"model": "gbm", "n_users": SIM_GBM_USERS, "horizon_days": SIM_HORIZON_DAYS, "mu": GBM_MU, "sigma": GBM_SIGMA},
    )
    _sim_config(
        inputs / "power.cfg",
        seed,
        {"model": "power", "n_users": SIM_POWER_USERS, "step_days": 1, "horizon_days": 28, **gen.POOR},
    )
    two_files = _snapshot_files("sim", emit) + ["sim.panel.csv"]
    gbm_files = _snapshot_files("gbm", [0, SIM_HORIZON_DAYS]) + ["gbm.panel.csv"]
    power_files = _snapshot_files("pow", [0, 28]) + ["pow.panel.csv"]

    def ratio_means(out, name):
        s0, ds = read_columns(out / name, ["s0", "ds"])
        lo, hi = s0 < gen.S_STAR / 10, s0 > gen.S_STAR * 10
        return float(np.mean(ds[lo] / s0[lo])), float(np.mean(ds[hi] / s0[hi]))

    def check_two_regime(out):
        failures = _check_rows(out, two_files, SIM_TWO_REGIME_USERS)
        poor, wealthy = ratio_means(out, "sim.panel.csv")
        if not (poor > 0 > wealthy):
            failures.append(f"sim.panel.csv: mean ds/s0 is {poor} (poor) and {wealthy} (wealthy); want + and -")
        return failures

    def check_gbm(out):
        failures = _check_rows(out, gbm_files, SIM_GBM_USERS)
        s0, s1 = read_columns(out / "gbm.panel.csv", ["s0", "s1"])
        keep = s0 >= gen.S0_FLOOR
        growth = np.log(s1[keep] / s0[keep])
        want = (GBM_MU - 0.5 * GBM_SIGMA**2) * SIM_HORIZON_DAYS
        _near(failures, "gbm mean log growth", float(growth.mean()), want, 6 * float(growth.std()) / math.sqrt(keep.sum()))
        return failures

    def check_power(out):
        failures = _check_rows(out, power_files, SIM_POWER_USERS)
        poor, _ = ratio_means(out, "pow.panel.csv")
        if not poor > 0:
            failures.append(f"pow.panel.csv: mean ds/s0 is {poor}, want positive drift")
        return failures

    return [
        Command("simulate", ["simulate", str(inputs / "two_regime.cfg"), "sim"], "sim.manifest.json", two_files, check_two_regime),
        Command("simulate_gbm", ["simulate", str(inputs / "gbm.cfg"), "gbm"], "gbm.manifest.json", gbm_files, check_gbm),
        Command("simulate_power", ["simulate", str(inputs / "power.cfg"), "pow"], "pow.manifest.json", power_files, check_power),
    ]


# ---------------------------------------------------------------- sweep-read


def _s_star_bin_width(out: Path) -> float:
    """Width of the geometric bin that holds the planted S_STAR."""
    lo, hi = read_columns(out / "est.bins.csv", ["bin_lo", "bin_hi"])
    ratio = hi[0] / lo[0]
    k = math.floor(math.log(gen.S_STAR / lo[0]) / math.log(ratio))
    return lo[0] * ratio**k * (ratio - 1.0)


def sweep_read(inputs: Path, seed: int) -> list:
    """`panel`, `estimate` on that panel, then `sweep` over four dated snapshots."""
    snaps = inputs / "snaps"
    snaps.mkdir(exist_ok=True)
    truth = gen.write_snapshots(snaps, SNAPSHOT_USERS, seed)
    dts = [gen.STEP_DAYS * k for k in range(1, gen.N_STEPS + 1)]

    def check_panel(out):
        failures = []
        tax = _json(out, "joined.taxonomy.json")
        for key, want in truth.taxonomy.items():
            if tax.get(key) != want:
                failures.append(f"taxonomy {key} = {tax.get(key)}, planted {want}")
        meta = tax.get("filter_active", {})
        for key in ("removed_horizontal", "removed_zero_start"):
            if meta.get(key) != getattr(truth, key):
                failures.append(f"filter_active {key} = {meta.get(key)}, planted {getattr(truth, key)}")
        interior = truth.taxonomy["interior"]
        if tax.get("hopkins", {}).get("n_points") != interior:
            failures.append(f"hopkins n_points = {tax.get('hopkins', {}).get('n_points')}, want {interior}")
        if data_rows(out / "joined.csv") != interior:
            failures.append(f"joined.csv: {data_rows(out / 'joined.csv')} rows, want {interior}")
        return failures

    def check_regimes(failures, split, what):
        poor, wealthy = split.get("poor") or {}, split.get("wealthy") or {}
        if not (poor.get("mu_dt", 0) > 0 > wealthy.get("mu_dt", 0)):
            failures.append(f"{what}: drift signs {poor.get('mu_dt')} (poor), {wealthy.get('mu_dt')} (wealthy)")
        return poor, wealthy

    def check_estimate(out):
        failures = []
        split = _json(out, "est.regimes.json")
        poor, wealthy = check_regimes(failures, split, "estimate")
        _near(failures, "poor alpha_drift", poor.get("alpha_drift"), gen.POOR["alpha_drift"], POOR_ALPHA_TOL)
        _near(failures, "poor alpha_vol", poor.get("alpha_vol"), gen.POOR["alpha_vol"], POOR_ALPHA_TOL)
        _near(failures, "wealthy alpha_drift", wealthy.get("alpha_drift"), gen.WEALTHY["alpha_drift"], WEALTHY_DRIFT_TOL)
        _near(failures, "wealthy alpha_vol", wealthy.get("alpha_vol"), gen.WEALTHY["alpha_vol"], WEALTHY_VOL_TOL)
        _near(failures, "s_star", split.get("s_star"), gen.S_STAR, _s_star_bin_width(out))
        return failures

    def check_sweep(out):
        failures = []
        horizon = _json(out, "sw.horizon.json")
        got = [entry["dt_days"] for entry in horizon["entries"]]
        if got != dts:
            failures.append(f"sweep horizons {got}, want {dts} (skipped: {horizon['skipped']})")
        for entry in horizon["entries"]:
            check_regimes(failures, entry["split"], f"sweep dt={entry['dt_days']}")
        first = horizon["entries"][0]["split"] if horizon["entries"] else {}
        est = _json(out, "est.regimes.json")
        for regime in ("poor", "wealthy"):
            for key in ("alpha_drift", "alpha_vol", "mu_dt", "sigma_sqrtdt"):
                a, b = (first.get(regime) or {}).get(key), (est.get(regime) or {}).get(key)
                if a is None or b is None or abs(a - b) > SWEEP_AGREEMENT * abs(b):
                    failures.append(f"sweep dt=28 {regime} {key} = {a}, estimate gave {b}")
        return failures

    d0, d1 = (str(snaps / gen.snapshot_name(day)) for day in (0, gen.STEP_DAYS))
    return [
        Command(
            "panel",
            ["panel", d0, d1, "joined.csv", "--filter-active", "--hopkins-m", "100"],
            "joined.manifest.json",
            ["joined.csv", "joined.taxonomy.json"],
            check_panel,
        ),
        Command(
            "estimate",
            ["estimate", "joined.csv", "est"],
            "est.manifest.json",
            ["est.bins.csv", "est.regimes.json", "est.fitlines.csv"],
            check_estimate,
        ),
        Command(
            "sweep",
            ["sweep", str(snaps), "--t0", gen.T0.isoformat(), "--dts", ",".join(map(str, dts)), "--prefix", "sw"],
            "sw.manifest.json",
            ["sw.horizon.json", "sw.series.csv", "sw.trends.csv"],
            check_sweep,
        ),
    ]


# ---------------------------------------------------------------- fit-tails


def _fit_outputs(prefix: str, extra=()) -> list:
    names = ["power_law.json", "log_normal.json", "comparison.json", "hist.csv", "curves.csv", *extra]
    return [f"{prefix}.{name}" for name in names]


def _check_alpha(failures, fit: dict):
    n_tail = fit.get("n_tail") or 1
    tol = TAIL_ALPHA_SE * (gen.TAIL_ALPHA - 1.0) / math.sqrt(n_tail)
    _near(failures, f"power-law alpha (n_tail {n_tail})", fit.get("alpha"), gen.TAIL_ALPHA, tol)


def _sweep_thresholds(values: np.ndarray, start: float, step: float) -> int:
    """Thresholds `threshold_sweep` evaluates: start + k*step while >= SWEEP_MIN_TAIL values reach it."""
    x = np.sort(values.astype(np.float64))
    k = 0
    while x.size - np.searchsorted(x, start + k * step, side="left") >= SWEEP_MIN_TAIL:
        k += 1
    return k


def fit_tails(inputs: Path, seed: int) -> list:
    """`fit` three ways: the default xmin scan, a fixed-xmin threshold sweep, a UMPU rank sweep."""
    rng = np.random.default_rng([seed, 3])
    scan = gen.tail_values(rng, SCAN_VALUES)
    sweep = gen.tail_values(rng, SWEEP_VALUES)
    top = gen.top_values(rng, UMPU_VALUES)
    for name, values in (("scan", scan), ("sweep", sweep), ("top", top)):
        gen.write_values(inputs / f"{name}.csv", values, seed)
    start = gen.TAIL_XMIN
    hundredth = float(np.sort(sweep)[-SWEEP_MIN_TAIL])
    step = (hundredth - start) / SWEEP_THRESHOLDS
    n_thresholds = _sweep_thresholds(sweep, start, step)

    def check_scan(out):
        failures = []
        fit = _json(out, "scan.power_law.json")
        _check_alpha(failures, fit)
        lo, hi = SCAN_XMIN_RANGE
        ratio = (fit.get("xmin") or 0) / gen.TAIL_XMIN
        if not lo <= ratio <= hi:
            failures.append(f"scanned xmin is {ratio} times the planted cutoff, want [{lo}, {hi}]")
        return failures + _check_plot_rows(out, "scan")

    def check_sweep(out):
        failures = []
        fit = _json(out, "sweep.power_law.json")
        _check_alpha(failures, fit)
        if fit.get("xmin") != start:
            failures.append(f"fixed xmin echoed as {fit.get('xmin')}, given {start}")
        rows = data_rows(out / "sweep.threshold_sweep.csv")
        if rows != n_thresholds:
            failures.append(f"threshold sweep has {rows} rows, want {n_thresholds}")
        return failures + _check_plot_rows(out, "sweep")

    def check_umpu(out):
        failures = []
        rank, p = read_columns(out / "top.umpu_sweep.csv", ["rank", "p_value"])
        want = np.arange(UMPU_MIN_RANK, UMPU_VALUES + 1)
        if not np.array_equal(rank, want):
            failures.append(f"rank sweep covers ranks {rank[:3]}..., want {UMPU_MIN_RANK}..{UMPU_VALUES}")
        if p.size and not (p.min() >= 1.0 / (UMPU_REPS + 1) and p.max() <= 1.0):
            failures.append(f"rank sweep p-values span [{p.min()}, {p.max()}]")
        return failures + _check_plot_rows(out, "top")

    return [
        Command("fit_scan", ["fit", str(inputs / "scan.csv"), "--prefix", "scan"], "scan.manifest.json", _fit_outputs("scan"), check_scan),
        Command(
            "fit_sweep",
            ["fit", str(inputs / "sweep.csv"), "--prefix", "sweep", "--xmin", repr(start),
             "--sweep-start", repr(start), "--sweep-step", repr(step)],
            "sweep.manifest.json",
            _fit_outputs("sweep", ["threshold_sweep.csv"]),
            check_sweep,
        ),
        Command("fit_umpu", ["fit", str(inputs / "top.csv"), "--prefix", "top", "--umpu"], "top.manifest.json", _fit_outputs("top", ["umpu_sweep.csv"]), check_umpu),
    ]


def _check_plot_rows(out: Path, prefix: str) -> list:
    failures = []
    for name, want in (("hist.csv", 100), ("curves.csv", 200)):
        got = data_rows(out / f"{prefix}.{name}")
        if got != want:
            failures.append(f"{prefix}.{name}: {got} rows, want {want}")
    return failures


WORKLOADS = {"simulate-write": simulate_write, "sweep-read": sweep_read, "fit-tails": fit_tails}
COMMAND_LABELS = (
    "simulate", "simulate_gbm", "simulate_power", "panel", "estimate", "sweep", "fit_scan", "fit_sweep", "fit_umpu",
)
