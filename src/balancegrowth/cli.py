"""Command-line pipeline: panel, fit, estimate, sweep, simulate.

Every subcommand is a pure function of its input files, flags, and seed:
re-running reproduces the data outputs byte for byte. Diagnostics go to
stderr, data to files; exit code 0 means no error was recorded. Each run
writes a manifest JSON listing parameters, input/output digests, and a
run id that the result JSONs reference.
"""

import argparse
import datetime as dt
import logging
import math
import secrets
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, growth, io, panel as panel_mod, sim, tails
from .errors import BalanceGrowthError, MalformedInputError

DEFAULT_SEED = 101

log = logging.getLogger("balancegrowth")


class _Run:
    """Collects outputs for the manifest and writes it last."""

    def __init__(self, command: str, args: argparse.Namespace, inputs: list, parameters: dict):
        self.started = time.monotonic()
        self.manifest = io.RunManifest(
            command=command,
            parameters=parameters,
            inputs={str(p): io.file_sha256(p) for p in inputs},
            seed=args.seed,
        )
        self.outputs: dict = {}

    def write_json(self, path, payload: dict):
        payload = dict(payload)
        payload["run_id"] = self._run_id()
        io.write_json(path, payload)
        self.outputs[str(path)] = io.file_sha256(path)
        log.info("wrote %s", path)

    def write_csv(self, path, header, rows):
        io.write_csv(path, header, rows)
        self.outputs[str(path)] = io.file_sha256(path)
        log.info("wrote %s", path)

    def write_with(self, path, writer, payload):
        writer(path, payload)
        self.outputs[str(path)] = io.file_sha256(path)
        log.info("wrote %s", path)

    def _run_id(self) -> str:
        if not self.manifest.run_id:
            self.manifest.finalize(0.0, {})
        return self.manifest.run_id

    def close(self, manifest_path):
        self.manifest.finalize(time.monotonic() - self.started, self.outputs)
        io.write_json(manifest_path, self.manifest.to_dict())
        log.info("wrote %s", manifest_path)


def _sibling(out_path: Path, tag: str) -> Path:
    base = out_path.name[: -len(out_path.suffix)] if out_path.suffix else out_path.name
    return out_path.with_name(f"{base}.{tag}")


def _snapshot_date(path: Path, override: str | None, flag: str) -> dt.date:
    if override:
        return dt.date.fromisoformat(override)
    date = io.date_from_filename(path)
    if date is None:
        raise MalformedInputError(
            f"{path}: file name carries no ISO date; pass {flag} explicitly"
        )
    return date


def cmd_panel(args) -> int:
    out = Path(args.out) / args.out_path
    run = _Run(
        "panel",
        args,
        inputs=[args.snap0, args.snap1],
        parameters={
            "snap0": str(args.snap0),
            "snap1": str(args.snap1),
            "filter_active": args.filter_active,
            "epsilon_v": args.epsilon_v,
            "hopkins_m": args.hopkins_m,
            "hopkins_log": args.hopkins_log,
        },
    )
    snap0 = io.read_snapshot_csv(args.snap0, _snapshot_date(Path(args.snap0), args.date0, "--date0"))
    snap1 = io.read_snapshot_csv(args.snap1, _snapshot_date(Path(args.snap1), args.date1, "--date1"))
    joined = panel_mod.build_panel(snap0, snap1)
    tax = panel_mod.taxonomy(joined, epsilon_v=args.epsilon_v)
    emitted = joined
    payload = tax.to_dict()
    payload.update({"t0": joined.t0.isoformat(), "dt_days": joined.dt_days})
    if args.filter_active:
        emitted = panel_mod.filter_active(joined)
        payload["filter_active"] = emitted.meta
    if args.hopkins_m:
        points = np.column_stack([emitted.s0, emitted.ds])
        result = panel_mod.hopkins_test(points, args.hopkins_m, args.seed, log_scale=args.hopkins_log)
        payload["hopkins"] = {
            "statistic": result.statistic,
            "p_value": result.p_value,
            "m": result.m,
            "n_points": result.n_points,
            "log_scale": args.hopkins_log,
        }
    run.write_with(out, io.write_panel_csv, emitted)
    run.write_json(_sibling(out, "taxonomy.json"), payload)
    run.close(_sibling(out, "manifest.json"))
    return 0


def _log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    if hi <= lo:
        return np.array([lo])
    return np.geomspace(lo, hi, n)


def cmd_fit(args) -> int:
    data_path = Path(args.data)
    prefix = Path(args.out) / (args.prefix or data_path.stem)
    run = _Run(
        "fit",
        args,
        inputs=[args.data],
        parameters={
            "data": str(args.data),
            "xmin": args.xmin,
            "sweep_step": args.sweep_step,
            "sweep_start": args.sweep_start,
            "umpu": args.umpu,
            "mc_reps": args.mc_reps,
            "umpu_method": args.umpu_method,
            "hist_bins": args.hist_bins,
            "xmin_candidates": args.xmin_candidates,
        },
    )
    raw = io.read_values_csv(args.data)
    data = raw[raw > 0]
    if data.size == 0:
        raise MalformedInputError(f"{args.data}: no positive values")
    if data.size < raw.size:
        log.info("dropped %d non-positive values", raw.size - data.size)

    if args.xmin is not None:
        pl = tails.fit_power_law(data, xmin=args.xmin)
    else:
        pl = tails.fit_power_law(data, max_candidates=args.xmin_candidates)
    xmin_used = pl.xmin
    ln = tails.fit_lognormal(data, xmin_used)
    comparison = tails._compare_fits(data, pl, ln)
    run.write_json(Path(f"{prefix}.power_law.json"), pl.to_dict())
    run.write_json(Path(f"{prefix}.log_normal.json"), ln.to_dict())
    run.write_json(Path(f"{prefix}.comparison.json"), comparison.to_dict())

    edges = _log_grid(float(data.min()), float(data.max()), args.hist_bins + 1)
    counts, _ = np.histogram(data, bins=edges)
    widths = np.diff(edges)
    density = counts / (widths * data.size)
    run.write_csv(
        Path(f"{prefix}.hist.csv"),
        ["bin_lo", "bin_hi", "center", "count", "density"],
        (
            [edges[i], edges[i + 1], math.sqrt(edges[i] * edges[i + 1]), int(counts[i]), density[i]]
            for i in range(len(counts))
        ),
    )
    grid = _log_grid(xmin_used, float(data.max()), 200)
    pl_pdf = np.exp(tails.powerlaw_logpdf(grid, pl.alpha, xmin_used))
    ln_pdf = np.exp(tails.lognormal_logpdf(grid, ln.m, ln.v, xmin_used))
    run.write_csv(
        Path(f"{prefix}.curves.csv"),
        ["x", "power_law_pdf", "log_normal_pdf"],
        ([grid[i], pl_pdf[i], ln_pdf[i]] for i in range(grid.size)),
    )

    if args.sweep_step is not None:
        sweep = tails.threshold_sweep(data, start=args.sweep_start, step=args.sweep_step)
        run.write_csv(
            Path(f"{prefix}.threshold_sweep.csv"),
            ["xmin", "normalized_lr", "p_value", "preferred"],
            (
                [r.xmin, "" if math.isnan(r.normalized_lr) else repr(r.normalized_lr), r.p_value, r.preferred]
                for r in sweep
            ),
        )
    if args.umpu:
        sweep = tails.umpu_sweep(data, mc_reps=args.mc_reps, seed=args.seed, method=args.umpu_method)
        run.write_csv(
            Path(f"{prefix}.umpu_sweep.csv"),
            ["rank", "threshold", "n_tail", "wilks_w", "p_value", "method"],
            ([r.rank, r.threshold, r.n_tail, r.wilks_w, r.p_value, r.method] for r in sweep),
        )
    run.close(Path(f"{prefix}.manifest.json"))
    return 0


def _estimate_payload(args, active, run, prefix):
    s0 = active.s0
    s_min = args.s_min if args.s_min is not None else float(np.min(s0))
    s_max = args.s_max if args.s_max is not None else float(np.max(s0))
    edges = growth.make_bins(s_min, s_max, args.bins)
    bins = growth.bin_moments(active, edges, min_count=args.min_count, target=args.target)
    run.write_csv(
        Path(f"{prefix}.bins.csv"),
        ["bin_lo", "bin_hi", "center", "count", "mean", "std"],
        (
            [bins.bin_lo[i], bins.bin_hi[i], bins.centers[i], int(bins.counts[i]), bins.means[i], bins.stds[i]]
            for i in range(bins.n_bins)
        ),
    )
    return bins


def _fitline_rows(split: growth.RegimeSplit, bins: growth.BinSeries):
    for regime, fit in (("poor", split.poor), ("wealthy", split.wealthy)):
        if fit is None:
            continue
        lo = float(bins.centers.min())
        hi = float(bins.centers.max())
        for x in _log_grid(lo, hi, 100):
            mean_fit = fit.mu_dt * x ** (fit.alpha_drift - 1.0)
            std_fit = fit.sigma_sqrtdt * x ** (fit.alpha_vol - 1.0)
            yield [regime, x, mean_fit, std_fit]


def cmd_estimate(args) -> int:
    prefix = Path(args.out) / args.out_prefix
    run = _Run(
        "estimate",
        args,
        inputs=[args.panel],
        parameters={
            "panel": str(args.panel),
            "bins": args.bins,
            "min_count": args.min_count,
            "target": args.target,
            "s_min": args.s_min,
            "s_max": args.s_max,
            "star_log_scale": args.star_log_scale,
        },
    )
    loaded = io.read_panel_csv(args.panel)
    active = panel_mod.filter_active(loaded)
    if active.n_rows != loaded.n_rows:
        log.info("dropped %d inactive rows", loaded.n_rows - active.n_rows)
    if active.n_rows == 0:
        raise MalformedInputError(f"{args.panel}: no active rows to estimate from")
    bins = _estimate_payload(args, active, run, prefix)
    settings = {
        "bins": args.bins,
        "min_count": args.min_count,
        "target": args.target,
        "units": {"balance": "satoshi", "mu": "per-day", "sigma": "per-sqrt-day"},
    }
    if args.target == growth.TARGET_RATIO:
        split = growth.split_regimes(bins, star_log_scale=args.star_log_scale)
        payload = split.to_dict()
        payload["estimator_settings"] = settings
        run.write_json(Path(f"{prefix}.regimes.json"), payload)
        run.write_csv(
            Path(f"{prefix}.fitlines.csv"),
            ["regime", "x", "mean_fit", "std_fit"],
            _fitline_rows(split, bins),
        )
    else:
        drift = growth.fit_drift_abs(bins)
        vol = growth.fit_vol_abs(bins)
        payload = {
            "drift": {
                "alpha": drift.alpha,
                "mu_dt": drift.mu_dt,
                "alpha_se": drift.alpha_se,
                "r_squared": drift.r_squared,
                "mu_dt_alpha1": drift.mu_dt_alpha1,
                "sse": drift.sse,
                "sse_alpha1": drift.sse_alpha1,
            },
            "vol": {
                "alpha": vol.alpha,
                "sigma_sqrtdt": vol.sigma_sqrtdt,
                "alpha_se": vol.alpha_se,
                "r_squared": vol.r_squared,
            },
            "estimator_settings": settings,
        }
        run.write_json(Path(f"{prefix}.absfits.json"), payload)
    run.close(Path(f"{prefix}.manifest.json"))
    return 0


def cmd_sweep(args) -> int:
    snap_dir = Path(args.snapshot_dir)
    files = sorted(snap_dir.glob("*.csv"))
    dated = [(io.date_from_filename(f), f) for f in files]
    dated = [(d, f) for d, f in dated if d is not None]
    if not dated:
        raise MalformedInputError(f"{snap_dir}: no dated snapshot CSVs found")
    prefix = Path(args.out) / args.prefix
    run = _Run(
        "sweep",
        args,
        inputs=[f for _, f in dated],
        parameters={
            "snapshot_dir": str(snap_dir),
            "t0": args.t0,
            "dts": args.dts,
            "bins": args.bins,
            "min_count": args.min_count,
            "star_log_scale": args.star_log_scale,
        },
    )
    snapshots = [io.read_snapshot_csv(f, d) for d, f in dated]
    t0 = dt.date.fromisoformat(args.t0)
    dts = [int(part) for part in args.dts.split(",")]
    sweep = growth.horizon_sweep(
        snapshots,
        t0,
        dts,
        n_bins=args.bins,
        min_count=args.min_count,
        star_log_scale=args.star_log_scale,
    )
    for record in sweep.skipped:
        log.warning("skipped dt=%s: %s", record["dt_days"], record["reason"])
    run.write_json(Path(f"{prefix}.horizon.json"), sweep.to_dict())
    series_rows = []
    for entry in sweep.entries:
        for regime in (growth.REGIME_POOR, growth.REGIME_WEALTHY):
            values = entry.derived.get(regime)
            if values is None:
                continue
            series_rows.append(
                [
                    entry.dt_days,
                    regime,
                    values["alpha_drift"],
                    values["alpha_vol"],
                    values["mu_dt"],
                    values["sigma_sqrtdt"],
                    values["mu"],
                    values["sigma"],
                ]
            )
    run.write_csv(
        Path(f"{prefix}.series.csv"),
        ["dt_days", "regime", "alpha_drift", "alpha_vol", "mu_dt", "sigma_sqrtdt", "mu", "sigma"],
        series_rows,
    )
    trend_rows = []
    for regime, params in sweep.trends.items():
        for param, trend in params.items():
            trend_rows.append([regime, param, trend.direction, trend.tau, trend.p_value, trend.n])
    run.write_csv(
        Path(f"{prefix}.trends.csv"),
        ["regime", "parameter", "direction", "tau", "p_value", "n"],
        trend_rows,
    )
    run.close(Path(f"{prefix}.manifest.json"))
    return 0


def cmd_simulate(args) -> int:
    prefix = Path(args.out) / args.out_prefix
    run = _Run(
        "simulate",
        args,
        inputs=[args.config],
        parameters={"config": str(args.config)},
    )
    parsed = io.parse_sim_config(args.config)
    if parsed.model == "gbm":
        sim_panel = sim.simulate_gbm_exact(**parsed.gbm_kwargs)
        horizon = parsed.gbm_kwargs["horizon_days"]
        extra = set(parsed.emit_days) - {0, horizon}
        if extra:
            raise io.ConfigError(
                f"config key 'emit_days': gbm model only materializes days 0 and {horizon}"
            )
        t0 = parsed.gbm_kwargs["t0"]
        snaps = [
            panel_mod.BalanceSnapshot(
                date=t0 + dt.timedelta(days=0 if i == 0 else horizon),
                user_ids=sim_panel.user_ids,
                balances=np.floor(col + 0.5).astype(np.int64),
            )
            for i, col in enumerate((sim_panel.s0, sim_panel.s1))
        ]
    else:
        snaps = sim.snapshot_series(parsed.sim, parsed.emit_days)
    for snap in snaps:
        run.write_with(Path(f"{prefix}.snapshot_{snap.date.isoformat()}.csv"), io.write_snapshot_csv, snap)
    if len(snaps) >= 2:
        joined = panel_mod.build_panel(snaps[0], snaps[-1])
        run.write_with(Path(f"{prefix}.panel.csv"), io.write_panel_csv, joined)
    run.close(Path(f"{prefix}.manifest.json"))
    return 0


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed (default %(default)s)")
    parser.add_argument("--entropy", action="store_true", help="draw the seed from system entropy")
    parser.add_argument("--out", default=".", help="output directory (default current)")
    parser.add_argument("--quiet", action="store_true", help="suppress informational logging")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balancegrowth",
        description="Detect the growth mechanism behind heavy-tailed balance distributions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("panel", help="join two snapshots into a transition panel")
    p.add_argument("snap0")
    p.add_argument("snap1")
    p.add_argument("out_path", help="panel CSV output (taxonomy/manifest written alongside)")
    p.add_argument("--date0", help="ISO date of the first snapshot (default: from file name)")
    p.add_argument("--date1", help="ISO date of the second snapshot (default: from file name)")
    p.add_argument("--filter-active", action="store_true", help="keep only group-A rows")
    p.add_argument("--epsilon-v", type=float, default=0.0, help="vertical-line tolerance in satoshi")
    p.add_argument("--hopkins-m", type=int, default=0, help="sample size for the clustering diagnostic")
    p.add_argument("--hopkins-log", action="store_true", help="signed-log scale for the diagnostic")
    _add_common(p)
    p.set_defaults(func=cmd_panel)

    p = sub.add_parser("fit", help="fit and compare tail models on balance data")
    p.add_argument("data", help="snapshot CSV or any CSV with a `balance` column")
    p.add_argument("--prefix", help="output prefix (default: data file stem)")
    p.add_argument("--xmin", type=float, help="tail cutoff in satoshi (default: KS scan)")
    p.add_argument("--xmin-candidates", type=int, help="cap on scanned xmin candidates")
    p.add_argument("--sweep-step", type=float, help="threshold sweep step in satoshi")
    p.add_argument("--sweep-start", type=float, default=1.0, help="threshold sweep start (default 1 satoshi)")
    p.add_argument("--umpu", action="store_true", help="run the rank sweep of the tail test")
    p.add_argument("--mc-reps", type=int, default=1000, help="bootstrap replicates (default %(default)s)")
    p.add_argument(
        "--umpu-method",
        choices=["monte_carlo", "asymptotic"],
        default="monte_carlo",
        help="p-value method for the tail test",
    )
    p.add_argument("--hist-bins", type=int, default=100, help="log-histogram bins (default %(default)s)")
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("estimate", help="bin a panel and regress the growth parameters")
    p.add_argument("panel", help="panel CSV")
    p.add_argument("out_prefix", help="output prefix")
    p.add_argument("--bins", type=int, default=growth.DEFAULT_N_BINS, help="geometric bins (default %(default)s)")
    p.add_argument("--min-count", type=int, default=growth.DEFAULT_MIN_COUNT, help="minimum rows per bin (default %(default)s)")
    p.add_argument("--target", choices=[growth.TARGET_RATIO, growth.TARGET_ABSOLUTE], default=growth.TARGET_RATIO)
    p.add_argument("--s-min", type=float, help="lower bin edge (default: data minimum)")
    p.add_argument("--s-max", type=float, help="upper bin edge (default: data maximum)")
    p.add_argument("--star-log-scale", action="store_true", help="average the regime boundary geometrically")
    _add_common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", help="estimate across horizons and test parameter trends")
    p.add_argument("snapshot_dir", help="directory of dated snapshot CSVs")
    p.add_argument("--t0", required=True, help="ISO date of the base snapshot")
    p.add_argument("--dts", required=True, help="comma-separated horizons in days")
    p.add_argument("--prefix", default="sweep", help="output prefix (default %(default)s)")
    p.add_argument("--bins", type=int, default=growth.DEFAULT_N_BINS)
    p.add_argument("--min-count", type=int, default=growth.DEFAULT_MIN_COUNT)
    p.add_argument("--star-log-scale", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="generate synthetic snapshots and panels")
    p.add_argument("config", help="flat key = value config file")
    p.add_argument("out_prefix", help="output prefix")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(message)s",
        force=True,
    )
    if args.entropy:
        args.seed = secrets.randbits(63)
        log.info("entropy seed: %d", args.seed)
    try:
        return args.func(args)
    except BalanceGrowthError as exc:
        log.error("%s", exc)
        return 2
    except OSError as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
