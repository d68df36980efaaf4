"""Command-line pipeline: panel, fit, estimate, sweep, simulate.

Every subcommand is a pure function of its input files and flags:
re-running reproduces the data outputs byte for byte. Only `panel` (the
Hopkins sample) and `fit` (the UMPU replicates) take `--seed`;
`simulate` draws from its config's `seed` key. Diagnostics go to
stderr, data to files; exit code 0 means no error was recorded. Each run
computes every output before `_Run.finish` writes them and then a
manifest JSON listing parameters, input/output digests, the seed, and a
run id that the result JSONs reference; a run that fails writes nothing.
"""

import argparse
import datetime as dt
import hashlib
import logging
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, growth, io, panel as panel_mod, sim, tails
from ._workers import map_on_cpus
from .errors import BalanceGrowthError, DegenerateTailError, FitConvergenceError, InsufficientDataError
from .errors import HorizonError, MalformedInputError

log = logging.getLogger("balancegrowth")


class _Run:
    """The only writer of a run: every output, then the manifest, once all are computed.

    `run_id` hashes the command, the parameter echo, the input digests
    (taken on a thread per usable CPU), the seed that drove the run
    (None for a command that draws nothing) and the version; the output
    digests, the diagnostics (such as simulated users lost to overflow)
    and the wall-clock duration lie outside it. The parameter echo is every parsed argument except those
    that only place outputs or set logging, and the seed, which the
    manifest records on its own; so the run id covers every flag that
    can change an output.
    """

    _NOT_ECHOED = {"command", "func", "seed", "quiet", "out", "out_path", "out_prefix", "prefix"}

    def __init__(self, args: argparse.Namespace, prefix: Path, inputs: list, seed: int | None):
        self.started = time.monotonic()
        self.prefix = prefix
        ident = {
            "command": args.command,
            "parameters": {k: v for k, v in vars(args).items() if k not in self._NOT_ECHOED},
            "inputs": dict(zip(map(str, inputs), map_on_cpus(io.file_sha256, inputs))),
            "seed": seed,
            "version": __version__,
        }
        run_id = hashlib.sha256(io.json_text(ident).encode("utf-8")).hexdigest()[:16]
        self.manifest = {**ident, "run_id": run_id}

    def finish(self, outputs: dict, **diagnostics) -> int:
        """Write each output in order, recording the digest its writer returns, then `<prefix>.manifest.json`.

        A key is a tag under the prefix (`"bins.csv"`) or a Path; a dict that
        is not a `.csv` is a result JSON stamped with the run id. Writers are
        looked up on `io` at call time, so a wrapper installed later sees them.
        """
        digests = {}
        for key, payload in outputs.items():
            path = key if isinstance(key, Path) else Path(f"{self.prefix}.{key}")
            if isinstance(payload, panel_mod.TransitionPanel):
                digests[str(path)] = io.write_panel_csv(path, payload)
            elif isinstance(payload, panel_mod.BalanceSnapshot):
                digests[str(path)] = io.write_snapshot_csv(path, payload)
            elif path.suffix == ".csv":
                digests[str(path)] = io.write_csv(path, payload)
            else:
                digests[str(path)] = io.write_json(path, {**payload, "run_id": self.manifest["run_id"]})
            log.info("wrote %s", path)
        path = Path(f"{self.prefix}.manifest.json")
        duration = time.monotonic() - self.started
        io.write_json(path, {**self.manifest, "outputs": digests, "diagnostics": diagnostics, "duration_s": duration})
        log.info("wrote %s", path)
        return 0


def _snapshot_date(path: Path, override: dt.date | None, flag: str) -> dt.date:
    date = override or io.date_from_filename(path)
    if date is None:
        raise MalformedInputError(f"{path}: file name carries no ISO date; pass {flag} explicitly")
    return date


def _columns(records, names) -> dict:
    """Named CSV columns from records given as dicts or dataclasses."""
    rows = [r if isinstance(r, dict) else vars(r) for r in records]
    return {name: [row[name] for row in rows] for name in names}


def cmd_panel(args) -> int:
    out = Path(args.out) / args.out_path
    run = _Run(args, out.parent / out.stem, [args.snap0, args.snap1], args.seed)
    snap0, snap1 = map_on_cpus(
        lambda path, date, flag: io.read_snapshot_csv(path, _snapshot_date(Path(path), date, flag)),
        [args.snap0, args.snap1],
        [args.date0, args.date1],
        ["--date0", "--date1"],
    )
    try:
        joined = panel_mod.build_panel(snap0, snap1)
    except HorizonError as exc:
        raise HorizonError(f"{args.snap0}, {args.snap1}: {exc}") from None
    del snap0, snap1  # the join holds every row, so the snapshots' memory serves the steps after it
    tax = panel_mod.taxonomy(joined)
    emitted = joined
    payload = tax.to_dict()
    payload.update({"t0": joined.t0.isoformat(), "dt_days": joined.dt_days})
    if args.filter_active:
        emitted = panel_mod.filter_active(joined)
        payload["filter_active"] = emitted.meta
    if args.hopkins_m:
        points = np.column_stack([emitted.s0, emitted.ds])
        try:
            result = panel_mod.hopkins_test(points, args.hopkins_m, args.seed)
        except InsufficientDataError as exc:
            raise InsufficientDataError(f"--hopkins-m {args.hopkins_m}: {exc}") from None
        payload["hopkins"] = vars(result)
    return run.finish({out: emitted, "taxonomy.json": payload})


def cmd_fit(args) -> int:
    run = _Run(args, Path(args.out) / (args.prefix or Path(args.data).stem), [args.data], args.seed)
    raw = io.read_values_csv(args.data)
    data = raw[raw > 0]
    if data.size == 0:
        raise MalformedInputError(f"{args.data}: no positive values")
    if data.size < raw.size:
        log.warning("dropped %d of %d values that are not positive", raw.size - data.size, raw.size)

    try:
        pl = tails.fit_power_law(data, xmin=args.xmin, max_candidates=args.xmin_candidates)
        ln = tails.fit_lognormal(data, pl.xmin)
        comparison = tails._compare_fits(data, pl, ln)
        if args.sweep_step is not None:
            thresholds = tails.threshold_sweep(data, start=args.sweep_start, step=args.sweep_step)
        if args.umpu:
            ranks = tails.umpu_sweep(data, mc_reps=args.mc_reps, seed=args.seed, method=args.umpu_method)
    except (InsufficientDataError, DegenerateTailError, FitConvergenceError) as exc:
        raise type(exc)(f"{args.data}: {exc}") from None
    outputs = {
        "power_law.json": pl.to_dict(),
        "log_normal.json": ln.to_dict(),
        "comparison.json": comparison.to_dict(),
    }
    edges = np.geomspace(float(data.min()), float(data.max()), args.hist_bins + 1)
    counts, _ = np.histogram(data, bins=edges)
    outputs["hist.csv"] = {
        "bin_lo": edges[:-1],
        "bin_hi": edges[1:],
        "center": np.sqrt(edges[:-1] * edges[1:]),
        "count": counts,
        "density": counts / (np.diff(edges) * data.size),
    }
    grid = np.geomspace(pl.xmin, float(data.max()), 200)
    outputs["curves.csv"] = {
        "x": grid,
        "power_law_pdf": np.exp(tails.powerlaw_logpdf(grid, pl.alpha, pl.xmin)),
        "log_normal_pdf": np.exp(tails.lognormal_logpdf(grid, ln.m, ln.v, pl.xmin)),
    }
    if args.sweep_step is not None:
        outputs["threshold_sweep.csv"] = _columns(thresholds, ["xmin", "normalized_lr", "p_value", "preferred"])
    if args.umpu:
        outputs["umpu_sweep.csv"] = _columns(ranks, ["rank", "threshold", "n_tail", "wilks_w", "p_value", "method"])
    return run.finish(outputs)


def _fitlines(split: growth.RegimeSplit, bins: growth.BinSeries) -> dict:
    """Fitted mean and std curves per regime over the bin centers.

    Powers stay scalar: the vectorized power can differ in the last bit.
    """
    grid = np.geomspace(float(bins.centers.min()), float(bins.centers.max()), 100)
    fits = [(name, fit) for name, fit in (("poor", split.poor), ("wealthy", split.wealthy)) if fit is not None]
    return {
        "regime": [name for name, _ in fits for _ in grid],
        "x": [x for _ in fits for x in grid],
        "mean_fit": [fit.mu_dt * x ** (fit.alpha_drift - 1.0) for _, fit in fits for x in grid],
        "std_fit": [fit.sigma_sqrtdt * x ** (fit.alpha_vol - 1.0) for _, fit in fits for x in grid],
    }


def cmd_estimate(args) -> int:
    run = _Run(args, Path(args.out) / args.out_prefix, [args.panel], None)
    try:
        bins = growth.bin_panel(io.read_panel_csv(args.panel), args.bins, args.min_count, args.target)
        if args.target == growth.TARGET_RATIO:
            fit = growth.split_regimes(bins)
        else:
            fit = growth.fit_growth(bins)
    except InsufficientDataError as exc:
        raise type(exc)(f"{args.panel}: {exc}") from None
    outputs = {
        "bins.csv": {
            "bin_lo": bins.bin_lo,
            "bin_hi": bins.bin_hi,
            "center": bins.centers,
            "count": bins.counts,
            "mean": bins.means,
            "std": bins.stds,
        }
    }
    if args.target == growth.TARGET_RATIO:
        outputs["regimes.json"] = fit.to_dict()
        outputs["fitlines.csv"] = _fitlines(fit, bins)
    else:
        outputs["absfits.json"] = {"fit": fit, "settings": bins.settings, "unit": "satoshi"}
    return run.finish(outputs)


def cmd_sweep(args) -> int:
    dts = _days(args.dts)
    try:
        used = {args.t0, *(args.t0 + dt.timedelta(days=d) for d in dts)}
    except OverflowError:
        raise MalformedInputError(f"--dts {args.dts!r}: a horizon ends outside the calendar") from None
    snap_dir = Path(args.snapshot_dir)
    files = sorted(snap_dir.glob("*.csv"))
    dated = [(io.date_from_filename(f), f) for f in files]
    dated = [(d, f) for d, f in dated if d is not None]
    if not dated:
        raise MalformedInputError(f"{snap_dir}: no dated snapshot CSVs found")
    by_date = {}
    for d, f in dated:
        if d in by_date:
            raise MalformedInputError(f"duplicate snapshot date {d}: {by_date[d]} and {f}")
        by_date[d] = f
    if args.t0 not in by_date:
        raise MalformedInputError(f"--t0 {args.t0}: no snapshot of that date in {snap_dir}")
    run = _Run(args, Path(args.out) / args.prefix, [f for _, f in dated], None)
    # every dated file is an input of the run, but only those at t0 and t0 + dt are read
    snapshots = map_on_cpus(lambda d: io.read_snapshot_csv(by_date[d], d), sorted(used & by_date.keys()))
    sweep = growth.horizon_sweep(snapshots, args.t0, dts, n_bins=args.bins, min_count=args.min_count)
    for record in sweep.skipped:
        log.warning("skipped dt=%s: %s", record["dt_days"], record["reason"])
    series = [
        {"dt_days": entry.dt_days, "regime": regime, **params}
        for entry in sweep.entries
        for regime, params in entry.derived.items()
    ]
    trends = [
        {"regime": regime, "parameter": param, **vars(trend)}
        for regime, params in sweep.trends.items()
        for param, trend in params.items()
    ]
    return run.finish({
        "horizon.json": sweep.to_dict(),
        "series.csv": _columns(series, ["dt_days", "regime", *growth.SWEEP_PARAMS]),
        "trends.csv": _columns(trends, ["regime", "parameter", "direction", "tau", "p_value", "n"]),
    })


def cmd_simulate(args) -> int:
    config, emit_days = io.parse_sim_config(args.config)
    run = _Run(args, Path(args.out) / args.out_prefix, [args.config], config.seed)
    snaps = sim.snapshot_series(config, emit_days)
    outputs = {f"snapshot_{snap.date.isoformat()}.csv": snap for snap in snaps}
    if len(snaps) >= 2:
        outputs["panel.csv"] = panel_mod.build_panel(snaps[0], snaps[-1])
    return run.finish(outputs, n_overflow=config.n_users - snaps[0].n_users)


def _flag_type(parse, valid, expected: str):
    """An argparse `type=`: `parse(text)`, refused as not `expected` unless it and `valid(value)` succeed."""

    def check(text: str):
        try:
            value = parse(text)
            ok = valid(value)
        except ValueError:
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return check


def _int_at_least(least: int):
    return _flag_type(int, lambda v: v >= least, f"an integer of at least {least}")


def _days(text: str) -> list:
    return [int(part) for part in text.split(",")]


_POSITIVE = _flag_type(float, lambda v: 0 < v < math.inf, "a positive finite number")  # NaN fails too
_ISO_DATE = _flag_type(dt.date.fromisoformat, lambda date: True, "an ISO date")
# --dts stays the text given, which the run id echoes; `cmd_sweep` checks its horizons against --t0
_HORIZONS = _flag_type(str, lambda text: min(_days(text)) > 0, "comma-separated positive days")


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--out", default=".", help="output directory (default current)")
    parser.add_argument("--quiet", action="store_true", help="suppress informational logging")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balancegrowth",
        description="Detect the growth mechanism behind heavy-tailed balance distributions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    estimator = argparse.ArgumentParser(add_help=False)
    estimator.add_argument(
        "--bins", type=_int_at_least(2), default=growth.DEFAULT_N_BINS, help="geometric bins (default %(default)s)"
    )
    estimator.add_argument(
        "--min-count",
        type=_int_at_least(2),
        default=growth.DEFAULT_MIN_COUNT,
        help="minimum rows per bin (default %(default)s)",
    )
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_int_at_least(0), default=101, help="RNG seed (default %(default)s)")

    p = sub.add_parser("panel", parents=[seeded], help="join two snapshots into a transition panel")
    p.add_argument("snap0")
    p.add_argument("snap1")
    p.add_argument("out_path", help="panel CSV output (taxonomy/manifest written alongside)")
    p.add_argument("--date0", type=_ISO_DATE, help="ISO date of the first snapshot (default: from file name)")
    p.add_argument("--date1", type=_ISO_DATE, help="ISO date of the second snapshot (default: from file name)")
    p.add_argument("--filter-active", action="store_true", help="keep only group-A rows")
    p.add_argument("--hopkins-m", type=_int_at_least(0), default=0, help="sample size for the clustering diagnostic")
    _add_common(p)
    p.set_defaults(func=cmd_panel)

    p = sub.add_parser("fit", parents=[seeded], help="fit and compare tail models on balance data")
    p.add_argument("data", help="snapshot CSV or any CSV with a `balance` column")
    p.add_argument("--prefix", help="output prefix (default: data file stem)")
    p.add_argument("--xmin", type=_POSITIVE, help="tail cutoff in satoshi (default: KS scan)")
    p.add_argument("--xmin-candidates", type=_int_at_least(1), help="cap on scanned xmin candidates")
    p.add_argument("--sweep-step", type=_POSITIVE, help="threshold sweep step in satoshi")
    p.add_argument("--sweep-start", type=_POSITIVE, default=1.0, help="threshold sweep start (default 1 satoshi)")
    p.add_argument("--umpu", action="store_true", help="run the rank sweep of the tail test")
    p.add_argument("--mc-reps", type=_int_at_least(1), default=1000, help="bootstrap replicates (default %(default)s)")
    p.add_argument(
        "--umpu-method",
        choices=["monte_carlo", "asymptotic"],
        default="monte_carlo",
        help="p-value method for the tail test",
    )
    p.add_argument("--hist-bins", type=_int_at_least(1), default=100, help="log-histogram bins (default %(default)s)")
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("estimate", parents=[estimator], help="bin a panel and regress the growth parameters")
    p.add_argument("panel", help="panel CSV")
    p.add_argument("out_prefix", help="output prefix")
    p.add_argument("--target", choices=[growth.TARGET_RATIO, growth.TARGET_ABSOLUTE], default=growth.TARGET_RATIO)
    _add_common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", parents=[estimator], help="estimate across horizons and test parameter trends")
    p.add_argument("snapshot_dir", help="directory of dated snapshot CSVs")
    p.add_argument("--t0", type=_ISO_DATE, required=True, help="ISO date of the base snapshot")
    p.add_argument("--dts", type=_HORIZONS, required=True, help="comma-separated horizons in days")
    p.add_argument("--prefix", default="sweep", help="output prefix (default %(default)s)")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="generate synthetic snapshots and panels")
    p.add_argument("config", help="flat key = value config file")
    p.add_argument("out_prefix", help="output prefix")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage or the refusal
        return exc.code
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(message)s",
        force=True,
    )
    try:
        return args.func(args)
    except (BalanceGrowthError, OSError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
