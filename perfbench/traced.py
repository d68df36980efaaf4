"""Run one `balancegrowth` command with its public functions timed from outside.

    python3 perfbench/traced.py SPANS_JSON -- <balancegrowth arguments>

Every public function of the program's modules is wrapped where it is
looked up: on its own module and on each module that imported it by name
(`growth.build_panel`, `growth.filter_active`, ...), so nested calls are
attributed through their parent span. Spans stay in memory and are
written to SPANS_JSON when the command ends. Nothing inside the program
is changed on disk.

`layer_metrics` folds the span files of a chain into per-layer metrics.
"""

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("io", "panel", "sim", "growth", "tails", "cli")
CLI_COMMANDS = ("panel", "fit", "estimate", "sweep", "simulate")


def _scan_candidates(data, max_candidates) -> int:
    """Candidate cutoffs `fit_power_law` scans when xmin is not given."""
    import numpy as np

    x = np.sort(np.asarray(data, dtype=np.float64).ravel())
    n = x.size
    first = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    n_cand = int(np.count_nonzero(n - first >= 2))
    if max_candidates is not None and n_cand > max_candidates:
        n_cand = int(np.unique(np.linspace(0, n_cand - 1, max_candidates).round().astype(int)).size)
    return n_cand


def _counts(name: str, a: dict, result) -> dict:
    """Exact work counts of one call, from its bound arguments and result."""
    if name in ("read_snapshot_csv", "write_snapshot_csv"):
        return {"rows": int((result if name.startswith("read") else a["snapshot"]).n_users)}
    if name in ("read_panel_csv", "build_panel"):
        return {"rows": int(result.n_rows)}
    if name == "write_panel_csv":
        return {"rows": int(a["panel"].n_rows)}
    if name == "read_values_csv":
        return {"rows": int(result.size)}
    if name == "file_sha256":
        return {"bytes": os.path.getsize(a["path"])}
    if name == "snapshot_series":
        return {"user_steps": int(a["config"].n_users) * int(a["config"].n_steps)}
    if name == "fit_power_law" and a["xmin"] is None:
        return {"scan_candidates": _scan_candidates(a["data"], a["max_candidates"])}
    if name == "threshold_sweep":
        return {"thresholds": len(result)}
    if name == "umpu_sweep":
        return {"rank_reps": len(result) * (a["mc_reps"] if a["method"] == "monte_carlo" else 0)}
    return {}


class Tracer:
    """In-memory span recorder: [layer, function, parent index, seconds, counts]."""

    def __init__(self):
        self.spans = []
        self.errors = defaultdict(int)
        self.uncounted = 0
        self._stack = []

    def wrap(self, layer: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, fn.__name__, self._stack[-1] if self._stack else -1, 0.0, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                span[3] = time.perf_counter() - start
                self._stack.pop()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            try:
                span[4] = _counts(fn.__name__, bound.arguments, result)
            except (KeyError, AttributeError, TypeError):  # the function's interface changed
                self.uncounted += 1
            return result

        return traced

    def install(self, modules: dict):
        """Wrap every public function on every module where it can be looked up."""
        home = {f"balancegrowth.{layer}": layer for layer in modules}
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ in home:
                    setattr(module, name, self.wrap(home[obj.__module__], obj))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "errors": dict(self.errors), "uncounted": self.uncounted}, fh)


def main(argv) -> int:
    spans_path, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_JSON -- <balancegrowth arguments>")
    from balancegrowth import cli, growth, io, panel, sim, tails

    tracer = Tracer()
    tracer.install({"io": io, "panel": panel, "sim": sim, "growth": growth, "tails": tails, "cli": cli})
    try:
        return cli.main(args)
    finally:
        tracer.dump(spans_path)


def layer_metrics(span_files) -> dict:
    """Per-layer times and counts summed over the commands of one traced chain."""
    total = defaultdict(float)  # (layer, function) -> inclusive seconds
    self_time = defaultdict(float)  # (layer, function) -> seconds minus wrapped children
    calls = defaultdict(int)
    counts = defaultdict(int)  # (layer, function, counter) -> sum
    errors = defaultdict(int)
    uncounted = 0
    scan_s = 0.0
    lognormal_outside_sweeps = 0
    n_fit = 0
    for path in span_files:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        spans = record["spans"]
        for layer, n in record["errors"].items():
            errors[layer] += n
        uncounted += record["uncounted"]
        child_time = [0.0] * len(spans)
        for layer, name, parent, seconds, _ in spans:
            if parent >= 0:
                child_time[parent] += seconds
        for i, (layer, name, parent, seconds, cnt) in enumerate(spans):
            key = (layer, name)
            total[key] += seconds
            self_time[key] += seconds - child_time[i]
            calls[key] += 1
            for counter, value in cnt.items():
                counts[(layer, name, counter)] += value
            if name == "fit_power_law" and "scan_candidates" in cnt:
                scan_s += seconds
            if key == ("cli", "cmd_fit"):
                n_fit += 1
            if name == "fit_lognormal":
                ancestor = parent
                while ancestor >= 0 and spans[ancestor][1] != "threshold_sweep":
                    ancestor = spans[ancestor][2]
                lognormal_outside_sweeps += ancestor < 0

    def rate(num, den):
        return num / den if den > 0 else 0.0

    m = {}
    m["io.read_snapshot_csv.s"] = total["io", "read_snapshot_csv"]
    m["io.read_snapshot_csv.rows_per_s"] = rate(counts["io", "read_snapshot_csv", "rows"], m["io.read_snapshot_csv.s"])
    m["io.read_panel_csv.s"] = total["io", "read_panel_csv"]
    m["io.read_panel_csv.rows_per_s"] = rate(counts["io", "read_panel_csv", "rows"], m["io.read_panel_csv.s"])
    m["io.read_values_csv.s"] = total["io", "read_values_csv"]
    m["io.write_snapshot_csv.s"] = total["io", "write_snapshot_csv"]
    m["io.write_snapshot_csv.rows_per_s"] = rate(
        counts["io", "write_snapshot_csv", "rows"], m["io.write_snapshot_csv.s"]
    )
    m["io.write_panel_csv.s"] = total["io", "write_panel_csv"]
    m["io.write_panel_csv.rows_per_s"] = rate(counts["io", "write_panel_csv", "rows"], m["io.write_panel_csv.s"])
    m["io.write_csv.self_s"] = self_time["io", "write_csv"]
    m["io.file_sha256.s"] = total["io", "file_sha256"]
    m["io.file_sha256.bytes"] = counts["io", "file_sha256", "bytes"]
    m["panel.build_panel.s"] = total["panel", "build_panel"]
    m["panel.build_panel.rows"] = counts["panel", "build_panel", "rows"]
    m["panel.build_panel.rows_per_s"] = rate(m["panel.build_panel.rows"], m["panel.build_panel.s"])
    m["panel.build_panel.calls"] = calls["panel", "build_panel"]
    m["panel.filter_active.s"] = total["panel", "filter_active"]
    m["panel.taxonomy.s"] = total["panel", "taxonomy"]
    m["panel.hopkins_test.s"] = total["panel", "hopkins_test"]
    m["sim.snapshot_series.s"] = total["sim", "snapshot_series"]
    m["sim.user_steps_per_s"] = rate(counts["sim", "snapshot_series", "user_steps"], m["sim.snapshot_series.s"])
    m["sim.simulate_gbm_exact.s"] = total["sim", "simulate_gbm_exact"]
    m["growth.bin_moments.s"] = total["growth", "bin_moments"]
    m["growth.split_regimes.s"] = total["growth", "split_regimes"]
    m["growth.horizon_sweep.self_s"] = self_time["growth", "horizon_sweep"]
    m["tails.fit_power_law.scan_s"] = scan_s
    m["tails.fit_power_law.scan_candidates"] = counts["tails", "fit_power_law", "scan_candidates"]
    m["tails.fit_power_law.calls"] = calls["tails", "fit_power_law"]
    m["tails.fit_lognormal.calls"] = calls["tails", "fit_lognormal"]
    m["tails.fit_lognormal.calls_per_fit"] = rate(lognormal_outside_sweeps, n_fit)
    m["tails.compare_tails.calls"] = calls["tails", "compare_tails"]
    m["tails.threshold_sweep.s"] = total["tails", "threshold_sweep"]
    m["tails.threshold_sweep.thresholds"] = counts["tails", "threshold_sweep", "thresholds"]
    m["tails.threshold_sweep.ms_per_threshold"] = 1e3 * rate(
        m["tails.threshold_sweep.s"], m["tails.threshold_sweep.thresholds"]
    )
    m["tails.umpu_sweep.s"] = total["tails", "umpu_sweep"]
    m["tails.umpu_sweep.rank_reps"] = counts["tails", "umpu_sweep", "rank_reps"]
    m["tails.umpu_sweep.us_per_rank_rep"] = 1e6 * rate(m["tails.umpu_sweep.s"], m["tails.umpu_sweep.rank_reps"])
    for command in CLI_COMMANDS:
        m[f"cli.{command}.self_s"] = self_time["cli", f"cmd_{command}"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum((v for (lay, _), v in self_time.items() if lay == layer), 0.0)
        m[f"{layer}.errors"] = errors[layer]
    m["trace.uncounted_calls"] = uncounted
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
