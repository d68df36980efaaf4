"""End-to-end benchmark of the `balancegrowth` CLI pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from
`src/` there and nowhere else. The benchmark generates its inputs from
the seed (`gen.py`), then repeats the workload's command chain, one
fresh `balancegrowth` process per command and one command at a time,
until S seconds have passed, checking every output. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: per-chain means
over the chains run, and the median of the set-ups. With --trace 1 the
chain runs once plainly and once under `traced.py`, and the metrics are
per-layer times and counts, each command's wall time in the plain
chain, and the tracing overhead. An operation is one command of a chain; it fails when
the command exits non-zero or any check of its outputs fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import traced
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
IMPORT_PROBES = 3
BUDGET_S = 150.0  # stop starting new chains after this; the whole run must end within 180 s
STDERR_TAIL = 600


@dataclass
class Spawned:
    wall_s: float
    maxrss_mb: float
    returncode: int
    stderr: str


@dataclass
class Chain:
    wall_s: float
    commands: list  # Spawned per command
    rows: int = 0
    failures: dict = field(default_factory=dict)  # command label -> messages
    digests: dict = field(default_factory=dict)  # output file -> sha256


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def spawn(argv, cwd: Path, env: dict, deadline: float) -> Spawned:
    """Run one process to completion; wall time and max RSS come from wait4 on that child alone."""
    err_path = cwd / ".stderr"
    with open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")[-STDERR_TAIL:]
    err_path.unlink()
    return Spawned(wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr)


def _sha256_rows(path: Path) -> tuple:
    data = path.read_bytes()
    rows = data.count(b"\n") - 1 if path.suffix == ".csv" else 0
    return hashlib.sha256(data).hexdigest(), rows


class Runner:
    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.setup = workloads.WORKLOADS[workload]
        self.seed = seed
        self.inputs = work / "inputs"
        self.out = work / "out"
        self.spans = work / "spans"
        self.env = child_env()
        self.deadline = deadline
        self.commands = []
        self.first_digests = None
        self._input_cache = {}

    def prepare(self) -> list:
        """Set the workload up from source SETUP_REPEATS times; returns each time taken.

        A set-up builds the program (byte-compiles `src/balancegrowth`
        afresh) and generates the inputs.
        """
        build = [sys.executable, "-m", "compileall", "-q", "-f", str(SRC / "balancegrowth")]
        times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.inputs, ignore_errors=True)
            start = time.perf_counter()
            subprocess.run(build, check=True, env=self.env, stdout=subprocess.DEVNULL)
            self.inputs.mkdir(parents=True)
            self.commands = self.setup(self.inputs, self.seed)
            times.append(time.perf_counter() - start)
        return times

    def chain(self, trace: bool = False) -> Chain:
        shutil.rmtree(self.out, ignore_errors=True)
        shutil.rmtree(self.spans, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.spans.mkdir(parents=True)
        spawned = []
        start = time.perf_counter()
        for i, cmd in enumerate(self.commands):
            if trace:
                argv = [sys.executable, str(HERE / "traced.py"), str(self.spans / f"{i}.json"), "--", *cmd.args]
            else:
                argv = [sys.executable, "-m", "balancegrowth.cli", *cmd.args]
            spawned.append(spawn(argv, self.out, self.env, self.deadline))
        result = Chain(time.perf_counter() - start, spawned)
        for cmd, proc in zip(self.commands, spawned):
            result.failures[cmd.label] = self._check(cmd, proc, result)
        if self.first_digests is None:
            self.first_digests = result.digests
        elif result.digests != self.first_digests:
            changed = sorted(k for k in result.digests if result.digests[k] != self.first_digests.get(k))
            result.failures[self.commands[-1].label].append(f"outputs differ from the first chain: {changed}")
        return result

    def _check(self, cmd, proc: Spawned, result: Chain) -> list:
        if proc.returncode != 0:
            return [f"exit code {proc.returncode}: {proc.stderr.strip()}"]
        missing = [name for name in [cmd.manifest, *cmd.outputs] if not (self.out / name).is_file()]
        if missing:
            return [f"missing outputs {missing}"]
        failures = []
        try:
            manifest = json.loads((self.out / cmd.manifest).read_text(encoding="utf-8"))
            for kind in ("inputs", "outputs"):
                for name, digest in manifest[kind].items():
                    path = self.out / name  # absolute names stay absolute
                    got, rows = self._digest(path, kind == "inputs")
                    result.rows += rows
                    if kind == "outputs":
                        result.digests[name] = got
                    if got != digest:
                        failures.append(f"manifest digest of {name} does not match the file")
            if set(manifest["outputs"]) != set(cmd.outputs):
                failures.append(f"manifest lists outputs {sorted(manifest['outputs'])}, expected {sorted(cmd.outputs)}")
            if self.first_digests is None:  # later chains must reproduce the first one byte for byte
                failures += cmd.check(self.out)
        except (OSError, KeyError, ValueError, TypeError, IndexError, AttributeError) as exc:
            failures.append(f"output check raised {exc!r}")
        return failures

    def _digest(self, path: Path, cache: bool) -> tuple:
        if not cache:
            return _sha256_rows(path)
        stat = path.stat()
        key = (str(path), stat.st_mtime_ns, stat.st_size)
        if key not in self._input_cache:
            self._input_cache[key] = _sha256_rows(path)
        return self._input_cache[key]

    def import_probe(self) -> float:
        walls = [
            spawn([sys.executable, "-m", "balancegrowth.cli", "--version"], self.out, self.env, self.deadline).wall_s
            for _ in range(IMPORT_PROBES)
        ]
        return statistics.median(walls)


def end_to_end(chains, setup_times) -> dict:
    """Per-chain means over the run, and the median set-up.

    Chains are averaged rather than medianed: the machine's speed flips
    between two modes about 1.4x apart on a scale of seconds, and the
    median of three or four chains flips with it.
    """
    return {
        "wall_s": (statistics.fmean(c.wall_s for c in chains), "s"),
        "rows_per_s": (sum(c.rows for c in chains) / sum(c.wall_s for c in chains), "rows/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (statistics.fmean(max(p.maxrss_mb for p in c.commands) for c in chains), "MB"),
    }


def per_layer(runner: Runner, plain: Chain, traced_chain: Chain) -> dict:
    layer = traced.layer_metrics(sorted(runner.spans.glob("*.json")))
    walls = {cmd.label: proc.wall_s for cmd, proc in zip(runner.commands, plain.commands)}
    for label in workloads.COMMAND_LABELS:
        layer[f"cli.{label}.wall_s"] = walls.get(label, 0.0)
    layer["cli.import_s"] = runner.import_probe()
    layer["trace.overhead_s"] = traced_chain.wall_s - plain.wall_s
    return {name: (value, _unit(name)) for name, value in layer.items()}


def _unit(name: str) -> str:
    if name.endswith("rows_per_s"):
        return "rows/s"
    if name.endswith("user_steps_per_s"):
        return "1/s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("ms_per_threshold"):
        return "ms"
    if name.endswith("us_per_rank_rep"):
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def report(workload: str, commands, chains, metrics: dict, failures: list, attempted: int, failed: int):
    print(f"workload {workload}: {len(chains)} chain(s) of {len(commands)} commands; mean wall time per command:")
    for i, cmd in enumerate(commands):
        wall = statistics.fmean(c.commands[i].wall_s for c in chains)
        print(f"  {cmd.label + '_s':40s} {wall:14.6g} s    balancegrowth {' '.join(Path(a).name for a in cmd.args)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'error_rate':40s} {failed / attempted if attempted else 1.0:14.6g} ratio ({failed} of {attempted} operations failed)")
    for message in failures:
        print(f"  FAILED {message}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "balancegrowth" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'balancegrowth'}; run from the root of a checkout", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(args.workload, args.seed, work, deadline=started + 175.0)
    setup_times = runner.prepare()

    chains = []
    if args.trace:
        chains.append(runner.chain())
        chains.append(runner.chain(trace=True))
        metrics = per_layer(runner, chains[0], chains[1])
    else:
        measure_start = time.perf_counter()
        while True:
            chains.append(runner.chain())
            elapsed = time.perf_counter() - measure_start
            projected = time.monotonic() - started + chains[-1].wall_s
            if elapsed >= args.seconds or projected > BUDGET_S:
                break
        metrics = end_to_end(chains, setup_times)

    failures = [f"{label}: {msg}" for c in chains for label, msgs in c.failures.items() for msg in msgs]
    failed = sum(1 for c in chains for msgs in c.failures.values() if msgs)
    attempted = sum(len(c.commands) for c in chains)
    report(args.workload, runner.commands, chains, metrics, failures, attempted, failed)
    if not failures:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
