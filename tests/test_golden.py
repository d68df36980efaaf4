"""Golden outputs: the sha256 of every data file the CLI writes on small fixtures.

Every subcommand runs once on seeded inputs. CSV outputs are hashed as
written. Result JSONs are hashed with their `run_id` line removed,
because the run id hashes the parameter echo and the program version.
Manifests are not hashed: they record wall time. A change that alters
an output on purpose updates its digest here and gives the reason in
CHANGES.md.
"""

import hashlib
import json
import re
from pathlib import Path

import numpy as np

from balancegrowth.cli import main

CONFIGS = {
    "gbm": """model = gbm
n_users = 3000
seed = 11
horizon_days = 30
t0_date = 2016-01-23
s0_law = lognormal
s0_m = 18.0
s0_v = 2.0
mu = 0.001
sigma = 0.02
""",
    "pow": """model = power
n_users = 3000
seed = 12
horizon_days = 20
step_days = 2
emit_days = 0,10,20
s0_law = pareto
s0_alpha = 2.2
s0_xmin = 1e5
alpha_drift = 0.9
mu = 0.002
alpha_vol = 0.9
sigma = 0:0.01,20:0.005
""",
    "two": """model = two_regime
n_users = 20000
seed = 13
horizon_days = 28
step_days = 1
emit_days = 0,7,14,21,28
s0_law = lognormal
s0_m = 23.03
s0_v = 2.3
s_star = 1e10
regime_mode = initial
poor_alpha_drift = 0.8
poor_mu = 0.003
poor_alpha_vol = 0.8
poor_sigma = 0.0002
wealthy_alpha_drift = 1.05
wealthy_mu = -0.002
wealthy_alpha_vol = 0.9
wealthy_sigma = 0.001
""",
    # `current` mode: users cross s_star both ways, the poor volatility absorbs some at 0, and 47 overflow
    "cur": """model = two_regime
n_users = 4000
seed = 14
horizon_days = 12
step_days = 1
emit_days = 0,6,12
s0_law = lognormal
s0_m = 20.0
s0_v = 3.0
s_star = 5e8
poor_alpha_drift = 0.9
poor_mu = 0.004
poor_alpha_vol = 0.6
poor_sigma = 100
wealthy_alpha_drift = 1.4
wealthy_mu = 1e-5
wealthy_alpha_vol = 0.95
wealthy_sigma = 0.2
""",
}

GOLDEN = {
    "abs.absfits.json": "643b2bae716fad788f1777d594d43cf4d64b34e470ae385799136678a5826599",
    "abs.bins.csv": "39b7ba0d28a7e03769eabb46e264709d204812612e64c2de90b001a3483667f8",
    "est.bins.csv": "04fdd0f738a4c88932f434665449e64fb5a53a6d82bad491ff0d9494d3b012e4",
    "est.fitlines.csv": "067674d7f535175d70bba9e343c212e83063431a3969192fb975506424a91166",
    "est.regimes.json": "f0f1dd328783253ed82c14b01c17c2db4aa8a6bf7191aec6924d39c996fbf4bd",
    "joined.csv": "73f29fca8029970498239e1899f7e6a0ee35dd84426df0238a62d23cfac97283",
    "joined.taxonomy.json": "5a1f790208d95b1d0f27dce8698645f83c16eb6011b2a0666f462f29eaf52f36",
    "sim/cur/cur.panel.csv": "3fc82ac8ecf96fa2ba4128acecccf68751798c9253321db4d56ed84da19586c1",
    "sim/cur/cur.snapshot_2000-01-01.csv": "90a1180356f8b3fc4b85d73216ce4bc255c6288a9518259da6c087ba1b52ede0",
    "sim/cur/cur.snapshot_2000-01-07.csv": "e325c1200a9d6210db54a87cc8e56e55ef3495dddbb0ef72382b3b409249f846",
    "sim/cur/cur.snapshot_2000-01-13.csv": "e5d28d8556fbad6f6ac1031177258e60fa97b7ea4396d6a3c060e1dd99b915e9",
    "sim/gbm/gbm.panel.csv": "aa047926e1be2aeeb047c4176aa6f8b32ce8c3b8fe363617bdffb1c8349e4632",
    "sim/gbm/gbm.snapshot_2016-01-23.csv": "1facfb2a33016ad7f2f051581fef8f066384f48b7016fd22464e5cda675d9f0a",
    "sim/gbm/gbm.snapshot_2016-02-22.csv": "33c34c866c04bd8919cc91061fcfa17e344ec0dad02c9c69061ed00e2122dc34",
    "sim/pow/pow.panel.csv": "86180947d508dd9e8a4785c2d0f5f4111fedb366a5b8174a2e4b3c381b1d0583",
    "sim/pow/pow.snapshot_2000-01-01.csv": "2532e94bada7f94a964c1c54e4ba3802fa4746532fd734831ac8d38e81f213e2",
    "sim/pow/pow.snapshot_2000-01-11.csv": "5749b889845850db07c53750a5028c37b0ff4dcacd1edc6318f32727fb2ea8a5",
    "sim/pow/pow.snapshot_2000-01-21.csv": "90c0ad88a0331ab0f5db05844bdb3cc05403a7894e9517774cae358910a5e2e9",
    "sim/two/two.panel.csv": "73f29fca8029970498239e1899f7e6a0ee35dd84426df0238a62d23cfac97283",
    "sim/two/two.snapshot_2000-01-01.csv": "a8915fb0be1f9176357880f5c8e0c7643a26463907835060d1ef654f948bff77",
    "sim/two/two.snapshot_2000-01-08.csv": "1e56d2f67ae3586d3fbdd631858d2f36786a334e376c0349b774452424da0b3d",
    "sim/two/two.snapshot_2000-01-15.csv": "ef69281dc2a8ddb8bbb13a7dbaa79acf560c67c2a352fdc585ea9cd182df49f0",
    "sim/two/two.snapshot_2000-01-22.csv": "7c49577746bb998543da9217c7f944c551c01bbdb174e5a7cd94f05fa9a20e32",
    "sim/two/two.snapshot_2000-01-29.csv": "9ec23d6bacfdf749cdf3625f0921495e8216db9337883d275b2f1cfa882414b8",
    "small.csv": "6db6eb7877efbad61844fc12bb1563841a33890adbf253f3ddcafbd6f5ef1c61",
    "small.taxonomy.json": "724cfe90cd2b8ff352bbe2c6d2f7fecff6d32b73a2edcdc326f503c260d9dd69",
    "sw.horizon.json": "2d226d24cfb1360eaf1944e0881f5bbb27768bb175bbc60dd2637ad7a54dcbfc",
    "sw.series.csv": "6642090752fb6c19086cebc8ba78292814c16acf7ec910934d125630b219bdc6",
    "sw.trends.csv": "1f482f4a83b09396f05811ceb857aed655bcce7363059cc0cc6c2fb0cdb4d764",
    "vals.comparison.json": "dbef8587519f484fe52f7310793240309acc627dd48c7fa7f25988f52d6e263c",
    "vals.curves.csv": "f5c8e40f283e6f8b5491cca513607db5c807c6033b90e70a1c54a5261b26820b",
    "vals.hist.csv": "0223f46c2dcaba70f8d919548beecb496b404f8df3930e62cd084ef21f240c1b",
    "vals.log_normal.json": "6d26cf0e4e52db80692d87a0292af0a380c9d25fcae6da5ed07c438bdfcb256c",
    "vals.power_law.json": "d68e0a91547da3bb088b7a8d09e46542bb296eeb77ae0c4f049280a2c3ff9985",
    "vals.threshold_sweep.csv": "f65fc151f63509cd7ef19f8f4f0a4f100c2b508453c316e175aa632af8358b37",
    "vals.umpu_sweep.csv": "c0db52225bf427bd760c641fe7eda2c367c9912a0d37a17064012249f363950e",
}

SNAP0 = "user_id,balance\nalice,500000000\nbob,120000\ncarol,0\ndave,30000000\n"
SNAP1 = "user_id,balance\nalice,500000000\nbob,0\ndave,45000000\nerin,7000000\n"

_RUN_ID = re.compile(rb'\n *"run_id": "[0-9a-f]*",?')


def _run_pipeline(root: Path):
    for name, text in CONFIGS.items():
        (root / f"{name}.cfg").write_text(text, encoding="utf-8")
        assert main(["simulate", f"{name}.cfg", name, "--out", f"sim/{name}", "--quiet"]) == 0
    values = np.random.default_rng(5).lognormal(16.0, 1.5, size=1500).astype(np.int64)
    (root / "a.csv").write_text(SNAP0, encoding="utf-8")
    (root / "b.csv").write_text(SNAP1, encoding="utf-8")
    (root / "vals.csv").write_text(
        "user_id,balance\n" + "".join(f"u{i},{v}\n" for i, v in enumerate(values)), encoding="utf-8"
    )
    commands = [
        ["panel", "sim/two/two.snapshot_2000-01-01.csv", "sim/two/two.snapshot_2000-01-29.csv",
         "joined.csv", "--filter-active", "--hopkins-m", "50", "--seed", "7"],
        ["panel", "a.csv", "b.csv", "small.csv", "--date0", "2016-01-23", "--date1", "2016-02-20",
         "--filter-active"],
        ["fit", "vals.csv", "--sweep-start", "1000000", "--sweep-step", "1000000",
         "--umpu", "--mc-reps", "100", "--hist-bins", "30", "--seed", "7"],
        ["estimate", "sim/two/two.panel.csv", "est", "--bins", "60", "--min-count", "30"],
        ["estimate", "sim/pow/pow.panel.csv", "abs", "--target", "absolute", "--bins", "40",
         "--min-count", "30"],
        ["sweep", "sim/two", "--t0", "2000-01-01", "--dts", "7,14,21,28", "--prefix", "sw",
         "--bins", "60", "--min-count", "30"],
    ]
    for args in commands:
        assert main([*args, "--quiet"]) == 0, args


def _digests(root: Path) -> dict:
    inputs = {"a.csv", "b.csv", "vals.csv", *(f"{name}.cfg" for name in CONFIGS)}
    out = {}
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root).as_posix()
        if not path.is_file() or rel in inputs or path.name.endswith("manifest.json"):
            continue
        data = path.read_bytes()
        if path.suffix == ".json":
            data = _RUN_ID.sub(b"", data)
        out[rel] = hashlib.sha256(data).hexdigest()
    return out


def test_golden_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _run_pipeline(tmp_path)
    assert _digests(tmp_path) == GOLDEN


def test_estimate_split_equals_sweep_horizon(tmp_path, monkeypatch):
    """`estimate` on the t0 -> t0+28 panel and `sweep` at dt 28 share one stage: their splits agree key by key."""
    monkeypatch.chdir(tmp_path)
    _run_pipeline(tmp_path)
    estimate = json.loads(Path("est.regimes.json").read_text())
    (split,) = [e["split"] for e in json.loads(Path("sw.horizon.json").read_text())["entries"] if e["dt_days"] == 28]
    shared = estimate.keys() & split.keys()
    assert shared >= {"s_star", "poor", "wealthy", "sign_pattern", "settings"}
    for key in shared:
        assert estimate[key] == split[key], key
