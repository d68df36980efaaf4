"""Golden outputs: the sha256 of every data file the CLI writes on small fixtures.

Every subcommand runs once on seeded inputs. CSV outputs are hashed as
written. Result JSONs are hashed with their `run_id` line removed,
because the run id hashes the parameter echo and the program version.
Manifests are not hashed: they record wall time. A change that alters
an output on purpose updates its digest here and gives the reason in
CHANGES.md.
"""

import hashlib
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
}

GOLDEN = {
    "abs.absfits.json": "e5d9a40d23f6ee7f5b3df8bf64903e354bbe991315a6199320e9b258d79c1b38",
    "abs.bins.csv": "39b7ba0d28a7e03769eabb46e264709d204812612e64c2de90b001a3483667f8",
    "est.bins.csv": "04fdd0f738a4c88932f434665449e64fb5a53a6d82bad491ff0d9494d3b012e4",
    "est.fitlines.csv": "d5819e599c5f7a7e31519c312df8e600cdd7b28d8f567f240c36e3df7067daa8",
    "est.regimes.json": "032ea83c5908a65a20c2d7e6f182cb06fa8ca91d93a29de370f09b563a27acbc",
    "joined.csv": "73f29fca8029970498239e1899f7e6a0ee35dd84426df0238a62d23cfac97283",
    "joined.taxonomy.json": "eb959b8132d67cc108eab5451894abc968d6dc8cde9d6af321a0edcebd1ef91d",
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
    "small.taxonomy.json": "d76133a347a788272242528955366733cda66bc7883c27faf7cfbc8554901a3a",
    "sw.horizon.json": "466c183efc4acd79f8b985cdbc83cfdfd2a5b0cd6d36ed4381287916a5cd98ec",
    "sw.series.csv": "a02ce3577b387bd4a0cfb5b4ccfc2412d6432483b357e5c89ae6a3e6ceb52d27",
    "sw.trends.csv": "4a167fee37a6e22f2b18732af891bb5fc4a79cb27e933121f96832ca5b33fcd7",
    "vals.comparison.json": "3cf0a68186e5d96fb5509e3b24bf203ce6b21c99de39efa8644bc2bd054f69a2",
    "vals.curves.csv": "94a8b1d1baeae61be4b2e3eda8f88876ab71b376ae6ee7def0b7b3cf714e9782",
    "vals.hist.csv": "0223f46c2dcaba70f8d919548beecb496b404f8df3930e62cd084ef21f240c1b",
    "vals.log_normal.json": "499abf7b31d2939e4abb7f8de271e514c1ab361e85c05c5ba7fb7b12a27a92c6",
    "vals.power_law.json": "d68e0a91547da3bb088b7a8d09e46542bb296eeb77ae0c4f049280a2c3ff9985",
    "vals.threshold_sweep.csv": "4a89d865b03c20cee2189e85579b540afb1371f4917f61bd3e1d97db9636452b",
    "vals.umpu_sweep.csv": "c86c83d8abddca9f78e665fde214a2e2617a7aae05a3e9816b29037defc9cdcd",
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
