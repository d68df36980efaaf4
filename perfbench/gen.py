"""Seeded inputs for the benchmark workloads, with the truth planted in them.

Everything here is a pure function of the seed; the program under test
is never imported. Snapshots look like chain data rather than simulator
output: address-like user ids written in shuffled order, a stated mix of
holders, entries from zero and full sell-outs, and a planted two-regime
drift (the poor accumulate, the wealthy divest). Tail samples carry a
planted Pareto tail above a known cutoff.
"""

import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

T0 = dt.date(2016, 1, 23)
STEP_DAYS = 28
N_STEPS = 3  # snapshots at t0 + 0, 28, 56, 84 days

# population mix at t0: active users trade every step and holders never
# do; entrants appear from zero at a random step and then hold; sell-outs
# trade until they empty their address at step 2 or later. A sell-out row
# has ds/s0 = -1 and stays in group A, so a sell-out in the first step
# would swamp the planted volatility of the (t0, t0 + STEP_DAYS) panel.
MIX = {"active": 0.65, "holder": 0.25, "sellout": 0.01, "entrant": 0.09}

# planted growth process dS = S^a_d mu dt + S^a_v sigma dW, mu per day and
# sigma per sqrt-day, regime chosen by the current balance against S_STAR
S_STAR = 1e7
POOR = {"alpha_drift": 0.9, "mu": 5e-3, "alpha_vol": 0.95, "sigma": 0.01}
WEALTHY = {"alpha_drift": 1.1, "mu": -5e-4, "alpha_vol": 1.0, "sigma": 0.005}
S0_LOG_MEDIAN = math.log(1e6)
S0_LOG_SD = 2.5
# Trading balances at t0 span exactly [S0_FLOOR, S0_CAP], so the
# estimator's default 300 geometric bins put S_STAR on a bin edge (edge
# 150) and no bin mixes the two regimes. Below S0_FLOOR, integer rounding
# would swamp the planted volatility.
S0_FLOOR = 1e4
S0_CAP = 1e10

# planted tail: log-normal body below TAIL_XMIN, Pareto(TAIL_ALPHA) above
TAIL_XMIN = 1e8
TAIL_ALPHA = 2.2
TAIL_SHARE = 0.2
BODY_LOG_MEDIAN = math.log(TAIL_XMIN / 30.0)
BODY_LOG_SD = 1.0

_BASE58 = np.frombuffer(b"123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz", dtype=np.uint8)
_ID_RANDOM = 17
_ID_INDEX = 4  # base58 digits of the user index; 58**4 > 1.1e7 users


def address_ids(rng: np.random.Generator, n: int) -> np.ndarray:
    """n distinct legacy-address-like ids: '1', 17 random base58 digits, then the index.

    The random part decides the sort order, so ids sorted by the program
    come out in an order unrelated to the generation order.
    """
    if n > 58**_ID_INDEX:
        raise ValueError(f"at most {58**_ID_INDEX} ids, asked for {n}")
    digits = np.empty((n, 1 + _ID_RANDOM + _ID_INDEX), dtype=np.uint8)
    digits[:, 0] = ord("1")
    digits[:, 1 : 1 + _ID_RANDOM] = _BASE58[rng.integers(0, 58, size=(n, _ID_RANDOM))]
    index = np.arange(n)
    for k in range(_ID_INDEX):
        digits[:, -1 - k] = _BASE58[index % 58]
        index //= 58
    return digits.view(f"S{digits.shape[1]}").ravel().astype(object)


def write_balances(path: Path, ids: np.ndarray, balances: np.ndarray, rng: np.random.Generator):
    """Snapshot CSV (`user_id,balance`) with rows in shuffled order."""
    order = rng.permutation(ids.size)
    body = b"".join(b"%s,%d\n" % pair for pair in zip(ids[order].tolist(), balances[order].tolist()))
    path.write_bytes(b"user_id,balance\n" + body)


def snapshot_name(day: int) -> str:
    return f"snap_{(T0 + dt.timedelta(days=day)).isoformat()}.csv"


def _lognormal_within(rng, n, log_median, log_sd, lo, hi):
    out = np.empty(0)
    while out.size < n:
        draw = rng.lognormal(log_median, log_sd, size=n)
        out = np.concatenate([out, draw[(draw >= lo) & (draw < hi)]])
    return out[:n]


def _euler_step(rng, s: np.ndarray) -> np.ndarray:
    """One STEP_DAYS Euler step of the planted process on integer balances.

    The result stays a positive integer and always differs from the input,
    so every trading user lands in the interior of the (s0, ds) scatter.
    """
    x = s.astype(np.float64)
    wealthy = x >= S_STAR
    h = float(STEP_DAYS)
    drift = np.where(
        wealthy, x ** WEALTHY["alpha_drift"] * WEALTHY["mu"] * h, x ** POOR["alpha_drift"] * POOR["mu"] * h
    )
    vol = np.where(
        wealthy,
        x ** WEALTHY["alpha_vol"] * WEALTHY["sigma"] * math.sqrt(h),
        x ** POOR["alpha_vol"] * POOR["sigma"] * math.sqrt(h),
    )
    new = np.maximum(np.floor(x + drift + vol * rng.standard_normal(s.size) + 0.5).astype(np.int64), 1)
    return np.where(new == s, s + 1, new)


@dataclass(frozen=True)
class SnapshotTruth:
    """What the generator planted in a snapshot directory."""

    n_rows: list  # data rows per snapshot file, in date order
    taxonomy: dict  # exact scatter counts of the (t0, t0 + STEP_DAYS) panel
    removed_horizontal: int
    removed_zero_start: int


def write_snapshots(directory: Path, n_users: int, seed: int) -> SnapshotTruth:
    """N_STEPS + 1 dated snapshots of a population of n_users addresses."""
    rng = np.random.default_rng([seed, 1])
    ids = address_ids(rng, n_users)
    kinds = list(MIX)
    kind = rng.choice(len(kinds), size=n_users, p=list(MIX.values()))
    trades = (kind == kinds.index("active")) | (kind == kinds.index("sellout"))
    holder = kind == kinds.index("holder")
    entrant = kind == kinds.index("entrant")
    sellout = kind == kinds.index("sellout")
    entry_step = rng.integers(1, N_STEPS + 1, size=n_users)
    sellout_step = rng.integers(2, N_STEPS + 1, size=n_users)

    balance = np.zeros(n_users, dtype=np.int64)
    start = np.floor(_lognormal_within(rng, n_users, S0_LOG_MEDIAN, S0_LOG_SD, S0_FLOOR, S0_CAP)).astype(np.int64)
    start[np.flatnonzero(trades)[:2]] = [S0_FLOOR, S0_CAP]
    balance[~entrant] = start[~entrant]
    entry_balance = start.copy()

    n_rows = []
    for step in range(N_STEPS + 1):
        if step:
            balance[trades] = _euler_step(rng, balance[trades])
            balance[sellout & (sellout_step == step)] = 0
            arriving = entrant & (entry_step == step)
            balance[arriving] = entry_balance[arriving]
        present = balance > 0
        write_balances(directory / snapshot_name(step * STEP_DAYS), ids[present], balance[present], rng)
        n_rows.append(int(np.count_nonzero(present)))

    vertical = int(np.count_nonzero(entrant & (entry_step == 1)))
    horizontal = int(np.count_nonzero(holder))
    return SnapshotTruth(
        n_rows=n_rows,
        taxonomy={
            "vertical": vertical,
            "horizontal": horizontal,
            "diagonal": 0,
            "interior": int(np.count_nonzero(trades)),
        },
        removed_horizontal=horizontal,
        removed_zero_start=vertical,
    )


def tail_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Integer satoshi balances: log-normal body below TAIL_XMIN, Pareto tail above it."""
    n_tail = int(round(TAIL_SHARE * n))
    body = _lognormal_within(rng, n - n_tail, BODY_LOG_MEDIAN, BODY_LOG_SD, 1.0, TAIL_XMIN)
    tail = TAIL_XMIN * (1.0 - rng.random(n_tail)) ** (-1.0 / (TAIL_ALPHA - 1.0))
    values = np.floor(np.concatenate([body, tail])).astype(np.int64)
    return values[rng.permutation(n)]


def top_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """The n largest balances of a planted Pareto tail, made distinct.

    Distinct values make the rank sweep test exactly n - 9 ranks.
    """
    draws = np.sort(np.floor(TAIL_XMIN * (1.0 - rng.random(n)) ** (-1.0 / (TAIL_ALPHA - 1.0))))
    values = draws.astype(np.int64)
    values += np.arange(n)  # strictly increasing, still heavy-tailed
    return values[rng.permutation(n)]


def write_values(path: Path, values: np.ndarray, seed: int):
    rng = np.random.default_rng([seed, 2])
    write_balances(path, address_ids(rng, values.size), values, rng)
