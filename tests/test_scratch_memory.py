"""Scratch-memory guards: the traced allocation peak of a snapshot read and of a join, each against
the size of what it returns, on 250,000 shuffled address-like ids."""

import datetime as dt
import tracemalloc

import numpy as np
import pytest

from balancegrowth import build_panel
from balancegrowth.io import read_snapshot_csv, write_csv

N_ROWS = 250_000
BASE58 = np.frombuffer(b"123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz", dtype=np.uint8)
READ_PEAK_PER_FILE_BYTE = 3.3
JOIN_PEAK_PER_PANEL_BYTE = 1.7


def _addresses(rng, n: int) -> np.ndarray:
    """n distinct ids of a leading 1 and 21 random base58 characters, in random order."""
    codes = BASE58[rng.integers(0, BASE58.size, size=(n, 22))]
    codes[:, 0] = ord("1")
    ids = np.unique(codes.view("S22").ravel())
    return ids[rng.permutation(ids.size)]


def _traced_peak(call):
    """`call()` and the peak of its traced allocations above what was allocated before it."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def snapshot_files(tmp_path_factory):
    """Two snapshot files of 250,000 rows each, rows in random order; 10,000 users leave and 10,000 enter."""
    rng = np.random.default_rng(20160123)
    pool = _addresses(rng, N_ROWS + 10_000)
    directory = tmp_path_factory.mktemp("snaps")
    paths = []
    for k, ids in enumerate((pool[:N_ROWS], pool[-N_ROWS:])):
        path = directory / f"snap_2016-0{k + 1}-01.csv"
        write_csv(path, {"user_id": ids, "balance": rng.integers(0, 10**12, size=ids.size)})
        paths.append(path)
    return paths


def test_read_peak_within_bound_of_file_size(snapshot_files):
    path = snapshot_files[0]
    snap, peak = _traced_peak(lambda: read_snapshot_csv(path))
    assert snap.n_users == N_ROWS
    assert peak <= READ_PEAK_PER_FILE_BYTE * path.stat().st_size


def test_join_peak_within_bound_of_panel_size(snapshot_files):
    snaps = [read_snapshot_csv(path) for path in snapshot_files]
    panel, peak = _traced_peak(lambda: build_panel(*snaps))
    assert panel.n_rows == N_ROWS + 10_000
    assert peak <= JOIN_PEAK_PER_PANEL_BYTE * (panel.user_ids.nbytes + panel.s0.nbytes + panel.s1.nbytes)
