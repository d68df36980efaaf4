"""The Hopkins statistic, its p-value, and the exact nearest-neighbour search under it.

The search is checked against a loop and against scipy's KD-tree, which
it replaced: squared distances equal, bit for bit.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.spatial import cKDTree

from balancegrowth import InsufficientDataError, MalformedInputError, build_panel, filter_active, hopkins_test
from balancegrowth.io import read_snapshot_csv
from balancegrowth.panel import _NN_BLOCK, _BlockIndex, hopkins_pvalue

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_identical_points_maximal_clustering():
    pts = np.ones((50, 2))
    assert hopkins_test(pts, 10, seed=0).statistic == 1.0


def test_uniform_box_concentrates_near_half():
    inside = 0
    for seed in range(100):
        rng = np.random.default_rng(6000 + seed)
        pts = rng.uniform(0.0, 1.0, size=(10_000, 2))
        inside += 0.4 <= hopkins_test(pts, 100, seed).statistic <= 0.6
    assert inside >= 95


def test_separated_blobs_score_high():
    high = 0
    for seed in range(40):
        rng = np.random.default_rng(7000 + seed)
        a = rng.normal(0.0, 1.0, size=(5000, 2))
        b = rng.normal(20.0, 1.0, size=(5000, 2))
        high += hopkins_test(np.vstack([a, b]), 100, seed).statistic > 0.75
    assert high >= 38


def test_deterministic_to_the_last_bit(rng):
    pts = rng.normal(size=(500, 2))
    a = hopkins_test(pts, 40, seed=123).statistic
    b = hopkins_test(pts, 40, seed=123).statistic
    assert a == b
    assert hopkins_test(pts, 40, seed=124).statistic != a


def test_range_and_preconditions(rng):
    pts = rng.normal(size=(64, 2))
    for seed in range(20):
        assert 0.0 <= hopkins_test(pts, 32, seed).statistic <= 1.0
    with pytest.raises(InsufficientDataError):
        hopkins_test(pts, 33, seed=0)
    with pytest.raises(InsufficientDataError):
        hopkins_test(pts, 0, seed=0)


def test_median_statistic_gives_half_pvalue():
    assert hopkins_pvalue(0.5, 100) == pytest.approx(0.5, abs=1e-12)


def test_pvalue_takes_a_numpy_sample_size():
    # the binomial sum multiplies m by the exact fraction of h, which overflows int64
    for h in (1e-300, 0.3, 0.9):
        assert hopkins_pvalue(np.float64(h), np.int64(100)) == hopkins_pvalue(h, 100)


def test_pvalues_uniform_under_uniform_null():
    ps = []
    for seed in range(200):
        rng = np.random.default_rng(8000 + seed)
        pts = rng.uniform(0.0, 1.0, size=(10_000, 2))
        ps.append(hopkins_test(pts, 100, seed).p_value)
    assert stats.kstest(ps, "uniform").statistic < 0.1


def test_bimodal_data_rejects_strongly():
    rng = np.random.default_rng(42)
    a = rng.normal(0.0, 1.0, size=(4000, 2))
    b = rng.normal(25.0, 1.0, size=(4000, 2))
    result = hopkins_test(np.vstack([a, b]), 100, seed=9)
    assert result.p_value < 1e-3


# ---------------------------------------------------------------- the exact nearest-neighbour search


def _brute_nearest_sq(pts, queries, skip=None):
    """Squared distance from each query to its nearest row of `pts`, summed in coordinate order; a loop."""
    out = []
    for i, q in enumerate(queries):
        dist = 0.0
        for k in range(pts.shape[1]):
            dist = dist + (pts[:, k] - q[k]) ** 2
        if skip is not None:
            dist[skip[i]] = np.inf
        out.append(dist.min())
    return np.array(out)


def _check_search(pts, queries, sample):
    """The block search equals the loop bit for bit, and cKDTree's distances after the square root."""
    index = _BlockIndex(pts)
    u = index.nearest_sq(queries)
    w = index.nearest_sq(pts[sample], skip=sample)
    assert np.array_equal(u, _brute_nearest_sq(pts, queries))
    assert np.array_equal(w, _brute_nearest_sq(pts, pts[sample], skip=sample))
    tree = cKDTree(pts)
    assert np.array_equal(np.sqrt(u), tree.query(queries, k=1)[0])
    assert np.array_equal(np.sqrt(w), tree.query(pts[sample], k=2)[0][:, 1])
    return u, w


@st.composite
def _search_cases(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 3 * _NN_BLOCK + 7))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["normal", "lognormal", "grid", "line"]))
    if kind == "normal":
        pts = rng.normal(size=(n, d))
    elif kind == "lognormal":  # decades apart, as raw satoshi are
        pts = rng.lognormal(10.0, 4.0, size=(n, d)) * rng.choice([-1.0, 1.0], size=(n, d))
    elif kind == "grid":  # ties in every coordinate and exact duplicates
        pts = rng.integers(0, 6, size=(n, d)).astype(float)
    else:  # all on one line, so every box is flat in some coordinate
        pts = np.outer(rng.uniform(-1.0, 1.0, n), rng.normal(size=d))
    m = draw(st.integers(1, max(1, n // 2)))
    inside = rng.uniform(pts.min(axis=0), pts.max(axis=0), size=(m, d))
    outside = pts.max(axis=0) + rng.exponential(1.0, size=(3, d)) * (1 + np.ptp(pts, axis=0))
    return pts, np.vstack([inside, outside, -outside]), rng.choice(n, size=m, replace=False)


@given(_search_cases())
@settings(derandomize=True, max_examples=120, deadline=None)
def test_search_equals_brute_force_and_kdtree(case):
    _check_search(*case)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize(
    "n",
    # 2 is n = 2m with m = 1; the last packs 64 blocks, the last part full
    [2, 3, _NN_BLOCK - 1, _NN_BLOCK, _NN_BLOCK + 1, 5 * _NN_BLOCK + 123, 63 * _NN_BLOCK + 5],
)
def test_search_on_fixed_shapes(n, d):
    rng = np.random.default_rng(n * 10 + d)
    pts = rng.normal(size=(n, d))
    pts[: n // 3, 0] = 0.25  # a third of the rows tie in the first coordinate
    m = min(max(1, n // 2), 200)
    probes = np.vstack([rng.uniform(pts.min(axis=0), pts.max(axis=0), size=(m, d)), pts.max(axis=0) + 5.0])
    _check_search(pts, probes, rng.choice(n, size=m, replace=False))


def test_duplicate_point_is_at_distance_zero():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(2000, 2))
    pts[1500] = pts[7]  # each of rows 7 and 1500 has a twin elsewhere
    _, w = _check_search(pts, pts[:10], np.array([7, 1500, 3]))
    assert w[0] == 0.0 and w[1] == 0.0 and w[2] > 0.0


@pytest.mark.parametrize("n", [4, 1000, 2 * _NN_BLOCK])
def test_identical_or_collinear_points(n):
    same = np.full((n, 2), 3.5)
    _, w = _check_search(same, np.array([[3.5, 3.5], [0.0, 9.0]]), np.arange(n // 2))
    assert not w.any()
    line = np.column_stack([np.arange(n, dtype=float), np.full(n, -2.0)])  # zero height in every box
    _check_search(line, np.array([[0.5, -2.0], [n + 7.0, 1.0], [-3.0, -9.0]]), np.arange(0, n, 2))


def _sweep_read_points(tmp_path):
    """(s0, ds) of the filtered panel that the benchmark's sweep-read workload joins at seed 1."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.write_snapshots(tmp_path, 250_000, 1)
    snaps = [read_snapshot_csv(tmp_path / gen.snapshot_name(day)) for day in (0, gen.STEP_DAYS)]
    active = filter_active(build_panel(*snaps))
    return np.column_stack([active.s0, active.ds])


def test_statistic_on_the_benchmark_panel_is_unchanged(tmp_path):
    # the values the KD-tree search gave, to the last bit
    pts = _sweep_read_points(tmp_path)
    assert len(pts) == 165_057
    assert hopkins_test(pts, 100, seed=7).statistic == 0.999424566002396


def test_non_finite_points_refused():
    with pytest.raises(MalformedInputError, match="^points must be finite$"):
        hopkins_test(np.array([[0.0, 1.0], [np.nan, 2.0], [3.0, 4.0], [5.0, 6.0]]), 1, seed=0)
