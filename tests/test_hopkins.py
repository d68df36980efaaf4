import numpy as np
import pytest
from scipy import stats

from balancegrowth import InsufficientDataError, hopkins_test
from balancegrowth.panel import hopkins_pvalue


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


def test_log_scale_variant_handles_negative_changes(rng):
    s0 = rng.lognormal(18.0, 2.0, size=400)
    ds = rng.normal(0.0, 1.0, size=400) * s0
    pts = np.column_stack([s0, ds])
    h = hopkins_test(pts, 50, seed=1, log_scale=True).statistic
    assert 0.0 <= h <= 1.0


def test_median_statistic_gives_half_pvalue():
    assert hopkins_pvalue(0.5, 100) == pytest.approx(0.5, abs=1e-12)


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

