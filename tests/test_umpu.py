import numpy as np
import pytest
from scipy import stats

from balancegrowth import InsufficientDataError, MalformedInputError, tails, umpu_sweep, umpu_wilks
from balancegrowth._rng import substream


def exp_tail_data(rng, n, scale=0.7, threshold=50.0):
    """Power-law tail above `threshold`: exactly exponential after the log map."""
    return threshold * np.exp(rng.exponential(scale, size=n))


def test_wilks_statistic_non_negative(rng):
    for seed in range(10):
        local = np.random.default_rng(seed)
        data = exp_tail_data(local, 500)
        r = umpu_wilks(data, 50.0, mc_reps=50, seed=seed)
        assert r.wilks_w >= 0.0


def test_order_statistic_medians_not_extreme():
    # a perfectly exponential-shaped tail must not reject
    n = 1000
    q = (np.arange(n) + 0.5) / n
    y = -np.log1p(-q) * 0.8
    data = 100.0 * np.exp(y)
    r = umpu_wilks(data, 100.0, mc_reps=1000, seed=3)
    assert 0.05 < r.p_value <= 1.0


def test_pvalues_uniform_under_exponential_null():
    ps = []
    for seed in range(200):
        rng = np.random.default_rng(30_000 + seed)
        r = umpu_wilks(exp_tail_data(rng, 1000), 50.0, mc_reps=1000, seed=seed)
        ps.append(r.p_value)
    assert stats.kstest(ps, "uniform").statistic < 0.1


def test_power_against_lognormal_tails():
    rejections = 0
    for seed in range(40):
        rng = np.random.default_rng(40_000 + seed)
        x = rng.lognormal(3.0, 1.2, size=9000)
        threshold = float(np.quantile(x, 0.4))
        r = umpu_wilks(x, threshold, mc_reps=1000, seed=seed)
        assert r.n_tail >= 5000
        rejections += r.p_value < 0.05
    assert rejections >= 36


def test_tens_of_largest_rarely_reject():
    # under the power-law null tiny tails stay wide
    rejections = 0
    for seed in range(40):
        rng = np.random.default_rng(60_000 + seed)
        r = umpu_wilks(exp_tail_data(rng, 30), 50.0, mc_reps=400, seed=seed)
        rejections += r.p_value < 0.05
    assert rejections <= 8


def test_bootstrap_deterministic(rng):
    data = exp_tail_data(rng, 300)
    a = umpu_wilks(data, 50.0, mc_reps=400, seed=11)
    b = umpu_wilks(data, 50.0, mc_reps=400, seed=11)
    c = umpu_wilks(data, 50.0, mc_reps=400, seed=12)
    assert a.p_value == b.p_value and a.wilks_w == b.wilks_w
    # the statistic depends on the data alone; only the bootstrap draws reseed
    assert c.wilks_w == a.wilks_w


def test_asymptotic_path_flags_method_and_tracks_bootstrap():
    rng = np.random.default_rng(5)
    x = rng.lognormal(3.0, 1.0, size=4000)
    threshold = float(np.quantile(x, 0.5))
    mc = umpu_wilks(x, threshold, mc_reps=1000, seed=0, method="monte_carlo")
    asym = umpu_wilks(x, threshold, method="asymptotic")
    assert mc.method == "monte_carlo" and asym.method == "asymptotic"
    assert mc.p_value < 0.05 and asym.p_value < 0.05
    # moderate case: the two paths agree loosely where the statistic is interior
    diffs = []
    for seed in range(30):
        local = np.random.default_rng(90_000 + seed)
        data = exp_tail_data(local, 800)
        a = umpu_wilks(data, 50.0, mc_reps=800, seed=seed)
        b = umpu_wilks(data, 50.0, method="asymptotic")
        if b.wilks_w > 0.05:
            diffs.append(abs(a.p_value - b.p_value))
    assert diffs and float(np.median(diffs)) < 0.1


def test_too_small_tail_rejected(rng):
    with pytest.raises(InsufficientDataError):
        umpu_wilks(exp_tail_data(rng, 9), 50.0)


@pytest.mark.parametrize("mc_reps", [0, -1])
def test_monte_carlo_needs_a_replicate(rng, mc_reps):
    data = exp_tail_data(rng, 40)
    with pytest.raises(MalformedInputError, match="mc_reps"):
        umpu_wilks(data, 50.0, mc_reps=mc_reps)
    with pytest.raises(MalformedInputError, match="mc_reps"):
        umpu_sweep(data, mc_reps=mc_reps)
    # the asymptotic path draws no replicates, so mc_reps does not matter there
    assert umpu_wilks(data, 50.0, mc_reps=mc_reps, method="asymptotic").method == "asymptotic"


def test_unknown_method_refused(rng):
    data = exp_tail_data(rng, 40)
    with pytest.raises(MalformedInputError, match="unknown p-value method: 'exact'"):
        umpu_wilks(data, 50.0, method="exact")
    with pytest.raises(MalformedInputError, match="unknown p-value method: 'exact'"):
        umpu_sweep(data, method="exact")


class TestSweep:
    def test_minimal_sweep_single_result(self, rng):
        data = exp_tail_data(rng, 10)
        results = umpu_sweep(data, mc_reps=50, seed=0)
        assert len(results) == 1
        assert results[0].rank == 10
        assert results[0].n_tail == 10

    def test_thresholds_non_increasing(self, rng):
        data = exp_tail_data(rng, 60)
        results = umpu_sweep(data, mc_reps=20, seed=0)
        thresholds = [r.threshold for r in results]
        assert all(a >= b for a, b in zip(thresholds, thresholds[1:]))
        assert [r.rank for r in results] == list(range(10, 61))

    def test_lognormal_rejects_beyond_small_head(self):
        rng = np.random.default_rng(3)
        x = rng.lognormal(3.0, 1.2, size=1000)
        results = umpu_sweep(x, mc_reps=200, seed=12)
        tail_results = [r for r in results if r.rank >= 150]
        assert tail_results
        assert all(r.p_value < 0.05 for r in tail_results)

    def test_requires_min_rank_points(self, rng):
        with pytest.raises(InsufficientDataError):
            umpu_sweep(exp_tail_data(rng, 5))


def bootstrap_reference(data, threshold, mc_reps, seed):
    """The Monte Carlo p-value as a loop over replicates, one substream each."""
    y = np.log(data[data > threshold] / threshold)
    n = y.size
    ratio = np.mean(y * y) / y.mean() ** 2
    count = 0
    for rep in range(mc_reps):
        z = substream(seed, rep).exponential(y.mean(), size=n)
        count += n * np.dot(z, z) / z.sum() ** 2 <= ratio
    return (1.0 + count) / (mc_reps + 1.0)


class TestSharedReplicates:
    def test_single_test_matches_replicate_loop(self):
        for seed in range(5):
            data = exp_tail_data(np.random.default_rng(70_000 + seed), 200)
            r = umpu_wilks(data, 50.0, mc_reps=300, seed=seed)
            assert 0.01 < r.p_value == bootstrap_reference(data, 50.0, 300, seed)

    @pytest.mark.parametrize("ties", [False, True])
    def test_sweep_ranks_match_single_threshold_test(self, ties):
        data = exp_tail_data(np.random.default_rng(8), 80, scale=1.0, threshold=5.0)
        if ties:
            data = np.floor(data)
        for r in umpu_sweep(data, mc_reps=300, seed=5):
            single = umpu_wilks(data, r.threshold, mc_reps=300, seed=5)
            assert (single.p_value, single.n_tail) == (r.p_value, r.n_tail)
            assert single.wilks_w == pytest.approx(r.wilks_w, rel=1e-11, abs=1e-12)

    def test_partial_last_block_matches_single_block(self, monkeypatch):
        rng = np.random.default_rng(10)
        data = exp_tail_data(rng, 60)
        whole = umpu_sweep(data, mc_reps=101, seed=2)
        monkeypatch.setattr(tails, "_REP_BLOCK", 7 * data.size)  # blocks of 7 replicates
        blocked = umpu_sweep(data, mc_reps=101, seed=2)
        assert [r.p_value for r in blocked] == [r.p_value for r in whole]

    def test_rerun_identical(self, rng):
        data = exp_tail_data(rng, 70)
        a = umpu_sweep(data, mc_reps=150, seed=4)
        b = umpu_sweep(data, mc_reps=150, seed=4)
        assert a == b
