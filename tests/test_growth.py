import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balancegrowth import (
    InsufficientDataError,
    MalformedInputError,
    NoRetainedBinsError,
    RegimeMixError,
    InitialLaw,
    RegimeParams,
    SimConfig,
    bin_moments,
    fit_drift_abs,
    fit_ratio,
    fit_vol_abs,
    horizon_sweep,
    make_bins,
    snapshot_series,
    split_regimes,
    trend_test,
)
from balancegrowth.cli import main
from balancegrowth.growth import DEFAULT_MIN_COUNT, DEFAULT_N_BINS, BinSeries
from balancegrowth.io import read_panel_csv
from balancegrowth.panel import filter_active

from conftest import panel_from_rows
from test_golden import CONFIGS


def constant_bins(centers, means, stds, counts=None, target="ratio"):
    centers = np.asarray(centers, dtype=np.float64)
    ratio = np.sqrt(centers[1] / centers[0]) if centers.size > 1 else 2.0
    return BinSeries(
        bin_lo=centers / ratio,
        bin_hi=centers * ratio,
        centers=centers,
        counts=np.asarray(counts if counts is not None else [100] * len(centers), dtype=np.int64),
        means=np.asarray(means, dtype=np.float64),
        stds=np.asarray(stds, dtype=np.float64),
        target=target,
    )


class TestMakeBins:
    def test_geometric_midpoint(self):
        assert make_bins(1.0, 100.0, 2) == pytest.approx([1.0, 10.0, 100.0])

    def test_defaults(self):
        assert DEFAULT_N_BINS == 300
        assert DEFAULT_MIN_COUNT == 50

    def test_constant_edge_ratio(self):
        edges = make_bins(17.0, 9.3e12, 300)
        ratios = edges[1:] / edges[:-1]
        assert np.max(np.abs(ratios / ratios[0] - 1.0)) < 1e-12

    def test_bad_bounds_rejected(self):
        with pytest.raises(MalformedInputError):
            make_bins(0.0, 10.0, 5)
        with pytest.raises(MalformedInputError):
            make_bins(10.0, 1.0, 5)


class TestBinMoments:
    def test_constant_ratio_exact(self):
        # power-of-two balances make ds/s0 bit-identical across rows
        rows = [
            (f"u{i}", 1.5 * 2.0**k, 1.5 * 2.0**k * 1.1)
            for i, k in enumerate(np.repeat(range(10, 14), 5))
        ]
        panel = panel_from_rows(rows)
        bins = bin_moments(panel, make_bins(2.0**10, 2.0**14, 4), min_count=2, target="ratio")
        expected = (1.5 * 1.1 - 1.5) / 1.5
        assert bins.n_bins == 4
        assert np.all(bins.means == expected)
        assert np.all(bins.stds == 0.0)

    def test_matches_bruteforce_oracle(self, rng):
        n = 5000
        s0 = rng.lognormal(10.0, 1.5, size=n)
        ds = s0 * rng.normal(0.02, 0.1, size=n)
        rows = [(f"u{i}", s0[i], s0[i] + ds[i]) for i in range(n)]
        panel = panel_from_rows(rows)
        edges = make_bins(float(s0.min()), float(s0.max()), 40)
        bins = bin_moments(panel, edges, min_count=10, target="ratio")

        # independent single-pass recomputation
        by_bin = {}
        for u, a, b in rows:
            w = (b - a) / a
            k = None
            for j in range(len(edges) - 1):
                if edges[j] <= a < edges[j + 1] or (j == len(edges) - 2 and a == edges[-1]):
                    k = j
                    break
            if k is not None:
                by_bin.setdefault(k, []).append(w)
        kept = sorted(k for k, vals in by_bin.items() if len(vals) >= 10)
        assert len(kept) == bins.n_bins
        for pos, k in enumerate(kept):
            vals = np.array(by_bin[k])
            assert bins.counts[pos] == len(vals)
            assert bins.means[pos] == pytest.approx(float(vals.mean()), rel=1e-12)
            assert bins.stds[pos] == pytest.approx(float(vals.std()), rel=1e-12, abs=1e-15)

    def test_permutation_invariance(self, rng):
        n = 3000
        s0 = rng.lognormal(8.0, 1.0, size=n)
        s1 = s0 * rng.lognormal(0.0, 0.1, size=n)
        rows = [(f"u{i:05d}", s0[i], s1[i]) for i in range(n)]
        edges = make_bins(float(s0.min()), float(s0.max()), 30)
        a = bin_moments(panel_from_rows(rows), edges, min_count=5)
        perm = rng.permutation(n)
        b = bin_moments(panel_from_rows([rows[i] for i in perm]), edges, min_count=5)
        assert np.allclose(a.means, b.means, rtol=1e-12, atol=0)
        assert np.allclose(a.stds, b.stds, rtol=1e-12, atol=1e-15)
        assert np.array_equal(a.counts, b.counts)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.integers(0, 20), st.integers(0, 2000)), min_size=1, max_size=60),
        n_bins=st.integers(2, 4),
        min_count=st.integers(2, 4),
        target=st.sampled_from(["absolute", "ratio"]),
    )
    @example(rows=[(3, 1), (3, 3)], n_bins=2, min_count=2, target="absolute")
    def test_matches_bruteforce_loop(self, rows, n_bins, min_count, target):
        # s0 lies below the range, on an edge (the last one included), inside a bin, or above
        edges = make_bins(16.0, 16.0 * 3**n_bins, n_bins)
        spots = [8.0, *edges, *(1.25 * edges[:-1]), 2.0 * edges[-1]]
        s0 = [spots[k % len(spots)] for k, _ in rows]
        panel = panel_from_rows([(f"u{i}", a, s1) for i, (a, (_, s1)) in enumerate(zip(s0, rows))])
        per_bin = [[] for _ in range(n_bins)]
        for a, (_, s1) in zip(s0, rows):
            for j in range(n_bins):
                if edges[j] <= a < edges[j + 1] or (j == n_bins - 1 and a == edges[-1]):
                    per_bin[j].append(s1 - a if target == "absolute" else (s1 - a) / a)
        kept = [j for j in range(n_bins) if len(per_bin[j]) >= min_count]
        if not kept:
            with pytest.raises(NoRetainedBinsError):
                bin_moments(panel, edges, min_count=min_count, target=target)
            return
        bins = bin_moments(panel, edges, min_count=min_count, target=target)
        assert bins.bin_lo.tolist() == [edges[j] for j in kept]
        assert bins.counts.tolist() == [len(per_bin[j]) for j in kept]
        for pos, j in enumerate(kept):
            mean = sum(per_bin[j]) / len(per_bin[j])
            std = math.sqrt(sum((w - mean) ** 2 for w in per_bin[j]) / len(per_bin[j]))
            assert bins.means[pos] == pytest.approx(mean, rel=1e-12, abs=1e-12)
            assert bins.stds[pos] == pytest.approx(std, rel=1e-12, abs=1e-12)

    def test_no_retained_bins_errors(self):
        panel = panel_from_rows([("a", 10.0, 12.0), ("b", 20.0, 19.0)])
        with pytest.raises(NoRetainedBinsError):
            bin_moments(panel, make_bins(1.0, 100.0, 10), min_count=50)

    def test_zero_start_rows_rejected(self):
        panel = panel_from_rows([("a", 0.0, 5.0), ("b", 3.0, 4.0)])
        with pytest.raises(MalformedInputError):
            bin_moments(panel, make_bins(1.0, 10.0, 3), min_count=2)


class TestAbsoluteFits:
    def test_exact_proportional_drift(self):
        s = np.geomspace(10.0, 1e4, 12)
        fit = fit_drift_abs(constant_bins(s, 2.0 * s, 0.1 * s, target="absolute"))
        assert fit.alpha == pytest.approx(1.0, abs=1e-9)
        assert fit.mu_dt == pytest.approx(2.0, rel=1e-9)
        assert fit.mu_dt_alpha1 == pytest.approx(2.0, rel=1e-9)

    def test_sublinear_drift_recovered(self):
        s = np.geomspace(10.0, 1e5, 20)
        fit = fit_drift_abs(constant_bins(s, 3.0 * s**0.7, s, target="absolute"))
        assert fit.alpha == pytest.approx(0.7, abs=0.02)
        assert fit.mu_dt == pytest.approx(3.0, rel=0.05)

    def test_negative_drift_sign_attempted(self):
        s = np.geomspace(10.0, 1e4, 10)
        fit = fit_drift_abs(constant_bins(s, -0.5 * s**0.9, s, target="absolute"))
        assert fit.mu_dt == pytest.approx(-0.5, rel=1e-6)
        assert fit.alpha == pytest.approx(0.9, abs=1e-6)

    def test_refit_on_own_predictions_is_fixed_point(self):
        s = np.geomspace(5.0, 2e4, 15)
        noisy = 1.7 * s**0.85 * (1.0 + 0.05 * np.sin(np.arange(15)))
        first = fit_drift_abs(constant_bins(s, noisy, s, target="absolute"))
        predicted = first.mu_dt * s**first.alpha
        second = fit_drift_abs(constant_bins(s, predicted, s, target="absolute"))
        assert second.alpha == pytest.approx(first.alpha, abs=1e-9)
        assert second.mu_dt == pytest.approx(first.mu_dt, rel=1e-9)

    def test_golden_bins_match_40_digit_optimum(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pow.cfg").write_text(CONFIGS["pow"], encoding="utf-8")
        assert main(["simulate", "pow.cfg", "pow", "--quiet"]) == 0
        active = filter_active(read_panel_csv("pow.panel.csv"))
        edges = make_bins(float(active.s0.min()), float(active.s0.max()), 40)
        bins = bin_moments(active, edges, min_count=30, target="absolute")
        fit = fit_drift_abs(bins)

        def slope(alpha):
            p = [mpmath.exp(alpha * v) for v in lns]
            c = mpmath.fsum(y * q for y, q in zip(ys, p)) / mpmath.fsum(q * q for q in p)
            return mpmath.fsum((y - c * q) * q * v for y, q, v in zip(ys, p, lns)) / mpmath.fsum(y * y for y in ys)

        with mpmath.workdps(40):
            lns = [mpmath.log(float(v)) for v in bins.centers]
            ys = [mpmath.mpf(float(v)) for v in bins.means]
            assert abs(fit.alpha - mpmath.findroot(slope, fit.alpha)) < 1e-14

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lo, hi, mu", [(10.0, 1e4, -0.5), (1.0, 2.0**62, 0.5), (1.0, 2.0**62, -0.5)])
    def test_wide_centres_and_negative_drift_raise_no_warning(self, lo, hi, mu):
        s = np.geomspace(lo, hi, 40)
        fit = fit_drift_abs(constant_bins(s, mu * s**0.9, s, target="absolute"))
        assert fit.alpha == pytest.approx(0.9, abs=1e-9)
        assert fit.mu_dt == pytest.approx(mu, rel=1e-9)

    def test_optimum_on_grid_edge_rejected(self):
        s = np.geomspace(10.0, 1e4, 12)
        with pytest.raises(InsufficientDataError, match=r"\[-10, 10\]"):
            fit_drift_abs(constant_bins(s, 3.0 * s**12, s, target="absolute"))

    def test_exact_proportional_vol(self):
        s = np.geomspace(10.0, 1e4, 12)
        fit = fit_vol_abs(constant_bins(s, s, 5.0 * s, target="absolute"))
        assert fit.alpha == pytest.approx(1.0, abs=1e-12)
        assert fit.sigma_sqrtdt == pytest.approx(5.0, rel=1e-12)

    def test_sublinear_vol_exponent(self):
        s = np.geomspace(10.0, 1e6, 30)
        fit = fit_vol_abs(constant_bins(s, s, s**0.739, target="absolute"))
        assert fit.alpha == pytest.approx(0.739, abs=0.01)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-10)

    def test_zero_std_bins_excluded(self):
        s = np.geomspace(10.0, 1e4, 6)
        stds = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 2.0])
        with pytest.raises(InsufficientDataError):
            fit_vol_abs(constant_bins(s, s, stds, target="absolute"))


class TestFitRatio:
    def test_gibrat_constants(self):
        s = np.geomspace(100.0, 1e8, 20)
        fit = fit_ratio(constant_bins(s, [0.05] * 20, [0.2] * 20))
        assert fit.alpha_drift == pytest.approx(1.0, abs=1e-12)
        assert fit.mu_dt == pytest.approx(0.05, rel=1e-12)
        assert fit.alpha_vol == pytest.approx(1.0, abs=1e-12)
        assert fit.sigma_sqrtdt == pytest.approx(0.2, rel=1e-12)

    def test_sublinear_ratio_slope(self):
        s = np.geomspace(100.0, 1e8, 25)
        fit = fit_ratio(constant_bins(s, 0.3 * s**-0.25, 0.1 * s**-0.2))
        assert fit.alpha_drift == pytest.approx(0.75, abs=0.01)
        assert fit.alpha_vol == pytest.approx(0.8, abs=0.01)

    def test_wealthy_shape_negative_drift(self):
        s = np.geomspace(1e8, 1e12, 15)
        fit = fit_ratio(constant_bins(s, -0.02 * s**0.05, 0.05 * s**-0.1))
        assert fit.mu_dt < 0
        assert fit.alpha_drift == pytest.approx(1.05, abs=0.01)

    def test_mixed_signs_rejected(self):
        s = np.geomspace(10.0, 1e4, 6)
        means = np.array([0.1, 0.2, 0.1, -0.1, -0.2, -0.1])
        with pytest.raises(RegimeMixError):
            fit_ratio(constant_bins(s, means, np.full(6, 0.5)))


class TestSplitRegimes:
    def test_all_positive_single_regime(self):
        s = np.geomspace(10.0, 1e6, 10)
        split = split_regimes(constant_bins(s, np.full(10, 0.04), np.full(10, 0.1)))
        assert split.s_star is None
        assert split.poor is not None and split.wealthy is None
        assert split.sign_pattern == [1] * 10

    def test_clean_split_boundary(self):
        centers = np.array([1e8, 1e9, 1e11, 1e12])
        means = np.array([0.1, 0.05, -0.03, -0.06])
        split = split_regimes(constant_bins(centers, means, np.full(4, 0.2)))
        assert split.s_star == pytest.approx((1e9 + 1e11) / 2)

    def test_geometric_star_option(self):
        centers = np.array([1e8, 1e9, 1e11, 1e12])
        means = np.array([0.1, 0.05, -0.03, -0.06])
        split = split_regimes(constant_bins(centers, means, np.full(4, 0.2)), star_log_scale=True)
        assert split.s_star == pytest.approx(math.sqrt(1e9 * 1e11))

    def test_stray_outlier_does_not_fabricate_regime(self):
        # one negative bin deep inside a positive run: majority cut wins
        s = np.geomspace(10.0, 1e8, 20)
        means = np.full(20, 0.05)
        means[3] = -0.01
        split = split_regimes(constant_bins(s, means, np.full(20, 0.1)))
        assert split.s_star is None
        assert split.poor is not None
        assert split.n_bins_poor == 19

    def test_fit_bins_respect_boundary(self):
        s = np.geomspace(10.0, 1e10, 12)
        means = np.concatenate([np.full(6, 0.05), np.full(6, -0.02)])
        split = split_regimes(constant_bins(s, means, np.full(12, 0.1)))
        assert split.poor is not None and split.wealthy is not None
        assert s[5] < split.s_star < s[6]

    def test_sign_flip_swaps_regimes(self, rng):
        s = np.geomspace(10.0, 1e10, 14)
        means = np.concatenate([np.full(7, 0.05), np.full(7, -0.02)])
        stds = 0.1 * s**-0.05
        a = split_regimes(constant_bins(s, means, stds))
        b = split_regimes(constant_bins(s, -means, stds))
        assert a.poor.alpha_vol == pytest.approx(b.wealthy.alpha_vol, rel=1e-12)
        assert a.poor.sigma_sqrtdt == pytest.approx(b.wealthy.sigma_sqrtdt, rel=1e-12)
        assert a.poor.mu_dt == pytest.approx(-b.wealthy.mu_dt, rel=1e-12)
        assert b.sign_pattern == [-v for v in a.sign_pattern]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([-1, 0, 1]), min_size=3, max_size=30), st.booleans())
    @example([1] * 6, False)
    @example([-1] * 6, False)
    @example([0, 0, 0], False)
    @example([-1, -1, -1, 1, 1, 1], False)
    @example([1, -1, 1, -1, 1, -1], True)
    @example([1, 1, 1, 0, -1, 1, -1, -1, -1], True)
    def test_cut_matches_bruteforce_oracle(self, pattern, star_log_scale):
        k = len(pattern)
        s = np.geomspace(10.0, 1e10, k)
        means = np.array(pattern) * np.linspace(0.01, 0.05, k)
        split = split_regimes(constant_bins(s, means, 0.1 * s**-0.05), star_log_scale=star_log_scale)
        s_star, poor, wealthy = regime_cut_oracle(pattern, s, star_log_scale)
        assert split.s_star == s_star
        assert (split.n_bins_poor, split.n_bins_wealthy) == (len(poor), len(wealthy))
        assert split.sign_pattern == pattern
        for fit, side in ((split.poor, poor), (split.wealthy, wealthy)):
            assert (fit is not None) == (len(side) >= 3)
            assert fit is None or fit.n_bins_drift == len(side)


def regime_cut_oracle(pattern, centers, star_log_scale):
    """The documented regime cut, scored cut by cut.

    The cut maximizes positive bins below it plus negative bins from it
    on, ties going to the larger poor side. With no sign-consistent bin
    on one side there is no boundary and each side takes every bin of
    its sign. Returns (s_star, poor bin indices, wealthy bin indices).
    """
    k = len(pattern)
    best_cut, best_score = 0, -1
    for cut in range(k + 1):
        score = sum(p > 0 for p in pattern[:cut]) + sum(p < 0 for p in pattern[cut:])
        if score >= best_score:
            best_cut, best_score = cut, score
    poor = [i for i in range(best_cut) if pattern[i] > 0]
    wealthy = [i for i in range(best_cut, k) if pattern[i] < 0]
    if not poor or not wealthy:
        return None, [i for i in range(k) if pattern[i] > 0], [i for i in range(k) if pattern[i] < 0]
    lo, hi = float(centers[poor[-1]]), float(centers[wealthy[0]])
    return (math.sqrt(lo * hi) if star_log_scale else 0.5 * (lo + hi)), poor, wealthy


def exact_kendall_s_pmf(n):
    """Exact null pmf of the Mann-Kendall S statistic via inversion counts."""
    poly = [1]
    for i in range(2, n + 1):
        new = [0] * (len(poly) + i - 1)
        for j, c in enumerate(poly):
            for k in range(i):
                new[j + k] += c
        poly = new
    total = math.factorial(n)
    max_s = n * (n - 1) // 2
    return {max_s - 2 * inv: cnt / total for inv, cnt in enumerate(poly)}


class TestTrend:
    def test_constant_series_no_direction(self):
        r = trend_test([(i, 5.0) for i in range(24)])
        assert r.direction == "none"
        assert r.tau == 0.0
        assert r.p_value == 1.0

    def test_strictly_decreasing_24(self):
        r = trend_test([(i, 100.0 - 3.0 * i) for i in range(24)])
        assert r.direction == "decreasing"
        assert r.tau == -1.0
        assert r.p_value < 1e-3
        # exact null oracle: the normal approximation must be conservative
        pmf = exact_kendall_s_pmf(24)
        exact_two_sided = sum(p for s, p in pmf.items() if abs(s) >= 276)
        assert exact_two_sided < r.p_value < 1e-3

    def test_strictly_increasing_4(self):
        r = trend_test([(i, float(i)) for i in range(4)])
        assert r.tau == 1.0

    def test_normal_approximation_tracks_exact_null(self):
        # n = 10 oracle: compare two-sided tail probabilities at every S
        n = 10
        pmf = exact_kendall_s_pmf(n)
        support = sorted(pmf)
        var_s = n * (n - 1) * (2 * n + 5) / 18.0
        from scipy import stats as st

        worst = 0.0
        for s in support:
            if s <= 0:
                continue
            exact = sum(p for t, p in pmf.items() if abs(t) >= s)
            z = (s - 1) / math.sqrt(var_s)
            approx = 2 * st.norm.sf(z)
            worst = max(worst, abs(exact - approx))
        assert worst < 0.02

    def test_needs_four_points(self):
        with pytest.raises(InsufficientDataError):
            trend_test([(0, 1.0), (1, 2.0), (2, 3.0)])


@pytest.fixture(scope="module")
def snapshots():
    config = SimConfig(
        n_users=60_000,
        s0_law=InitialLaw.lognormal(math.log(1e6), 1.5),
        horizon_days=180,
        poor=RegimeParams(alpha_drift=1.0, mu=2e-4, alpha_vol=1.0, sigma=0.001),
        step_days=1,
        seed=11,
    )
    emits = [0, 30, 60, 90, 120, 150, 180]
    return config, snapshot_series(config, emits)


class TestHorizonSweep:
    def test_single_dt_matches_one_shot(self, snapshots):
        config, snaps = snapshots
        sweep = horizon_sweep(snaps, config.t0, [30], min_count=100)
        assert len(sweep.entries) == 1

        from balancegrowth.panel import build_panel
        from balancegrowth import bin_moments as bm, make_bins as mb, split_regimes as sr

        active = filter_active(build_panel(snaps[0], snaps[1]))
        edges = mb(float(active.s0.min()), float(active.s0.max()), 300)
        direct = sr(bm(active, edges, min_count=100))
        entry = sweep.entries[0]
        assert entry.split.poor.mu_dt == pytest.approx(direct.poor.mu_dt, rel=1e-12)
        assert entry.derived["poor"]["mu"] == pytest.approx(direct.poor.mu_dt / 30.0, rel=1e-12)

    def test_mu_dt_scales_linearly(self, snapshots):
        config, snaps = snapshots
        dts = [30, 60, 90, 120, 150, 180]
        sweep = horizon_sweep(snaps, config.t0, dts, min_count=100)
        assert len(sweep.entries) == len(dts)
        for entry in sweep.entries:
            expected = 2e-4 * entry.dt_days
            assert abs(entry.derived["poor"]["mu_dt"] / expected - 1.0) < 0.10

    def test_missing_snapshot_skipped_with_warning(self, snapshots):
        config, snaps = snapshots
        sweep = horizon_sweep(snaps, config.t0, [30, 45, 60], min_count=100)
        assert [e.dt_days for e in sweep.entries] == [30, 60]
        assert sweep.skipped[0]["dt_days"] == 45

    def test_decreasing_sigma_schedule_detected(self):
        config = SimConfig(
            n_users=40_000,
            s0_law=InitialLaw.lognormal(math.log(1e6), 1.2),
            horizon_days=240,
            poor=RegimeParams(
                alpha_drift=1.0,
                mu=3e-4,
                alpha_vol=1.0,
                sigma=__import__("balancegrowth").Schedule(days=(0.0, 240.0), values=(0.004, 0.001)),
            ),
            step_days=1,
            seed=23,
        )
        emits = list(range(0, 241, 30))
        snaps = snapshot_series(config, emits)
        sweep = horizon_sweep(snaps, config.t0, emits[1:], min_count=100)
        trend = sweep.trends["poor"]["sigma"]
        assert trend.direction == "decreasing"
        assert trend.p_value < 0.05
