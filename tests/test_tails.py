import math
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from balancegrowth import (
    DegenerateTailError,
    InsufficientDataError,
    MalformedInputError,
    compare_tails,
    fit_lognormal,
    fit_power_law,
    threshold_sweep,
    trend_test,
    umpu_wilks,
)
from balancegrowth import tails
from balancegrowth.cli import main
from balancegrowth.tails import (
    lognormal_logpdf,
    normalized_loglik_ratio,
    powerlaw_logpdf,
)

BTC = 10**8
ORACLE = settings(derandomize=True, max_examples=60, deadline=None)
COMPARISON_NAN = """{
  "lr_normalization": "sum / (sqrt(n) * sample std of pointwise log-ratios)",
  "n_tail": 300,
  "normalized_lr": null,
  "p_value": 1.0,
  "preferred": "inconclusive",
  "significance": 0.05,
  "unit": "satoshi",
  "xmin": 1000000.0
}
"""


def powerlaw_sample(rng, n, alpha, xmin):
    return xmin * rng.random(n) ** (-1.0 / (alpha - 1.0))


def ks_bruteforce(sorted_tail, cdf_fn):
    """Independent two-sided KS against the step empirical CDF."""
    n = len(sorted_tail)
    worst = 0.0
    for i, x in enumerate(sorted_tail):
        f = cdf_fn(x)
        worst = max(worst, abs(f - i / n), abs(f - (i + 1) / n))
    return worst


class TestFitPowerLaw:
    def test_closed_form_exponent(self):
        fit = fit_power_law([math.e] * 4, xmin=1.0)
        assert fit.alpha == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_candidate_cap_below_one_rejected(self, cap):
        with pytest.raises(MalformedInputError, match="max_candidates must be at least 1"):
            fit_power_law(np.arange(1.0, 50.0), max_candidates=cap)

    def test_mle_spread_on_large_sample(self):
        rng = np.random.default_rng(42)
        data = powerlaw_sample(rng, 10**5, 2.5, 1.0)
        fit = fit_power_law(data, xmin=1.0)
        assert 2.45 <= fit.alpha <= 2.55

    def test_xmin_scan_recovers_tail_start(self):
        hits = 0
        for seed in range(50):
            rng = np.random.default_rng(50_000 + seed)
            body = rng.uniform(0.0, 1000.0, size=2000)
            body = body[body > 0]
            tail = powerlaw_sample(rng, 2000, 2.5, 1000.0)
            fit = fit_power_law(np.concatenate([body, tail]))
            hits += 500.0 <= fit.xmin <= 2000.0
        assert hits >= 40

    def test_degenerate_tail_rejected(self):
        with pytest.raises(DegenerateTailError):
            fit_power_law([5.0, 5.0, 5.0], xmin=5.0)

    def test_scan_refuses_all_equal_values(self):
        # such a tail's log sum is a rounding residual, which may be positive
        for value in (5.0, 3e8, 0.7):
            for n in range(2, 1001):
                with pytest.raises(DegenerateTailError):
                    fit_power_law([value] * n)

    def test_too_few_tail_points_rejected(self):
        with pytest.raises(InsufficientDataError):
            fit_power_law([1.0, 2.0, 3.0], xmin=2.5)

    def test_loglik_locally_optimal(self, rng):
        data = powerlaw_sample(rng, 5000, 2.2, 3.0)
        fit = fit_power_law(data, xmin=3.0)

        def loglik(alpha):
            return float(np.sum(powerlaw_logpdf(data, alpha, 3.0)))

        assert loglik(fit.alpha) >= loglik(fit.alpha + 0.01)
        assert loglik(fit.alpha) >= loglik(fit.alpha - 0.01)

    def test_ks_matches_bruteforce(self, rng):
        data = powerlaw_sample(rng, 2000, 2.5, 1.0)
        fit = fit_power_law(data, xmin=1.0)
        tail = np.sort(data)
        expected = ks_bruteforce(tail, lambda x: 1.0 - (1.0 / x) ** (fit.alpha - 1.0))
        assert fit.ks_distance == pytest.approx(expected, abs=1e-12)

    def test_scale_equivariance(self, rng):
        data = powerlaw_sample(rng, 3000, 2.7, 2.0)
        a = fit_power_law(data, xmin=2.0)
        b = fit_power_law(data * 1e6, xmin=2e6)
        assert b.alpha == pytest.approx(a.alpha, rel=1e-12)

    def test_max_candidates_decimation(self, rng):
        data = powerlaw_sample(rng, 4000, 2.5, 1.0)
        full = fit_power_law(data)
        capped = fit_power_law(data, max_candidates=200)
        assert capped.n_tail >= 2
        assert abs(capped.alpha - full.alpha) < 0.5


class TestFitLognormal:
    def test_exponential_boundary_flag(self):
        # pure Pareto: ln(x/xmin) is exponential, here with coefficient of variation above 1
        pareto = np.floor(1e6 * np.random.default_rng(0).random(300) ** (-1 / 1.5))
        flagged = fit_lognormal(pareto, 1e6)
        assert flagged.exponential_boundary is True
        assert flagged.to_dict()["exponential_boundary"] is True
        lognormal = np.random.default_rng(1).lognormal(16.0, 1.5, 2000)
        interior = fit_lognormal(lognormal, float(np.quantile(lognormal, 0.2)))
        assert interior.exponential_boundary is False
        assert interior.to_dict()["exponential_boundary"] is False
        untruncated = fit_lognormal(lognormal, 0.0)
        assert untruncated.exponential_boundary is None
        assert "exponential_boundary" not in untruncated.to_dict()

    def test_boundary_flag_agrees_with_shape_and_comparison(self):
        seen = set()
        for seed in range(40):
            rng = np.random.default_rng(3000 + seed)
            if seed % 2:
                data = powerlaw_sample(rng, 500, 2.0, 10.0)
            else:
                data = rng.lognormal(3.0, 1.0 + seed / 20, 500)
            xmin = 10.0 if seed % 2 else float(np.quantile(data, 0.5))
            fit = fit_lognormal(data, xmin)
            assert fit.exponential_boundary == ((fit.m - math.log(xmin)) / fit.v <= tails._DELTA_FLOOR)
            assert math.isnan(compare_tails(data, xmin).normalized_lr) == fit.exponential_boundary
            seen.add(fit.exponential_boundary)
        assert seen == {True, False}

    def test_interior_fit_below_one_is_compared(self):
        # the boundary is a property of the shape m/v of ln(x/xmin); ln(xmin) does not enter it
        data = 1e-12 * np.random.default_rng(5).lognormal(0.0, 0.2, 2000)
        xmin = float(np.median(data))
        assert fit_lognormal(data, xmin).exponential_boundary is False
        assert not math.isnan(compare_tails(data, xmin).normalized_lr)

    def test_negative_xmin_is_untruncated(self, rng):
        data = rng.lognormal(3.0, 1.0, 500)
        assert fit_lognormal(data, -1.0).log_likelihood == fit_lognormal(data, 0.0).log_likelihood

    def test_untruncated_closed_form(self):
        fit = fit_lognormal([1.0, math.exp(2.0)], xmin=0.0)
        assert fit.m == pytest.approx(1.0, abs=1e-12)
        assert fit.v == pytest.approx(1.0, abs=1e-12)

    def test_truncated_fit_beats_grid_oracle(self):
        rng = np.random.default_rng(77)
        data = rng.lognormal(0.0, 2.0, size=10**5)
        tail = data[data >= 1.0]
        fit = fit_lognormal(tail, 1.0)

        # independent grid oracle over (m, v) via sufficient statistics
        y = np.log(tail)
        n, sy, syy = y.size, float(y.sum()), float(np.sum(y * y))

        def tail_loglik(m, v):
            quad = syy - 2.0 * m * sy + n * m * m
            return (
                -sy
                - n * math.log(v)
                - 0.5 * n * math.log(2 * math.pi)
                - quad / (2 * v * v)
                - n * stats.norm.logsf(0.0, loc=m, scale=v)
            )

        ms = np.linspace(-2.0, 2.0, 200)
        vs = np.linspace(0.5, 4.0, 200)
        grid = np.array([[tail_loglik(m, v) for v in vs] for m in ms])
        best = float(grid.max())
        assert fit.log_likelihood >= best - 1e-6 * abs(best)
        i, j = np.unravel_index(int(grid.argmax()), grid.shape)
        assert abs(fit.m - ms[i]) <= (ms[1] - ms[0])
        assert abs(fit.v - vs[j]) <= (vs[1] - vs[0])

    def test_requires_two_distinct_values(self):
        with pytest.raises(InsufficientDataError):
            fit_lognormal([7.0, 7.0, 7.0], xmin=1.0)

    def test_ks_matches_bruteforce(self, rng):
        data = rng.lognormal(1.0, 1.5, size=1500)
        tail = np.sort(data[data >= 2.0])
        fit = fit_lognormal(data, 2.0)
        z0 = (math.log(2.0) - fit.m) / fit.v

        def cdf(x):
            z = (math.log(x) - fit.m) / fit.v
            return (stats.norm.cdf(z) - stats.norm.cdf(z0)) / stats.norm.sf(z0)

        assert fit.ks_distance == pytest.approx(ks_bruteforce(tail, cdf), abs=1e-12)

    def test_location_shifts_with_scale(self, rng):
        data = rng.lognormal(2.0, 1.0, size=4000)
        a = fit_lognormal(data, 1.0)
        b = fit_lognormal(data * 1000.0, 1000.0)
        assert b.m - a.m == pytest.approx(math.log(1000.0), rel=1e-9)
        assert b.v == pytest.approx(a.v, rel=1e-9)


class TestCompareTails:
    def test_nan_statistic_written_as_null(self, tmp_path, monkeypatch):
        # the log-normal fit lands on its exponential boundary, so the statistic is NaN
        monkeypatch.chdir(tmp_path)
        x = np.floor(1e6 * np.random.default_rng(0).random(300) ** (-1 / 1.5)).astype(np.int64)
        (tmp_path / "p.csv").write_text("user_id,balance\n" + "".join(f"u{i},{v}\n" for i, v in enumerate(x)))
        assert main(["fit", "p.csv", "--xmin", "1000000", "--quiet"]) == 0
        text = (tmp_path / "p.comparison.json").read_text()
        assert re.sub(r'\n *"run_id": "[0-9a-f]*",', "", text) == COMPARISON_NAN

    def test_degenerate_tie_is_inconclusive(self):
        nlr, p = normalized_loglik_ratio(np.full(50, 0.3))
        assert math.isnan(nlr)
        assert p == 1.0

    def test_lognormal_data_prefers_lognormal(self):
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(2000 + seed)
            data = rng.lognormal(18.0, 2.5, size=12_500)
            result = compare_tails(data, float(np.quantile(data, 0.2)))
            wins += result.preferred == "log_normal" and result.p_value < 0.05
        assert wins >= 18

    def test_powerlaw_data_not_mistaken_for_lognormal(self):
        ok = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            data = powerlaw_sample(rng, 10_000, 2.5, 1.0)
            result = compare_tails(data, 1.0)
            ok += result.preferred in ("power_law", "inconclusive")
        assert ok >= 18

    def test_preferred_iff_significant(self, rng):
        data = rng.lognormal(10.0, 2.0, size=4000)
        result = compare_tails(data, float(np.quantile(data, 0.3)))
        if result.p_value > result.significance:
            assert result.preferred == "inconclusive"
        else:
            assert result.preferred in ("power_law", "log_normal")


@pytest.mark.parametrize(
    "call, cut",
    [
        (umpu_wilks, 0.0),
        (umpu_wilks, -2.0),
        (umpu_wilks, math.nan),
        (umpu_wilks, math.inf),
        (compare_tails, 0.0),
        (compare_tails, math.nan),
        (compare_tails, math.inf),
        (fit_power_law, 0.0),
        (fit_power_law, math.nan),
        (fit_power_law, math.inf),
        (fit_lognormal, math.nan),
        (fit_lognormal, math.inf),
        (fit_lognormal, -math.inf),
    ],
)
def test_bad_cutoff_refused(call, cut):
    data = np.random.default_rng(4).lognormal(3.0, 1.0, 500)
    with pytest.raises(MalformedInputError, match=rf"must be (positive and )?finite, got {cut}$"):
        call(data, cut)


def test_one_significance_level_for_every_verdict(monkeypatch):
    """The tail preference and the trend direction both read `tails.SIGNIFICANCE`: a tail
    comparison names a family at p <= level, a trend test a direction at p < level."""
    data = np.random.default_rng(5).lognormal(10.0, 2.0, size=600)
    xmin = float(np.quantile(data, 0.5))
    compares = (lambda: compare_tails(data, xmin), lambda: threshold_sweep(data, xmin, 1.0)[0])
    for compare, p_tail in [(compare, compare().p_value) for compare in compares]:
        assert 0.0 < p_tail < 0.05
        for level, family in ((p_tail, True), (np.nextafter(p_tail, 0.0), False)):
            monkeypatch.setattr(tails, "SIGNIFICANCE", float(level))
            row = compare()
            assert (row.preferred != "inconclusive") == family and row.significance == level
    rising = [(dt, float(dt)) for dt in (7, 14, 21, 28)]
    p_trend = trend_test(rising).p_value  # 0.089, the smallest p-value of 4 points
    for level, direction in ((p_trend, "none"), (np.nextafter(p_trend, 1.0), "increasing")):
        monkeypatch.setattr(tails, "SIGNIFICANCE", float(level))
        assert trend_test(rising).direction == direction


class TestThresholdSweep:
    def test_arithmetic_grid(self, rng):
        data = rng.lognormal(19.0, 1.0, size=2000)
        results = threshold_sweep(data, start=1.0, step=float(BTC))
        expected = [1.0 + k * BTC for k in range(len(results))]
        assert [r.xmin for r in results] == expected
        assert len(results) >= 2

    def test_stops_when_tail_thins(self, rng):
        data = rng.lognormal(5.0, 1.0, size=150)
        results = threshold_sweep(data, start=1.0, step=1e9)
        assert len(results) == 1

    def test_lognormal_preferred_at_most_thresholds(self):
        rng = np.random.default_rng(0)
        data = rng.lognormal(22.33, 0.15, size=100_000)
        results = threshold_sweep(data, start=1.0, step=float(BTC))
        frac = np.mean([r.preferred == "log_normal" for r in results])
        assert frac >= 0.8

    def test_rejects_bad_grid(self, rng):
        data = rng.lognormal(5.0, 1.0, size=500)
        with pytest.raises(Exception):
            threshold_sweep(data, start=0.0, step=1.0)

    def test_refuses_a_grid_of_more_than_a_million_thresholds(self):
        data = np.full(200, 2e6)  # with start 1 and step 1, tails keep 100 points up to 2e6
        with pytest.raises(MalformedInputError, match=r"holds 2,000,000 thresholds, more than 1,000,000; use a larger step$"):
            threshold_sweep(data, start=1.0, step=1.0)
        with pytest.raises(MalformedInputError, match="holds 1,000,001 thresholds"):
            threshold_sweep(data, start=1.0, step=1.999999)

    @pytest.mark.parametrize("start, step", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)])
    def test_rejects_non_finite_grid(self, rng, start, step):
        data = rng.lognormal(5.0, 1.0, size=500)
        with pytest.raises(MalformedInputError, match="positive and finite"):
            threshold_sweep(data, start=start, step=step)


def test_pointwise_logpdfs_are_normalized_densities(rng):
    # numeric integration oracle: both tail densities integrate to one
    xmin = 5.0
    xs = np.geomspace(xmin, xmin * 1e8, 200_001)
    pl = np.exp(powerlaw_logpdf(xs, 2.3, xmin))
    assert np.trapezoid(pl, xs) == pytest.approx(1.0, rel=1e-3)
    ln = np.exp(lognormal_logpdf(xs, math.log(50.0), 2.0, xmin))
    assert np.trapezoid(ln, xs) == pytest.approx(1.0, rel=1e-3)


def scan_bruteforce(data, max_candidates=None):
    """Exhaustive xmin scan: every candidate's full KS distance, lowest index wins ties.

    Returns (xmin, alpha, ks) or None when no candidate leaves a
    non-degenerate tail.
    """
    x = np.sort(np.asarray(data, dtype=np.float64))
    n = x.size
    logx = np.log(x)
    suffix = np.cumsum(logx[::-1])[::-1]
    cand = [i for i in range(n) if (i == 0 or x[i] != x[i - 1]) and n - i >= 2]
    if max_candidates is not None and len(cand) > max_candidates:
        pick = np.unique(np.linspace(0, len(cand) - 1, max_candidates).round().astype(int))
        cand = [cand[j] for j in pick]
    best = None
    for i in cand:
        n_t = n - i
        s = suffix[i] - n_t * logx[i]
        if s <= 0.0 or x[i] == x[-1]:  # no spread: s is only rounding
            continue
        alpha = 1.0 + n_t / s
        cdf = 1.0 - (x[i] / x[i:]) ** (alpha - 1.0)
        k = np.arange(1, n_t + 1, dtype=np.float64)
        ks = float(max(np.max(cdf - (k - 1.0) / n_t), np.max(k / n_t - cdf)))
        if best is None or ks < best[2]:
            best = (float(x[i]), float(alpha), ks)
    return best


@st.composite
def tail_samples(draw, max_size=400):
    """Pareto/log-normal mixtures, pure Pareto, integer data with ties, and 2-3 values."""
    kind = draw(st.sampled_from(["mixture", "pareto", "integer", "tiny"]))
    if kind == "tiny":
        return np.array(draw(st.lists(st.floats(1e-3, 1e6), min_size=2, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40) | st.integers(40, max_size))
    alpha = draw(st.floats(1.3, 3.5))
    if kind == "pareto":
        return powerlaw_sample(rng, n, alpha, 1.0)
    if kind == "integer":
        return np.floor(draw(st.sampled_from([1.0, 3.0, 20.0])) * powerlaw_sample(rng, n, alpha, 1.0))
    n_tail = max(1, int(draw(st.floats(0.05, 0.95)) * n))
    body = rng.lognormal(0.0, draw(st.floats(0.2, 2.0)), size=n - n_tail)
    return np.concatenate([body[body < 10.0], powerlaw_sample(rng, n_tail, alpha, 10.0)])


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # compared by type and message
        return None, (type(exc), str(exc))


class TestScanOracle:
    @ORACLE
    @given(data=tail_samples(), max_candidates=st.none() | st.integers(1, 40))
    def test_pruned_scan_equals_exhaustive(self, data, max_candidates):
        expected = scan_bruteforce(data, max_candidates)
        if expected is None:
            with pytest.raises(DegenerateTailError):
                fit_power_law(data, max_candidates=max_candidates)
            return
        fit = fit_power_law(data, max_candidates=max_candidates)
        assert (fit.xmin, fit.alpha, fit.ks_distance) == expected
        assert 1 <= fit.ks_full_evaluations <= fit.xmin_candidates

    def test_multiple_bound_blocks(self):
        rng = np.random.default_rng(7)
        data = np.concatenate([rng.lognormal(0.0, 1.0, 3000), powerlaw_sample(rng, 2000, 2.2, 8.0)])
        fit = fit_power_law(data)
        assert fit.xmin_candidates > tails._KS_BLOCK
        assert (fit.xmin, fit.alpha, fit.ks_distance) == scan_bruteforce(data)
        assert fit.ks_full_evaluations < fit.xmin_candidates // 10

    def test_diagnostics_only_for_scanned_fits(self, rng):
        data = powerlaw_sample(rng, 500, 2.5, 1.0)
        scanned = fit_power_law(data).to_dict()
        assert scanned["diagnostics"]["xmin_candidates"] == 499
        assert "diagnostics" not in fit_power_law(data, xmin=1.0).to_dict()


def sweep_reference(data, start, step):
    """The threshold sweep as independent `compare_tails` calls, while 100 values reach the threshold."""
    x = np.asarray(data, dtype=np.float64)
    rows = []
    k = 0
    while np.count_nonzero(x >= start + k * step) >= 100:
        rows.append(compare_tails(x, start + k * step))
        k += 1
    return rows


@st.composite
def sweep_cases(draw):
    """100 to 400 values from `tail_samples`, in one case of three with the largest 100 to 130 tied,
    and a grid from a data value to about where the tail thins to 100 points."""
    data = draw(tail_samples(max_size=400).filter(lambda d: d.size >= 100))
    if draw(st.integers(0, 2)) == 0:
        # a tail of one value: thresholds near the top reach the tied-maximum refusals
        data = np.minimum(data, np.sort(data)[-draw(st.integers(100, 130))])
    values = np.unique(data)
    start = float(values[draw(st.integers(0, values.size // 2))])
    last = float(np.sort(data)[-100])
    step = max(last - start, 1e-6 * start) / draw(st.integers(1, 60))
    if draw(st.booleans()):
        # with integer data, integral steps put thresholds exactly on data values
        step = float(math.ceil(step))
    return data, start, step


def assert_rows_match(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.xmin, g.n_tail, g.significance) == (w.xmin, w.n_tail, w.significance)
        assert math.isnan(g.normalized_lr) == math.isnan(w.normalized_lr)
        if not math.isnan(w.normalized_lr):
            assert abs(g.normalized_lr - w.normalized_lr) <= 1e-10 * max(1.0, abs(w.normalized_lr))
        if abs(w.p_value - tails.SIGNIFICANCE) > 1e-5:
            assert g.preferred == w.preferred


class TestSweepOracle:
    @ORACLE
    @given(case=sweep_cases())
    def test_sweep_matches_compare_tails(self, case):
        got, got_err = _outcome(threshold_sweep, *case)
        want, want_err = _outcome(sweep_reference, *case)
        assert got_err == want_err
        if want_err is None:
            assert_rows_match(got, want)

    @pytest.mark.parametrize(
        "step, error",
        [(1.0, DegenerateTailError), (1.4, InsufficientDataError)],
        ids=["threshold_on_the_tied_maximum", "threshold_below_the_tied_maximum"],
    )
    def test_tied_maximum_refusals(self, step, error):
        # 120 values tie at the maximum 10: the grid 7, 7 + step, ... reaches a tail of that one value
        data = np.concatenate([np.arange(1.0, 10.0).repeat(20), np.full(120, 10.0)])
        with pytest.raises(error):
            threshold_sweep(data, 7.0, step)
        with pytest.raises(error):
            sweep_reference(data, 7.0, step)

    def test_fewer_values_than_the_floor(self):
        assert threshold_sweep(np.arange(1.0, 100.0), 1.0, 1.0) == sweep_reference(np.arange(1.0, 100.0), 1.0, 1.0) == []

    def test_large_integer_sample_matches(self):
        rng = np.random.default_rng(11)
        body = rng.lognormal(16.0, 1.5, size=20_000)
        data = np.floor(np.concatenate([body[body < 1e8], powerlaw_sample(rng, 5000, 2.2, 1e8)]))
        step = (np.sort(data)[-100] - 1e8) / 150
        got = threshold_sweep(data, 1e8, step)
        assert len(got) == 151
        assert_rows_match(got, sweep_reference(data, 1e8, step))


@st.composite
def tied_cases(draw):
    """Integer data in which the threshold `t` occurs at least twice; at least 100
    values lie above it, many of them tied, and the largest value occurs once."""
    t = draw(st.integers(1, 10**6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    below = draw(st.lists(st.integers(1, t), max_size=30))
    above = rng.integers(t + 1, t + 13, size=draw(st.integers(100, 160))).tolist()
    x = np.array(below + [t] * draw(st.integers(2, 5)) + above + [t + 13], dtype=np.float64)
    return rng.permutation(x), float(t)


class TestThresholdConventionsAtTies:
    """Tail fits keep x >= xmin and the exponentiality test keeps x > threshold,
    also when the threshold equals a tied datum."""

    @ORACLE
    @given(case=tied_cases(), step=st.integers(1, 4))
    def test_tail_membership(self, case, step):
        x, t = case
        assert fit_power_law(x, xmin=t).n_tail == np.count_nonzero(x >= t)
        assert umpu_wilks(x, t, method="asymptotic").n_tail == np.count_nonzero(x > t)
        rows = threshold_sweep(x, t, float(step))
        assert rows and rows[0].xmin == t
        for row in rows:
            assert row.n_tail == compare_tails(x, row.xmin).n_tail == np.count_nonzero(x >= row.xmin)


class TestNormalKernels:
    """The tail layer's own erfcx, normal CDF and log-CDF against 50- and 60-digit references."""

    def test_erfcx_matches_mpmath(self):
        # both region edges of the rational forms, and the grid out to where erfc nears underflow
        x = np.concatenate([np.linspace(0.0, 26.5, 2651), [0.46875, 4.0], np.nextafter([0.46875, 4.0], 5.0), [1e-300]])
        got = tails._erfcx(x)
        with mpmath.workdps(50):
            for xi, g in zip(x, got):
                a = mpmath.mpf(float(xi))
                want = mpmath.exp(a * a) * mpmath.erfc(a)
                assert abs(float((g - want) / want)) <= 1e-14, (xi, g, want)

    def test_log_ndtr_matches_mpmath(self):
        d = np.concatenate([-np.geomspace(4000.0, 1e-3, 600), [0.0], np.geomspace(1e-3, 40.0, 600), [-2.0, 16.52]])
        got = tails._log_ndtr(d)
        checked = 0
        with mpmath.workdps(60):
            for di, g in zip(d, got):
                x = mpmath.mpf(float(di))
                # log(ncdf(d)) reads 0 from about d = 20: for d > 0 take log1p of the upper tail
                want = mpmath.log1p(-mpmath.ncdf(-x)) if x > 0 else mpmath.log(mpmath.ncdf(x))
                if abs(want) < sys.float_info.min:  # no normal float to compare with
                    continue
                assert abs(float((g - want) / want)) <= 1e-14, (di, g, want)
                checked += 1
        assert checked > 1100
        assert tails._log_ndtr(np.array([-np.inf, np.inf])).tolist() == [-np.inf, 0.0]

    def test_ndtr_matches_mpmath(self):
        d = np.linspace(-37.0, 9.0, 921)  # Phi(-37) is about 6e-300, still a normal float
        got = tails._ndtr(d)
        with mpmath.workdps(50):
            for di, g in zip(d, got):
                want = mpmath.ncdf(mpmath.mpf(float(di)))
                assert abs(float((g - want) / want)) <= 1e-14, (di, g, want)

    def test_kernels_keep_shape_and_nan(self):
        for kernel in (tails._two_sided_p, tails._ndtr, tails._log_ndtr):
            assert kernel(0.5).shape == ()
            assert kernel(np.zeros((2, 3))).shape == (2, 3)
            assert np.isnan(kernel(np.array([np.nan]))).all()
        # a value does not depend on the array it is computed in
        x = np.linspace(-40.0, 40.0, 70_003)
        for kernel in (tails._two_sided_p, tails._ndtr, tails._log_ndtr):
            whole = kernel(x)
            assert np.array_equal(whole, np.concatenate([kernel(x[:7]), kernel(x[7:40_000]), kernel(x[40_000:])]))
            assert np.array_equal(whole[::997], [kernel(v) for v in x[::997]])

    @ORACLE
    @given(st.lists(st.floats(-40.0, 40.0), min_size=2, max_size=50))
    def test_two_sided_p_is_non_increasing_in_abs_z(self, zs):
        # Non-increasing between drawn points. At the ulp scale, where p moves by less than an
        # ulp per float step (|z| below about 1.5), neighbouring floats can come out one ulp out
        # of order: the kernels are within about 3 ulp, not correctly rounded.
        z = np.array(zs)
        p = tails._two_sided_p(z[np.argsort(np.abs(z))])
        assert np.all(np.diff(p) <= 0.0)
        assert np.array_equal(tails._two_sided_p(-z), tails._two_sided_p(z))
        assert tails._two_sided_p(0.0) == 1.0


def mp_truncated_moments(d):
    """(lambda, E[Z], E[Z^2], E[Z^2]/E[Z]^2) of N(d, 1) conditioned on Z > 0, at 50 digits."""
    with mpmath.workdps(50):
        d = mpmath.mpf(float(d))
        lam = mpmath.npdf(d) / mpmath.ncdf(d)
        e1 = d + lam
        e2 = 1 + d * e1
        return lam, e1, e2, e2 / e1**2


class TestTruncatedNormalSolver:
    def test_kernels_match_mpmath(self):
        switch = -tails._CF_SWITCH
        d = np.concatenate(
            [-np.geomspace(4000.0, 2.0, 200), np.linspace(-2.0, 40.0, 400), [np.nextafter(switch, 0.0), 1e-300]]
        )
        lam, e1, e2, q = tails._tn_moments(d)
        for i, di in enumerate(d):
            want = mp_truncated_moments(di)
            got = (lam[i], e1[i], e2[i], 1.0 + q[i])
            for g, w in zip(got, want):
                if w > 1e-300:  # lambda underflows far out on the right
                    assert abs(float((g - w) / w)) <= 1e-14, (di, g, w)
            # q = ratio - 1 is what the shape solve matches; it keeps ~13.7 digits
            assert abs(float((q[i] - (want[3] - 1)) / (want[3] - 1))) <= 3e-14, di

    def test_shape_solve_inverts_the_ratio(self):
        ratios = 1.0 + np.concatenate([np.geomspace(1e-12, 0.9986, 300), [0.9987, 1.0, 1.5]])
        delta = tails._tn_shape(ratios)
        interior = ~np.isnan(delta)
        assert interior[:300].all() and not interior[300:].any()
        for r, d in zip(ratios[interior][::10], delta[interior][::10]):
            with mpmath.workdps(50):
                lam, e1, e2, ratio = mp_truncated_moments(d)
                # the root error in delta, to first order in the ratio residual
                slope = lam * (2 - ratio) - 2 * (ratio - 1) ** 2 * e1
                err = abs((ratio - mpmath.mpf(float(r))) / slope)
            assert float(err) <= 1e-12 * max(1.0, abs(d)), (r, d)

    def test_shape_solve_rejects_no_spread(self):
        with pytest.raises(DegenerateTailError, match="no spread"):
            tails._tn_shape(np.array([1.5, 1.0 + 1e-14]))

    @ORACLE
    @given(
        exps=st.lists(st.floats(-12.0, 0.4), min_size=1, max_size=40),
        m=st.integers(1, 5),
    )
    def test_batch_equals_one_at_a_time(self, exps, m):
        # moment ratios from near 1 to past the exponential boundary; also repeated and reordered
        ratios = np.tile(1.0 + 10.0 ** np.array(exps), m)[::-1]
        zbar = np.linspace(0.01, 50.0, ratios.size)
        batch = tails._tn_mle(zbar, ratios * zbar * zbar)
        single = [tails._tn_mle(z, r * z * z) for z, r in zip(zbar, ratios)]
        for k in range(4):  # delta, v, gain, boundary
            assert batch[k].tobytes() == np.concatenate([s[k] for s in single]).tobytes()
        n = np.arange(10, 10 + ratios.size)
        wilks = tails._umpu_statistic(n, zbar, ratios * zbar * zbar)[1]
        for i in range(ratios.size):
            alone = tails._umpu_statistic(n[i], zbar[i], ratios[i] * zbar[i] * zbar[i])[1]
            assert alone.tobytes() == wilks[i : i + 1].tobytes()
