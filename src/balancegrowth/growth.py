"""Proportional-growth estimation from transition panels.

The pipeline bins panel rows geometrically by starting balance, takes
per-bin moments of the balance change (absolute or relative), and fits
weighted power laws in balance to the moments (`fit_growth`) to recover
the scaling exponents, the aggregate drift mu*dt, and the aggregate
volatility sigma*sqrt(dt).
A sign change in the per-bin mean of ds/s splits the population into the
accumulating ("poor") and divesting ("wealthy") regimes.
"""

import datetime as dt
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    InsufficientDataError,
    MalformedInputError,
    NoRetainedBinsError,
)
from ._workers import map_on_cpus
from .panel import TransitionPanel, _whole_int64, build_panel, filter_active
from . import tails

log = logging.getLogger(__name__)

TARGET_ABSOLUTE = "absolute"
TARGET_RATIO = "ratio"

DEFAULT_N_BINS = 300
DEFAULT_MIN_COUNT = 50
# fit_growth scans the exponent of the fitted mean on this grid before bisecting
DRIFT_ALPHA_GRID = np.linspace(-10.0, 10.0, 2001)

REGIME_POOR = "poor"
REGIME_WEALTHY = "wealthy"
REGIME_ALL = "all"

# the fewest points trend_test takes; at 0.05 a trend test on this many cannot report a direction
_MIN_TREND_POINTS = 4
# the exponents and per-day rates tracked across horizons, in emission order; the totals stay in each split
SWEEP_PARAMS = ("alpha_drift", "alpha_vol", "mu", "sigma")


@dataclass(frozen=True)
class BinSeries:
    """Per-bin moments of the target variable over geometric balance bins.

    Only bins with at least `min_count` rows are retained. Standard
    deviations are population-normalized. Centers are the geometric
    means of the bin edges.
    """

    bin_lo: np.ndarray
    bin_hi: np.ndarray
    centers: np.ndarray
    counts: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    target: str
    settings: dict = field(default_factory=dict, compare=False)

    @property
    def n_bins(self) -> int:
        return int(self.centers.size)

    def take(self, mask: np.ndarray) -> "BinSeries":
        arrays = ("bin_lo", "bin_hi", "centers", "counts", "means", "stds")
        return replace(self, **{name: getattr(self, name)[mask] for name in arrays}, settings=dict(self.settings))


@dataclass(frozen=True)
class GrowthFit:
    """Weighted power-law fits of one regime's bin means and stds.

    With k = 1 for the ratio target (ds/s0) and k = 0 for the absolute
    target (ds), the drift is mean = mu_dt * s^(alpha_drift - k), fitted
    on the linear scale with weights n/std^2, and the volatility is
    std = sigma_sqrtdt * s^(alpha_vol - k), a line of ln std on ln s with
    weights 2n. mu_dt carries the drift sign (positive: accumulation);
    `mu_dt_alpha1` is the drift with alpha_drift fixed at 1. Both fits
    use the `n_bins` bins with positive std. Standard errors are scaled by
    each fit's chi^2/dof: the alpha errors apply to the exponents, the
    intercept errors to ln|mu_dt| and ln(sigma_sqrtdt). A chi^2/dof far
    above 1 says the power law in s does not fit the bins.
    """

    regime: str
    alpha_drift: float
    mu_dt: float
    mu_dt_alpha1: float
    alpha_vol: float
    sigma_sqrtdt: float
    drift_alpha_se: float
    drift_intercept_se: float
    drift_chi2_dof: float
    vol_alpha_se: float
    vol_intercept_se: float
    vol_chi2_dof: float
    n_bins: int


@dataclass(frozen=True)
class RegimeSplit:
    """Two-regime decomposition of a ratio-target bin series.

    `s_star` is the balance separating the regimes (None when the cut
    leaves one side without a sign-consistent bin, see `split_regimes`);
    `sign_pattern` records the sign of each retained bin mean in balance
    order.
    """

    s_star: float | None
    poor: GrowthFit | None
    wealthy: GrowthFit | None
    sign_pattern: list[int]
    n_bins_poor: int
    n_bins_wealthy: int
    settings: dict = field(default_factory=dict, compare=False)

    def to_dict(self) -> dict:
        return {**vars(self), "unit": "satoshi"}


@dataclass(frozen=True)
class TrendResult:
    """Mann-Kendall monotonic-trend classification of one parameter series."""

    direction: str
    tau: float
    p_value: float
    s: int
    var_s: float
    n: int


@dataclass(frozen=True)
class HorizonEntry:
    """Regime split plus, for each regime with a fit, its `SWEEP_PARAMS` with mu and sigma per day."""

    dt_days: int
    split: RegimeSplit
    derived: dict


@dataclass(frozen=True)
class HorizonSweep:
    """Per-horizon estimates and monotonic-trend statistics per parameter."""

    entries: list
    skipped: list
    trends: dict

    def to_dict(self) -> dict:
        return {**vars(self), "units": {"mu": "per-day", "sigma": "per-sqrt-day", "balance": "satoshi"}}


def make_bins(s_min: float, s_max: float, n: int = DEFAULT_N_BINS) -> np.ndarray:
    """n geometric bin edges over [s_min, s_max]: edge_k = s_min*(s_max/s_min)^(k/n)."""
    if not (0 < s_min < s_max < math.inf):  # NaN fails too
        raise MalformedInputError(f"need 0 < s_min < s_max < inf, got ({s_min}, {s_max})")
    if n < 2:
        raise MalformedInputError("need at least 2 bins")
    return np.geomspace(float(s_min), float(s_max), n + 1)


def bin_moments(
    panel: TransitionPanel,
    edges: np.ndarray,
    min_count: int = DEFAULT_MIN_COUNT,
    target: str = TARGET_RATIO,
) -> BinSeries:
    """Per-bin mean and population std of ds (absolute) or ds/s0 (ratio).

    Edges must rise strictly over positive finite values. Rows are
    assigned by s0; the last bin includes its upper edge. Rows outside
    the edge range are ignored. Bins with fewer than `min_count`
    rows are dropped. Accumulation is by fixed bin index, so row order
    does not affect the result beyond float rounding.
    """
    if target not in (TARGET_ABSOLUTE, TARGET_RATIO):
        raise MalformedInputError(f"unknown target {target!r}")
    if min_count < 2:
        raise MalformedInputError("min_count must be at least 2")
    s0 = np.asarray(panel.s0, dtype=np.float64)
    ds = np.asarray(panel.ds, dtype=np.float64)
    if np.any(s0 <= 0):
        raise MalformedInputError("panel contains rows with s0 <= 0; run filter_active first")
    edges = np.asarray(edges, dtype=np.float64)
    rising = edges.ndim == 1 and edges.size >= 2 and bool(np.all(edges[1:] > edges[:-1]))  # NaN fails too
    if not (rising and 0 < edges[0] and edges[-1] < np.inf):
        raise MalformedInputError("bin edges must rise strictly over 2 or more positive finite values")
    n_bins = edges.size - 1
    w = ds if target == TARGET_ABSOLUTE else ds / s0
    idx = np.searchsorted(edges, s0, side="right") - 1
    idx[s0 == edges[-1]] = n_bins - 1
    valid = (idx >= 0) & (idx < n_bins)
    idx_v = idx[valid]
    w_v = w[valid]
    counts = np.bincount(idx_v, minlength=n_bins)
    sums = np.bincount(idx_v, weights=w_v, minlength=n_bins)
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    dev2 = np.bincount(idx_v, weights=(w_v - means[idx_v]) ** 2, minlength=n_bins)
    keep = counts >= min_count
    if not np.any(keep):
        raise NoRetainedBinsError(
            f"no bin reached min_count={min_count}; lower min_count or widen bins"
        )
    variances = dev2[keep] / counts[keep]
    return BinSeries(
        bin_lo=edges[:-1][keep],
        bin_hi=edges[1:][keep],
        centers=np.sqrt(edges[:-1][keep] * edges[1:][keep]),
        counts=counts[keep].astype(np.int64),
        means=means[keep],
        stds=np.sqrt(np.maximum(variances, 0.0)),
        target=target,
        settings={
            "n_bins": int(n_bins),
            "min_count": int(min_count),
            "target": target,
            "n_rows_binned": int(idx_v.size),
            "std_normalization": "population",
        },
    )


def bin_panel(panel: TransitionPanel, n_bins: int, min_count: int, target: str = TARGET_RATIO) -> BinSeries:
    """The estimate stage of `estimate` and of each `horizon_sweep` horizon: active rows, binned.

    Keeps the active rows (`filter_active`), logs how many were dropped,
    and takes `bin_moments` over `n_bins` geometric bins on the range of
    the active s0. Raises InsufficientDataError when no row is active, or
    when the active s0 hold one balance or a range too narrow for n_bins
    distinct edges. Other edges go through `make_bins` and `bin_moments`.
    """
    active = filter_active(panel)
    del panel  # a panel passed without another reference is freed here, before binning
    _log_dropped(active.meta["removed_total"])
    return _bin_active(active, n_bins, min_count, target)


def _log_dropped(removed: int):
    if removed:
        log.info("dropped %d inactive rows", removed)


def _bin_active(active: TransitionPanel, n_bins: int, min_count: int, target: str = TARGET_RATIO) -> BinSeries:
    """`bin_panel` of a panel that `filter_active` made, without its log line."""
    if active.n_rows == 0:
        raise InsufficientDataError("no active rows")
    lo, hi = float(np.min(active.s0)), float(np.max(active.s0))
    if not lo < hi:
        raise InsufficientDataError(f"every active row starts at one balance, {lo:.15g} satoshi")
    edges = make_bins(lo, hi, n_bins)
    if not np.all(edges[1:] > edges[:-1]):
        raise InsufficientDataError(f"active s0 range [{lo}, {hi}] is too narrow for {n_bins} distinct bin edges")
    return bin_moments(active, edges, min_count=min_count, target=target)


def _drift_profile(alpha, lns: np.ndarray, y: np.ndarray, w: np.ndarray):
    """u = s^alpha / max s^alpha, the best amplitude c of y ~ c u under weights w, and the residual.

    `alpha` is a scalar or a 1-d grid. Scaling by the largest s^alpha
    keeps u^2 finite for balances up to 2^62 at every alpha scanned.
    """
    a = np.multiply.outer(alpha, lns)
    u = np.exp(a - a.max(axis=-1, keepdims=True))
    wu = w * u
    c = (wu * y).sum(axis=-1) / (wu * u).sum(axis=-1)
    return u, c, y - c[..., None] * u


def _drift_slope(alpha: float, lns: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    """c * sum(w r u ln s): minus half the slope of the profile chi^2 at `alpha`.

    ln s is centred at its w u^2-weighted mean. That leaves the value
    unchanged, since sum(w r u) = 0 at the best c, and it cancels the
    rounding error of c to first order. A second pass centres away the
    rounding of the first mean: when one bin outweighs the rest by 1e30,
    its rounding residual times that error would swamp their signal.
    """
    u, c, r = _drift_profile(alpha, lns, y, w)
    wu = w * u
    wu2 = wu * u
    x = lns - np.sum(wu2 * lns) / np.sum(wu2)
    x -= np.sum(wu2 * x) / np.sum(wu2)
    return float(c * np.sum(wu * r * x))


def _fit_drift(lns: np.ndarray, y: np.ndarray, w: np.ndarray):
    """The exponent a of y ~ c s^a under weights w, by a profile in a; returns a and `_drift_profile` at a.

    For a fixed a the best c is linear and carries its own sign. The
    profile chi^2 is scanned on `DRIFT_ALPHA_GRID`, and the stationarity
    condition is bisected down to adjacent floats between the grid
    neighbours of the best point.
    """
    # blocks of about 100 exponents keep the scan's memory small at any bin count
    blocks = np.array_split(DRIFT_ALPHA_GRID, 20)
    k = int(np.argmin(np.concatenate([np.sum(w * _drift_profile(b, lns, y, w)[2] ** 2, axis=-1) for b in blocks])))
    if k in (0, DRIFT_ALPHA_GRID.size - 1):
        raise InsufficientDataError(
            f"the drift exponent's best fit lies at the edge of the scanned range "
            f"[{DRIFT_ALPHA_GRID[0]:g}, {DRIFT_ALPHA_GRID[-1]:g}]"
        )
    lo, hi = float(DRIFT_ALPHA_GRID[k - 1]), float(DRIFT_ALPHA_GRID[k + 1])
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _drift_slope(mid, lns, y, w) > 0.0:
            lo = mid
        else:
            hi = mid
    a = min((lo, hi), key=lambda v: abs(_drift_slope(v, lns, y, w)))
    return a, *_drift_profile(a, lns, y, w)


def _line_ses(x: np.ndarray, w: np.ndarray, chi2_dof: float) -> tuple[float, float]:
    """Standard errors of the slope and the intercept (at x = 0) of a line fitted under weights w, scaled by chi^2/dof."""
    sw = float(np.sum(w))
    xm = float(np.sum(w * x)) / sw
    sxx = float(np.sum(w * (x - xm) ** 2))
    if sxx <= 0.0:
        return math.nan, math.nan
    return math.sqrt(chi2_dof / sxx), math.sqrt(chi2_dof * (1.0 / sw + xm * xm / sxx))


def fit_growth(bins: BinSeries, regime: str = REGIME_ALL) -> GrowthFit:
    """Fit the drift and volatility power laws of either target's bins, as `GrowthFit` describes.

    Only bins with positive std are fitted; at least three must remain,
    at two or more centres, and not every mean may be zero. The drift's
    standard errors are Gauss-Newton's: those of a line in ln s under
    the weights w * fit^2.
    """
    pos = bins.stds > 0
    n = int(np.count_nonzero(pos))
    if n < 3:
        raise InsufficientDataError("need at least 3 retained bins with positive std")
    lns = np.log(bins.centers[pos])
    y = bins.means[pos]
    std = bins.stds[pos]
    counts = bins.counts[pos].astype(np.float64)
    if np.ptp(lns) == 0.0:
        raise InsufficientDataError("all bin centers equal; design is singular")
    if not np.any(y):
        raise InsufficientDataError("all bin means are zero; drift undefined")
    k = 1.0 if bins.target == TARGET_RATIO else 0.0

    w = counts / std**2
    a, u, c, r = _fit_drift(lns, y, w)
    drift_chi2_dof = float(np.sum(w * r * r)) / (n - 2)
    drift_alpha_se, drift_intercept_se = _line_ses(lns, w * (c * u) ** 2, drift_chi2_dof)
    _, c1, _ = _drift_profile(1.0 - k, lns, y, w)

    wv = 2.0 * counts
    v = np.log(std)
    xm = float(np.sum(wv * lns)) / float(np.sum(wv))
    slope = float(np.sum(wv * (lns - xm) * v)) / float(np.sum(wv * (lns - xm) ** 2))
    intercept = float(np.sum(wv * v)) / float(np.sum(wv)) - slope * xm
    vol_chi2_dof = float(np.sum(wv * (v - slope * lns - intercept) ** 2)) / (n - 2)
    vol_alpha_se, vol_intercept_se = _line_ses(lns, wv, vol_chi2_dof)
    return GrowthFit(
        regime=regime,
        alpha_drift=a + k,
        mu_dt=float(c) * math.exp(-float(np.max(a * lns))),
        mu_dt_alpha1=float(c1) * math.exp(-float(np.max((1.0 - k) * lns))),
        alpha_vol=slope + k,
        sigma_sqrtdt=math.exp(intercept),
        drift_alpha_se=drift_alpha_se,
        drift_intercept_se=drift_intercept_se,
        drift_chi2_dof=drift_chi2_dof,
        vol_alpha_se=vol_alpha_se,
        vol_intercept_se=vol_intercept_se,
        vol_chi2_dof=vol_chi2_dof,
        n_bins=n,
    )


def _fit_side(bins: BinSeries, mask: np.ndarray, regime: str) -> GrowthFit | None:
    try:
        return fit_growth(bins.take(mask), regime=regime)
    except InsufficientDataError:
        return None


def split_regimes(bins: BinSeries) -> RegimeSplit:
    """Split a ratio-target bin series at the sign change of the bin means.

    Positive-mean bins form the accumulating (poor) side, negative-mean
    bins the divesting (wealthy) side. The cut maximizing the number of
    positive bins below it plus negative bins above it is chosen (ties
    toward the larger poor side), and the regime boundary s_star is the
    midpoint of the adjacent fit-set centers. When either side of the cut
    holds no sign-consistent bin, s_star is None and each side is fitted
    on all bins of its sign.
    """
    if bins.target != TARGET_RATIO:
        raise MalformedInputError("split_regimes expects a ratio-target bin series")
    if bins.n_bins < 3:
        raise InsufficientDataError("need at least 3 retained bins")
    means = bins.means
    blue = means > 0
    red = means < 0
    # score[cut] = positive bins before the cut + negative bins from it on
    score = np.concatenate(([0], np.cumsum(blue))) + np.concatenate((np.cumsum(red[::-1])[::-1], [0]))
    best_cut = score.size - 1 - int(np.argmax(score[::-1]))
    idx = np.arange(bins.n_bins)
    poor_mask = blue & (idx < best_cut)
    wealthy_mask = red & (idx >= best_cut)

    if np.any(poor_mask) and np.any(wealthy_mask):
        lo = float(bins.centers[poor_mask].max())
        hi = float(bins.centers[wealthy_mask].min())
        s_star = 0.5 * (lo + hi)
    else:
        # one sign only, or a sign structure that does not match the
        # accumulate-low / divest-high model (stray bins or inverted
        # orientation): fit per sign with no boundary
        s_star = None
        poor_mask = blue
        wealthy_mask = red
    return RegimeSplit(
        s_star=s_star,
        poor=_fit_side(bins, poor_mask, REGIME_POOR),
        wealthy=_fit_side(bins, wealthy_mask, REGIME_WEALTHY),
        sign_pattern=[int(v) for v in np.sign(means)],
        n_bins_poor=int(np.count_nonzero(poor_mask)),
        n_bins_wealthy=int(np.count_nonzero(wealthy_mask)),
        settings=dict(bins.settings),
    )


def trend_test(series) -> TrendResult:
    """Mann-Kendall monotonic-trend test on (dt, value) pairs.

    tau is S over the number of pairs; the two-sided p-value uses the
    tie-corrected normal approximation with continuity correction. A
    direction is assigned only below p = `tails.SIGNIFICANCE`. At 0.05
    the fewest points, 4, cannot reach it: their smallest p-value is
    0.089 (|S| = 6); 5 points are the fewest that can (|S| = 10,
    p = 0.027).
    """
    pts = sorted((float(a), float(b)) for a, b in series)
    for i, (a, b) in enumerate(pts):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise MalformedInputError(f"trend point (dt {a}, value {b}) is not finite")
        if i and a == pts[i - 1][0]:  # points taken at one time have no order to test
            raise MalformedInputError(f"more than one trend point at dt {a}")
    v = np.array([b for _, b in pts], dtype=np.float64)
    n = v.size
    if n < _MIN_TREND_POINTS:
        raise InsufficientDataError(f"need at least {_MIN_TREND_POINTS} points for a trend test")
    sign_matrix = np.sign(v[None, :] - v[:, None])
    s = int(np.sum(np.triu(sign_matrix, k=1)))
    _, tie_counts = np.unique(v, return_counts=True)
    var_s = (
        n * (n - 1) * (2 * n + 5) - float(np.sum(tie_counts * (tie_counts - 1) * (2 * tie_counts + 5)))
    ) / 18.0
    n_pairs = n * (n - 1) / 2
    tau = s / n_pairs
    if var_s <= 0:
        return TrendResult(direction="none", tau=tau, p_value=1.0, s=s, var_s=var_s, n=n)
    z = max(abs(s) - 1, 0) / math.sqrt(var_s)  # |z|, continuity-corrected
    p = float(tails._two_sided_p(z))
    if p < tails.SIGNIFICANCE and s != 0:
        direction = "increasing" if s > 0 else "decreasing"
    else:
        direction = "none"
    return TrendResult(direction=direction, tau=tau, p_value=p, s=s, var_s=var_s, n=n)


def _derived_params(split: RegimeSplit, dt_days: int) -> dict:
    out = {}
    for regime, fit in ((REGIME_POOR, split.poor), (REGIME_WEALTHY, split.wealthy)):
        if fit is None:
            continue
        out[regime] = {
            "alpha_drift": fit.alpha_drift,
            "alpha_vol": fit.alpha_vol,
            "mu": fit.mu_dt / dt_days,
            "sigma": fit.sigma_sqrtdt / math.sqrt(dt_days),
        }
    return out


def horizon_sweep(
    snapshots,
    t0: dt.date,
    dts,
    n_bins: int = DEFAULT_N_BINS,
    min_count: int = DEFAULT_MIN_COUNT,
) -> HorizonSweep:
    """Estimate the two-regime growth parameters at each horizon in `dts`.

    Each horizon joins the snapshot at t0 with the one at t0+dt, bins its
    active rows by `bin_panel`, and splits regimes. A horizon is skipped
    with a warning record only for a reason in the data: its snapshot is
    missing, no row is active, the active s0 span too narrow a range to
    bin, or too few bins are retained. Settings that no data could satisfy
    raise before any horizon runs. Derived mu and sigma are per day. A
    regime trend-tested on exactly `_MIN_TREND_POINTS` horizons logs a
    warning, since `trend_test` cannot report a direction from so few.
    Horizons run on a thread per usable CPU (`map_on_cpus`); their
    entries, skips and log lines come out in horizon order.
    """
    dts = list(dts)
    for d in dts:
        if not _whole_int64(d):  # NaN, inf and bool fail too; int() would cut 7.9 to 7
            raise MalformedInputError(f"horizon {d} is not a whole number of days")
    horizons = sorted({int(d) for d in dts})
    if horizons and horizons[0] <= 0:
        raise MalformedInputError(f"horizons must be positive, got {horizons[0]}")
    if n_bins < 2 or min_count < 2:
        raise MalformedInputError(f"n_bins and min_count must be at least 2, got {n_bins} and {min_count}")
    if horizons and horizons[-1] > (dt.date.max - t0).days:
        raise MalformedInputError(f"horizon {horizons[-1]} days from t0 = {t0} ends outside the calendar")
    by_date = {}
    for snap in snapshots:
        if snap.date in by_date:
            raise MalformedInputError(f"duplicate snapshot date {snap.date}")
        by_date[snap.date] = snap
    if t0 not in by_date:
        raise MalformedInputError(f"no snapshot at t0 = {t0}")

    def run(dt_days: int):
        """One horizon as (inactive rows dropped, its entry or its skip record)."""
        date1 = t0 + dt.timedelta(days=dt_days)
        if date1 not in by_date:
            return 0, {"dt_days": dt_days, "reason": f"no snapshot at {date1}"}
        active = filter_active(build_panel(by_date[t0], by_date[date1]))
        removed = active.meta["removed_total"]
        try:
            split = split_regimes(_bin_active(active, n_bins, min_count))
        except InsufficientDataError as exc:  # NoRetainedBinsError too
            return removed, {"dt_days": dt_days, "reason": str(exc)}
        return removed, HorizonEntry(dt_days, split, _derived_params(split, dt_days))

    entries = []
    skipped = []
    # the horizons run on threads; their log lines and results are taken here, in horizon order
    for removed, result in map_on_cpus(run, horizons):
        _log_dropped(removed)
        (entries if isinstance(result, HorizonEntry) else skipped).append(result)

    trends: dict = {}
    for regime in (REGIME_POOR, REGIME_WEALTHY):
        # every parameter of a regime shares the regime's horizons
        series = [(entry.dt_days, entry.derived[regime]) for entry in entries if regime in entry.derived]
        if len(series) == _MIN_TREND_POINTS:
            log.warning("%s: a trend test on %d horizons cannot reach p < %g; %d is the fewest that can",
                        regime, _MIN_TREND_POINTS, tails.SIGNIFICANCE, _MIN_TREND_POINTS + 1)
        if len(series) >= _MIN_TREND_POINTS:
            trends[regime] = {param: trend_test([(d, v[param]) for d, v in series]) for param in SWEEP_PARAMS}
    return HorizonSweep(entries=entries, skipped=skipped, trends=trends)
