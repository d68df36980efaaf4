"""Proportional-growth estimation from transition panels.

The pipeline bins panel rows geometrically by starting balance, takes
per-bin moments of the balance change (absolute or relative), and
regresses the moments against balance to recover the scaling exponents,
the aggregate drift mu*dt, and the aggregate volatility sigma*sqrt(dt).
A sign change in the per-bin mean of ds/s splits the population into the
accumulating ("poor") and divesting ("wealthy") regimes.
"""

import datetime as dt
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    InsufficientDataError,
    MalformedInputError,
    NoRetainedBinsError,
    RegimeMixError,
)
from .panel import TransitionPanel, build_panel, filter_active

TARGET_ABSOLUTE = "absolute"
TARGET_RATIO = "ratio"

DEFAULT_N_BINS = 300
DEFAULT_MIN_COUNT = 50
# fit_drift_abs scans the drift exponent on this grid before bisecting
DRIFT_ALPHA_GRID = np.linspace(-10.0, 10.0, 2001)

REGIME_POOR = "poor"
REGIME_WEALTHY = "wealthy"
REGIME_ALL = "all"

# parameters tracked across horizons, in emission order
SWEEP_PARAMS = ("alpha_drift", "alpha_vol", "mu_dt", "sigma_sqrtdt", "mu", "sigma")


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
class OlsFit:
    slope: float
    intercept: float
    slope_se: float
    intercept_se: float
    r_squared: float
    n: int


@dataclass(frozen=True)
class AbsDriftFit:
    """Least-squares fit of mean(ds) = mu_dt * s^alpha on the linear scale.

    mu_dt carries the drift sign. `alpha_se` is the Gauss-Newton
    standard error of alpha. `mu_dt_alpha1` and `sse_alpha1` are the fit
    with alpha fixed at 1.
    """

    alpha: float
    mu_dt: float
    alpha_se: float
    r_squared: float
    sse: float
    mu_dt_alpha1: float
    sse_alpha1: float


@dataclass(frozen=True)
class AbsVolFit:
    """Log-log regression of std(ds) on balance."""

    alpha: float
    sigma_sqrtdt: float
    alpha_se: float
    intercept_se: float
    r_squared: float
    n_bins_used: int


@dataclass(frozen=True)
class GrowthFit:
    """Regressed growth-process parameters for one regime.

    mu_dt carries the regime sign (positive: accumulation). Standard
    errors refer to the log-space regressions: the alpha errors apply to
    the exponents directly, the intercept errors to ln|mu_dt| and
    ln(sigma_sqrtdt).
    """

    regime: str
    alpha_drift: float
    mu_dt: float
    alpha_vol: float
    sigma_sqrtdt: float
    drift_alpha_se: float
    drift_intercept_se: float
    drift_r_squared: float
    vol_alpha_se: float
    vol_intercept_se: float
    vol_r_squared: float
    n_bins_drift: int
    n_bins_vol: int


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
    star_averaging: str
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
    """Regime split plus per-day derived parameters at one horizon."""

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
    if not (0 < s_min < s_max):
        raise MalformedInputError(f"need 0 < s_min < s_max, got ({s_min}, {s_max})")
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

    Rows are assigned by s0; the last bin includes its upper edge. Rows
    outside the edge range are ignored. Bins with fewer than `min_count`
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
    n_bins = edges.size - 1
    w = ds if target == TARGET_ABSOLUTE else ds / s0
    idx = np.searchsorted(edges, s0, side="right") - 1
    idx[s0 == edges[-1]] = n_bins - 1
    valid = (idx >= 0) & (idx < n_bins) & (s0 >= edges[0]) & (s0 <= edges[-1])
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


def _ols(x: np.ndarray, y: np.ndarray) -> OlsFit:
    n = x.size
    xm = float(x.mean())
    ym = float(y.mean())
    sxx = float(np.sum((x - xm) ** 2))
    if sxx <= 0.0:
        raise InsufficientDataError("regression design is singular (all abscissae equal)")
    slope = float(np.sum((x - xm) * (y - ym))) / sxx
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    sse = float(np.sum(resid**2))
    sst = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if sst == 0.0 else 1.0 - sse / sst
    dof = n - 2
    s2 = sse / dof if dof > 0 else math.nan
    return OlsFit(
        slope=slope,
        intercept=intercept,
        slope_se=math.sqrt(s2 / sxx) if dof > 0 else math.nan,
        intercept_se=math.sqrt(s2 * (1.0 / n + xm * xm / sxx)) if dof > 0 else math.nan,
        r_squared=r2,
        n=n,
    )


def _drift_profile(alpha, lns: np.ndarray, y: np.ndarray):
    """u = s^alpha / max s^alpha, the best amplitude c of y ~ c u, and the residual.

    `alpha` is a scalar or a 1-d grid. Scaling by the largest s^alpha
    keeps u^2 finite for balances up to 2^62 at every alpha scanned.
    """
    a = np.multiply.outer(alpha, lns)
    u = np.exp(a - a.max(axis=-1, keepdims=True))
    c = (u * y).sum(axis=-1) / (u * u).sum(axis=-1)
    return u, c, y - c[..., None] * u


def _drift_slope(alpha: float, lns: np.ndarray, y: np.ndarray) -> float:
    """c * sum(r u ln s): minus half the slope of the profile residual at `alpha`.

    ln s is centred at its u^2-weighted mean. That leaves the value
    unchanged, since sum(r u) = 0 at the best c, and it cancels the
    rounding error of c to first order.
    """
    u, c, r = _drift_profile(alpha, lns, y)
    w = u * u
    return float(c * np.sum(r * u * (lns - np.sum(w * lns) / np.sum(w))))


def fit_drift_abs(bins: BinSeries) -> AbsDriftFit:
    """Fit mean(ds) = mu_dt * s^alpha on the linear scale by a profile in alpha.

    For a fixed alpha the least-squares mu_dt is linear and carries its
    own sign. The profile residual is scanned on `DRIFT_ALPHA_GRID`, and
    the stationarity condition is bisected down to adjacent floats
    between the grid neighbours of the best point. The constrained
    alpha=1 proportional fit is returned alongside for comparison. Runs
    on the linear scale because bin means can carry either sign.
    """
    if bins.target != TARGET_ABSOLUTE:
        raise MalformedInputError("fit_drift_abs expects an absolute-target bin series")
    if bins.n_bins < 3:
        raise InsufficientDataError("need at least 3 retained bins")
    s = bins.centers
    y = bins.means
    if np.unique(s).size < 2:
        raise InsufficientDataError("all bin centers equal; design is singular")
    if not np.any(y):
        raise InsufficientDataError("all bin means are zero; drift undefined")
    lns = np.log(s)
    # blocks of about 100 alphas keep the scan's memory small at any bin count
    blocks = np.array_split(DRIFT_ALPHA_GRID, 20)
    k = int(np.argmin(np.concatenate([np.sum(_drift_profile(b, lns, y)[2] ** 2, axis=-1) for b in blocks])))
    if k in (0, DRIFT_ALPHA_GRID.size - 1):
        raise InsufficientDataError(
            f"the drift exponent's best fit lies at the edge of the scanned range "
            f"[{DRIFT_ALPHA_GRID[0]:g}, {DRIFT_ALPHA_GRID[-1]:g}]"
        )
    lo, hi = float(DRIFT_ALPHA_GRID[k - 1]), float(DRIFT_ALPHA_GRID[k + 1])
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _drift_slope(mid, lns, y) > 0.0:
            lo = mid
        else:
            hi = mid
    alpha = min((lo, hi), key=lambda a: abs(_drift_slope(a, lns, y)))
    u, c, r = _drift_profile(alpha, lns, y)
    mu_dt = float(c) * math.exp(-float(np.max(alpha * lns)))
    sse = float(np.sum(r * r))
    # Gauss-Newton: the alpha entry of (J^T J)^-1 is 1 / (c^2 sum w (ln s - mean)^2), w = u^2
    w = u * u
    spread = float(c * c * np.sum(w * (lns - np.sum(w * lns) / np.sum(w)) ** 2))
    alpha_se = math.sqrt(sse / (bins.n_bins - 2) / spread) if spread > 0.0 else math.nan
    sst = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if sst == 0.0 else 1.0 - sse / sst
    mu1 = float(np.sum(y * s) / np.sum(s * s))
    sse1 = float(np.sum((y - mu1 * s) ** 2))
    return AbsDriftFit(
        alpha=alpha,
        mu_dt=mu_dt,
        alpha_se=alpha_se,
        r_squared=r2,
        sse=sse,
        mu_dt_alpha1=mu1,
        sse_alpha1=sse1,
    )


def _fit_log_std(bins: BinSeries) -> OlsFit:
    """OLS of ln std on ln s over the bins with positive std; at least three must remain."""
    pos = bins.stds > 0
    if np.count_nonzero(pos) < 3:
        raise InsufficientDataError("need at least 3 retained bins with positive std")
    return _ols(np.log(bins.centers[pos]), np.log(bins.stds[pos]))


def fit_vol_abs(bins: BinSeries) -> AbsVolFit:
    """Log-log regression ln std(ds) = alpha ln s + ln(sigma sqrt(dt)).

    Bins with zero standard deviation are excluded; at least three must
    remain.
    """
    if bins.target != TARGET_ABSOLUTE:
        raise MalformedInputError("fit_vol_abs expects an absolute-target bin series")
    fit = _fit_log_std(bins)
    return AbsVolFit(
        alpha=fit.slope,
        sigma_sqrtdt=math.exp(fit.intercept),
        alpha_se=fit.slope_se,
        intercept_se=fit.intercept_se,
        r_squared=fit.r_squared,
        n_bins_used=fit.n,
    )


def fit_ratio(bins: BinSeries, regime: str = REGIME_ALL) -> GrowthFit:
    """Recover (alpha, mu*dt, sigma*sqrt(dt)) from ratio-target bin moments.

    Drift: ln|mean(ds/s)| = (alpha_drift - 1) ln s + ln|mu_dt|, with
    negative means reflected before the log; mu_dt carries the common
    sign. Volatility: ln std(ds/s) = (alpha_vol - 1) ln s +
    ln(sigma_sqrtdt). All retained bin means must share one sign.
    """
    if bins.target != TARGET_RATIO:
        raise MalformedInputError("fit_ratio expects a ratio-target bin series")
    if bins.n_bins < 3:
        raise InsufficientDataError("need at least 3 retained bins")
    means = bins.means
    has_pos = bool(np.any(means > 0))
    has_neg = bool(np.any(means < 0))
    if (has_pos and has_neg) or np.any(means == 0):
        raise RegimeMixError(
            "bin means carry mixed signs; split into regimes before fitting"
        )
    sign = 1.0 if has_pos else -1.0
    drift = _ols(np.log(bins.centers), np.log(sign * means))
    vol = _fit_log_std(bins)
    return GrowthFit(
        regime=regime,
        alpha_drift=drift.slope + 1.0,
        mu_dt=sign * math.exp(drift.intercept),
        alpha_vol=vol.slope + 1.0,
        sigma_sqrtdt=math.exp(vol.intercept),
        drift_alpha_se=drift.slope_se,
        drift_intercept_se=drift.intercept_se,
        drift_r_squared=drift.r_squared,
        vol_alpha_se=vol.slope_se,
        vol_intercept_se=vol.intercept_se,
        vol_r_squared=vol.r_squared,
        n_bins_drift=drift.n,
        n_bins_vol=vol.n,
    )


def _fit_side(bins: BinSeries, mask: np.ndarray, regime: str) -> GrowthFit | None:
    if np.count_nonzero(mask) < 3:
        return None
    try:
        return fit_ratio(bins.take(mask), regime=regime)
    except InsufficientDataError:
        return None


def split_regimes(bins: BinSeries, star_log_scale: bool = False) -> RegimeSplit:
    """Split a ratio-target bin series at the sign change of the bin means.

    Positive-mean bins form the accumulating (poor) side, negative-mean
    bins the divesting (wealthy) side. The cut maximizing the number of
    positive bins below it plus negative bins above it is chosen (ties
    toward the larger poor side), and the regime boundary s_star
    averages the adjacent fit-set centers, linearly by default or
    geometrically with `star_log_scale`. When either side of the cut
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
        s_star = math.sqrt(lo * hi) if star_log_scale else 0.5 * (lo + hi)
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
        star_averaging="geometric" if star_log_scale else "linear",
        settings=dict(bins.settings),
    )


def trend_test(series) -> TrendResult:
    """Mann-Kendall monotonic-trend test on (dt, value) pairs.

    tau is S over the number of pairs; the two-sided p-value uses the
    tie-corrected normal approximation with continuity correction. A
    direction is assigned only below p = 0.05.
    """
    pts = sorted((float(a), float(b)) for a, b in series)
    v = np.array([b for _, b in pts], dtype=np.float64)
    n = v.size
    if n < 4:
        raise InsufficientDataError("need at least 4 points for a trend test")
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
    if s > 0:
        z = (s - 1) / math.sqrt(var_s)
    elif s < 0:
        z = (s + 1) / math.sqrt(var_s)
    else:
        z = 0.0
    from scipy.special import ndtr  # loaded on first use: of the commands, only `sweep` needs it

    p = 2.0 * float(ndtr(-abs(z)))
    if p < 0.05 and s != 0:
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
            "mu_dt": fit.mu_dt,
            "sigma_sqrtdt": fit.sigma_sqrtdt,
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
    star_log_scale: bool = False,
) -> HorizonSweep:
    """Estimate the two-regime growth parameters at each horizon in `dts`.

    Each horizon joins the snapshot at t0 with the one at t0+dt, keeps
    active rows, bins the relative change, and splits regimes. Horizons
    whose snapshot is missing (or whose estimation degenerates) are
    skipped with a warning record. Derived mu and sigma are per day.
    """
    by_date = {}
    for snap in snapshots:
        if snap.date in by_date:
            raise MalformedInputError(f"duplicate snapshot date {snap.date}")
        by_date[snap.date] = snap
    if t0 not in by_date:
        raise MalformedInputError(f"no snapshot at t0 = {t0}")
    entries = []
    skipped = []
    for dt_days in sorted({int(d) for d in dts}):
        date1 = t0 + dt.timedelta(days=dt_days)
        if date1 not in by_date:
            skipped.append({"dt_days": dt_days, "reason": f"no snapshot at {date1}"})
            continue
        active = filter_active(build_panel(by_date[t0], by_date[date1]))
        if active.n_rows == 0:
            skipped.append({"dt_days": dt_days, "reason": "no active rows"})
            continue
        s0 = active.s0
        try:
            edges = make_bins(float(s0.min()), float(s0.max()), n_bins)
            bins = bin_moments(active, edges, min_count=min_count, target=TARGET_RATIO)
            split = split_regimes(bins, star_log_scale=star_log_scale)
        except (NoRetainedBinsError, InsufficientDataError, MalformedInputError) as exc:
            skipped.append({"dt_days": dt_days, "reason": str(exc)})
            continue
        entries.append(
            HorizonEntry(dt_days=dt_days, split=split, derived=_derived_params(split, dt_days))
        )

    trends: dict = {}
    for regime in (REGIME_POOR, REGIME_WEALTHY):
        # every parameter of a regime shares the regime's horizons
        series = [(entry.dt_days, entry.derived[regime]) for entry in entries if regime in entry.derived]
        if len(series) >= 4:
            trends[regime] = {param: trend_test([(d, v[param]) for d, v in series]) for param in SWEEP_PARAMS}
    return HorizonSweep(entries=entries, skipped=skipped, trends=trends)
