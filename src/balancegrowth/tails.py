"""Tail-model fitting and comparison for heavy-tailed balance data.

Two candidate families for the upper tail: a continuous power law and a
truncated log-normal. Fits use x >= xmin membership; the Wilks-type
exponentiality test uses x > threshold so the log-transformed tail is
strictly positive.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from ._rng import substream
from .errors import (
    DegenerateTailError,
    FitConvergenceError,
    InsufficientDataError,
    MalformedInputError,
)

POWER_LAW = "power_law"
LOG_NORMAL = "log_normal"
INCONCLUSIVE = "inconclusive"

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# delta = m/v below this is treated as the exponential boundary of the
# truncated-normal family; reported boundary fits anchor much deeper
_DELTA_FLOOR = -38.0
_DELTA_BOUNDARY = -4000.0
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
# truncated-normal kernels: delta <= -_CF_SWITCH uses a continued fraction
# of this depth (chosen against 40-digit references); the shape solve
# keeps brentq's tolerances
_CF_SWITCH = 2.0
_CF_DEPTH = 160
_XTOL = 1e-13
_RTOL = 8.9e-16
_MAXITER = 200
# xmin scan: probe points per tail for the KS lower bound, candidates per
# bound block, and the slack that keeps the bound below the full KS
_KS_PROBES = 32
_KS_BLOCK = 4096
_KS_SLACK = 1e-12
# UMPU Monte Carlo: exponential draws per block of replicates
_REP_BLOCK = 1 << 16

_EMPTY_DATA = "data must be a non-empty array of positive finite values"
_FEW_TAIL = "need at least 2 tail values >= xmin, got {}"
_FLAT_TAIL = "all tail values equal xmin; power-law exponent undefined"
_FEW_DISTINCT = "need at least 2 distinct tail values for a log-normal fit"


@dataclass(frozen=True)
class TailFitResult:
    """One fitted tail model.

    `alpha` is set for the power law (exponent > 1); `m` and `v` are the
    location/scale of ln(x) for the log-normal. The log-likelihood is of
    the tail under the fitted, tail-normalized density. A power law with
    a scanned xmin carries the scan's counts: candidates scanned and full
    KS evaluations made. A truncated log-normal sets
    `exponential_boundary` when its likelihood supremum is the family's
    exponential limit, i.e. the power law itself.
    """

    family: str
    xmin: float
    n_tail: int
    log_likelihood: float
    ks_distance: float
    alpha: float | None = None
    m: float | None = None
    v: float | None = None
    xmin_candidates: int | None = None
    ks_full_evaluations: int | None = None
    exponential_boundary: bool | None = None

    def to_dict(self) -> dict:
        out = {k: v for k, v in vars(self).items() if v is not None}
        diagnostics = {k: out.pop(k) for k in ("xmin_candidates", "ks_full_evaluations") if k in out}
        if diagnostics:
            out["diagnostics"] = diagnostics
        return {**out, "unit": "satoshi"}


@dataclass(frozen=True)
class ComparisonResult:
    """Normalized log-likelihood-ratio comparison of the two tail fits.

    Positive `normalized_lr` favors the power law. `preferred` is
    'inconclusive' exactly when the two-sided p-value exceeds the
    significance level.
    """

    xmin: float
    normalized_lr: float
    p_value: float
    preferred: str
    n_tail: int
    significance: float

    def to_dict(self) -> dict:
        return {
            **vars(self),
            "lr_normalization": "sum / (sqrt(n) * sample std of pointwise log-ratios)",
            "unit": "satoshi",
        }


@dataclass(frozen=True)
class UmpuResult:
    """Exponentiality-vs-truncated-normality test on a log-transformed tail.

    `rank` counts how many of the largest data points the tail holds
    (1 = largest datum included). `wilks_w` is twice the maximized
    log-likelihood gap, clamped at zero where the alternative's supremum
    sits on its exponential boundary.
    """

    threshold: float
    rank: int
    n_tail: int
    wilks_w: float
    p_value: float
    method: str


def _positive_array(data) -> np.ndarray:
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 1:
        x = x.ravel()
    if x.size == 0 or np.any(~np.isfinite(x)) or np.any(x <= 0):
        raise MalformedInputError(_EMPTY_DATA)
    return x


def powerlaw_logpdf(x, alpha: float, xmin: float) -> np.ndarray:
    """Log-density of the tail-normalized continuous power law."""
    x = np.asarray(x, dtype=np.float64)
    return math.log(alpha - 1.0) - math.log(xmin) - alpha * np.log(x / xmin)


def lognormal_logpdf(x, m: float, v: float, xmin: float) -> np.ndarray:
    """Log-density of the log-normal renormalized to x >= xmin (xmin <= 0: untruncated)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.log(x)
    if xmin > 0:
        log_l = math.log(xmin)
        return _tn_logpdf(np.log(x / xmin), (m - log_l) / v, v) - y
    return -y - math.log(v) - _LOG_SQRT_2PI - (y - m) ** 2 / (2.0 * v * v)


def _tn_logpdf(z, delta: float, v: float) -> np.ndarray:
    """Log-density at z >= 0 of the normal with mean delta * v and scale v truncated to z > 0.

    For delta < 0 the delta^2/2 in the exponent and in ln Phi(delta)
    cancel analytically, leaving ln(lambda/v) - w (w/2 - delta) with
    w = z/v; near the exponential boundary (delta far below 0) the
    direct form would subtract two terms of size delta^2/2.
    """
    w = np.asarray(z, dtype=np.float64) / v
    if delta < 0.0:
        lam = float(_tn_moments(np.array([delta]))[0][0])
        return math.log(lam / v) - w * (0.5 * w - delta)
    return -0.5 * (w - delta) ** 2 - math.log(v) - _LOG_SQRT_2PI - float(special.log_ndtr(delta))


def _ks_distance(sorted_tail: np.ndarray, cdf: np.ndarray) -> float:
    n = sorted_tail.size
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(max(np.max(cdf - (i - 1.0) / n), np.max(i / n - cdf)))


def _powerlaw_ks(sorted_tail: np.ndarray, alpha: float, xmin: float) -> float:
    cdf = 1.0 - (xmin / sorted_tail) ** (alpha - 1.0)
    return _ks_distance(sorted_tail, cdf)


def _lognormal_ks(sorted_tail: np.ndarray, m: float, v: float, xmin: float) -> float:
    z = (np.log(sorted_tail) - m) / v
    if xmin > 0:
        # survival form, stable when the tail mass above xmin underflows
        z0 = (math.log(xmin) - m) / v
        cdf = -np.expm1(special.log_ndtr(-z) - special.log_ndtr(-z0))
    else:
        cdf = special.ndtr(z)
    return _ks_distance(sorted_tail, cdf)


def _powerlaw_mle(sorted_tail: np.ndarray, xmin: float) -> tuple[float, float]:
    n = sorted_tail.size
    s = float(np.sum(np.log(sorted_tail / xmin)))
    if s <= 0.0:
        raise DegenerateTailError(_FLAT_TAIL)
    alpha = 1.0 + n / s
    loglik = n * math.log(alpha - 1.0) - n * math.log(xmin) - alpha * s
    return alpha, loglik


def _ks_lower_bounds(x: np.ndarray, cand: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Lower bounds on `_powerlaw_ks` for every candidate tail x[i:].

    The KS distance is a maximum over the tail's points; the same
    elementwise CDF gap taken at `_KS_PROBES` evenly ranked points of
    each tail can only be smaller. Computed in candidate blocks to keep
    the extra memory at a few MB.
    """
    n = x.size
    q = np.linspace(0.0, 1.0, _KS_PROBES)
    out = np.empty(cand.size)
    for lo in range(0, cand.size, _KS_BLOCK):
        i = cand[lo : lo + _KS_BLOCK]
        n_t = n - i
        k = 1 + np.floor(q * (n_t - 1)[:, None]).astype(np.int64)  # 1-based ranks within each tail
        cdf = 1.0 - (x[i][:, None] / x[i[:, None] + k - 1]) ** (alpha[lo : lo + _KS_BLOCK] - 1.0)[:, None]
        n_t = n_t[:, None]
        gap = np.maximum(cdf - (k - 1.0) / n_t, k / n_t - cdf)
        out[lo : lo + _KS_BLOCK] = gap.max(axis=1)
    # absorbs last-bit differences between blocked and per-tail powers
    return out - _KS_SLACK


def fit_power_law(data, xmin: float | None = None, max_candidates: int | None = None) -> TailFitResult:
    """Continuous power-law tail fit by maximum likelihood.

    With `xmin` given, the exponent is the closed form
    1 + n / sum(ln(x_i/xmin)) over the tail x >= xmin. With `xmin`
    absent, candidate cutoffs are scanned over the distinct data values
    and the one minimizing the KS distance between fitted and empirical
    tail CDFs wins, ties going to the lowest cutoff; `max_candidates`
    caps the scan by even decimation. The scan is an exact branch and
    bound: every candidate's exponent comes from suffix sums, a cheap KS
    lower bound ranks the candidates, and the full KS distance is
    evaluated in bound order until the bound exceeds the best distance
    found. The result equals the exhaustive scan's; the number of
    candidates and of full KS evaluations is reported in the fit's
    diagnostics.
    """
    x = np.sort(_positive_array(data))
    if xmin is not None:
        if xmin <= 0:
            raise MalformedInputError("xmin must be positive")
        tail = x[x >= xmin]
        if tail.size < 2:
            raise InsufficientDataError(_FEW_TAIL.format(tail.size))
        alpha, loglik = _powerlaw_mle(tail, xmin)
        return TailFitResult(
            family=POWER_LAW,
            xmin=float(xmin),
            n_tail=int(tail.size),
            log_likelihood=loglik,
            ks_distance=_powerlaw_ks(tail, alpha, xmin),
            alpha=alpha,
        )

    n = x.size
    if n < 2:
        raise InsufficientDataError("need at least 2 values to scan xmin")
    logx = np.log(x)
    suffix = np.cumsum(logx[::-1])[::-1]
    first_idx = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    cand = first_idx[n - first_idx >= 2]
    if cand.size == 0:
        raise DegenerateTailError("all values equal; power-law exponent undefined")
    if max_candidates is not None and cand.size > max_candidates:
        pick = np.unique(np.linspace(0, cand.size - 1, max_candidates).round().astype(int))
        cand = cand[pick]
    n_cand = cand.size
    n_t = n - cand
    s = suffix[cand] - n_t * logx[cand]
    keep = s > 0.0
    cand, n_t, s = cand[keep], n_t[keep], s[keep]
    if cand.size == 0:
        raise DegenerateTailError("no candidate xmin leaves a non-degenerate tail")
    alphas = 1.0 + n_t / s
    bounds = _ks_lower_bounds(x, cand, alphas)
    best = None
    evaluations = 0
    for c in np.argsort(bounds, kind="stable"):
        if best is not None and bounds[c] > best[0]:
            break
        i = cand[c]
        ks = _powerlaw_ks(x[i:], alphas[c], x[i])
        evaluations += 1
        if best is None or ks < best[0] or (ks == best[0] and i < best[1]):
            best = (ks, i, alphas[c], s[c])
    ks, i, alpha, s = best
    n_t = n - i
    loglik = n_t * math.log(alpha - 1.0) - n_t * logx[i] - alpha * s
    return TailFitResult(
        family=POWER_LAW,
        xmin=float(x[i]),
        n_tail=int(n_t),
        log_likelihood=float(loglik),
        ks_distance=float(ks),
        alpha=float(alpha),
        xmin_candidates=int(n_cand),
        ks_full_evaluations=evaluations,
    )


def _tn_moments(d) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(lambda, E[Z], E[Z^2], E[Z^2]/E[Z]^2 - 1) elementwise, for Z ~ N(d, 1) conditioned on Z > 0.

    lambda = phi(d)/Phi(d) is the inverse Mills ratio. For d <= -_CF_SWITCH,
    with x = -d and t = 2/(x + 3/(x + 4/(x + ...))) from the continued
    fraction of the Mills ratio, E[Z] = 1/(x + t), E[Z^2] = t/(x + t) and
    the ratio is t (x + t): nothing is subtracted. Above the switch,
    lambda = sqrt(2/pi)/erfcx(-d/sqrt(2)); for d > 0 the exponent of
    phi(d) is taken exactly, so lambda keeps its digits far out.
    Against 40-digit references every output is within about 1e-14
    relative over d in [-4000, 40].
    """
    d = np.asarray(d, dtype=np.float64)
    lam, e1, e2, q = (np.empty_like(d) for _ in range(4))
    deep = d <= -_CF_SWITCH
    x = -d[deep]
    t = np.zeros_like(x)
    for k in range(_CF_DEPTH + 1, 1, -1):
        t = k / (x + t)
    s = x + t
    e1[deep] = 1.0 / s
    e2[deep] = t / s
    q[deep] = t * s - 1.0
    lam[deep] = x + e1[deep]
    near = ~deep
    dn = d[near]
    up = dn > 0.0
    ln = _SQRT_2_OVER_PI / special.erfcx(-dn / math.sqrt(2.0))
    du = dn[up]
    sq = du * du
    # Veltkamp split: sq + err == du * du exactly
    c = 134217729.0 * du
    hi = c - (c - du)
    lo = du - hi
    err = ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo
    ln[up] = np.exp(-0.5 * sq) * (1.0 - 0.5 * err) / (_SQRT_2PI * special.ndtr(du))
    m1 = dn + ln
    lam[near] = ln
    e1[near] = m1
    e2[near] = 1.0 + dn * m1
    q[near] = (1.0 - ln * m1) / (m1 * m1)
    return lam, e1, e2, q


def _tn_shape(ratio) -> np.ndarray:
    """delta = m/v of the truncated-at-0 normal whose moment ratio E[Z^2]/E[Z]^2 is `ratio`, per element.

    NaN marks the exponential boundary: no interior optimum exists when
    the ratio is at or above its value at delta = _DELTA_FLOOR (sample
    coefficient of variation near or above 1). Each element runs its own
    bracketed Newton iteration on E[Z^2]/E[Z]^2 - 1 in
    [_DELTA_FLOOR, max(40, 2/sqrt(ratio - 1))], bisecting when a step
    leaves the bracket, and stops when its step is within
    _XTOL + _RTOL |delta|; an element's result does not depend on the
    others solved with it.
    """
    ratio = np.asarray(ratio, dtype=np.float64)
    if np.any(ratio <= 1.0 + 1e-13):
        raise DegenerateTailError("tail has no spread after log transform")
    target = ratio - 1.0
    delta = np.full(ratio.shape, np.nan)
    q_floor = _tn_moments(np.array([_DELTA_FLOOR]))[3][0]
    inner = np.flatnonzero(target < q_floor)
    c = target[inner]
    lo = np.full(c.shape, _DELTA_FLOOR)
    hi = np.maximum(40.0, 2.0 / np.sqrt(c))
    if np.any(_tn_moments(hi)[3] >= c):
        raise FitConvergenceError("truncated-normal profile solve failed: root not bracketed")
    # exact in both limits: delta -> -inf (ratio -> 2) and delta -> inf (ratio -> 1)
    d = np.clip(1.0 / np.sqrt(c) - np.sqrt(2.0 / (1.0 - c)), lo, hi)
    live = np.arange(c.size)
    for _ in range(_MAXITER):
        if live.size == 0:
            break
        dl, l, h = d[live], lo[live], hi[live]
        lam, e1, _, q = _tn_moments(dl)
        f = q - c[live]
        # q is decreasing: the root lies above dl where f > 0
        l = np.where(f > 0.0, dl, l)
        h = np.where(f > 0.0, h, dl)
        step = f / (lam * (1.0 - q) - 2.0 * q * q * e1)
        new = np.where(f == 0.0, dl, dl - step)
        done = (f == 0.0) | (np.abs(step) <= _XTOL + _RTOL * np.abs(dl))
        bisect = ~done & ~((new > l) & (new < h))
        new = np.where(bisect, 0.5 * (l + h), new)
        done |= bisect & (h - l <= 2.0 * (_XTOL + _RTOL * np.abs(new)))
        d[live], lo[live], hi[live] = new, l, h
        live = live[~done]
    if live.size:
        raise FitConvergenceError(f"truncated-normal profile solve failed to converge for {live.size} tails")
    delta[inner] = d
    return delta


def _tn_mle(zbar, m2) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Truncated-at-0 normal MLE by moment matching, per tail of non-negative
    values z with mean `zbar` and mean square `m2`.

    Returns arrays (delta, v, gain, boundary); the location is m = delta * v.
    `gain` is the mean log-likelihood gain per value over the exponential
    MLE (rate 1/zbar). At the solution it depends on delta alone:
    E[Z^2]/2 + log(1 - Var Z), or, for delta > 0 where Var Z nears 1,
    1/2 + delta lambda/2 - ln sqrt(2 pi) - ln Phi(delta) + ln E[Z];
    neither form subtracts the large terms of the two log-likelihoods.
    Where the sample coefficient of variation is near or above 1 no
    interior optimum exists (the supremum is the exponential limit of
    the family): `boundary` is set, `gain` is 0, and the nearest
    in-family parameters at delta = _DELTA_BOUNDARY are returned, their
    log-likelihood within machine precision of the supremum.
    """
    zbar = np.atleast_1d(np.asarray(zbar, dtype=np.float64))
    delta = _tn_shape(np.atleast_1d(m2) / (zbar * zbar))
    boundary = np.isnan(delta)
    delta[boundary] = _DELTA_BOUNDARY
    lam, e1, e2, q = _tn_moments(delta)
    # the branch not taken may see Var Z >= 1 from rounding
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = np.where(
            delta > 0.0,
            0.5 + 0.5 * delta * lam - _LOG_SQRT_2PI - special.log_ndtr(delta) + np.log(e1),
            0.5 * e2 + np.log1p(-q * e1 * e1),
        )
    return delta, zbar / e1, np.where(boundary, 0.0, gain), boundary


def fit_lognormal(data, xmin: float) -> TailFitResult:
    """Truncated log-normal tail fit by maximum likelihood.

    The density is renormalized by the upper-tail mass above `xmin`
    (xmin <= 0 means no truncation, where the fit is the closed-form
    population moments of ln x). The truncated case is solved exactly by
    matching the first two moments of ln(x/xmin), a root solve in the
    profiled shape parameter; heavy tails whose likelihood supremum sits
    on the family's exponential boundary get the nearest in-family
    parameters and `exponential_boundary` set. Requires at least two
    distinct tail values.
    """
    x = _positive_array(data)
    tail = x[x >= xmin] if xmin > 0 else x
    n = tail.size
    if n < 2 or np.unique(tail).size < 2:
        raise InsufficientDataError(_FEW_DISTINCT)
    y = np.log(tail)
    boundary = None
    if xmin > 0:
        log_l = math.log(xmin)
        z = y - log_l
        (delta,), (v_hat,), _, (boundary,) = _tn_mle(z.mean(), np.mean(z * z))
        v_hat = float(v_hat)
        m_hat = float(delta * v_hat) + log_l
        boundary = bool(boundary)
    else:
        m_hat = float(y.mean())
        v_hat = float(y.std())
    loglik = float(np.sum(lognormal_logpdf(tail, m_hat, v_hat, xmin)))
    return TailFitResult(
        family=LOG_NORMAL,
        xmin=float(xmin),
        n_tail=int(n),
        log_likelihood=loglik,
        ks_distance=_lognormal_ks(np.sort(tail), m_hat, v_hat, xmin),
        m=m_hat,
        v=v_hat,
        exponential_boundary=boundary,
    )


def normalized_loglik_ratio(pointwise_diff: np.ndarray) -> tuple[float, float]:
    """Normalized LR statistic and two-sided normal p from per-point log-density gaps.

    Degenerate spread (identical per-point likelihood gaps) yields
    (nan, 1.0): the comparison carries no information.
    """
    d = np.asarray(pointwise_diff, dtype=np.float64)
    n = d.size
    sd = float(d.std(ddof=1)) if n > 1 else 0.0
    scale = float(np.max(np.abs(d))) if n else 0.0
    if not math.isfinite(sd) or sd <= 1e-9 * scale or sd == 0.0:
        return math.nan, 1.0
    nlr = float(d.sum()) / (math.sqrt(n) * sd)
    return nlr, float(special.erfc(abs(nlr) / math.sqrt(2.0)))


def _preference(nlr: float, p: float, significance: float) -> str:
    if p > significance or math.isnan(nlr):
        return INCONCLUSIVE
    return POWER_LAW if nlr > 0 else LOG_NORMAL


def _compare_fits(
    data: np.ndarray, pl: TailFitResult, ln: TailFitResult, significance: float = 0.05
) -> ComparisonResult:
    """Normalized LR comparison of a power-law and a log-normal fit made at the same xmin."""
    xmin = pl.xmin
    tail = data[data >= xmin]
    if ln.exponential_boundary:
        # the log-normal MLE degenerated to its exponential boundary,
        # i.e. to the power law itself: the models are indistinguishable
        nlr, p = math.nan, 1.0
    else:
        # both densities in z = ln(x/xmin): the Jacobian 1/x cancels from the gap
        z = np.log(tail / xmin)
        delta = (ln.m - math.log(xmin)) / ln.v
        diff = math.log(pl.alpha - 1.0) - (pl.alpha - 1.0) * z - _tn_logpdf(z, delta, ln.v)
        nlr, p = normalized_loglik_ratio(diff)
    return ComparisonResult(
        xmin=xmin,
        normalized_lr=nlr,
        p_value=p,
        preferred=_preference(nlr, p, significance),
        n_tail=int(tail.size),
        significance=significance,
    )


def compare_tails(data, xmin: float, significance: float = 0.05) -> ComparisonResult:
    """Fit both tail families above `xmin` and compare them by normalized LR.

    Positive statistic favors the power law. The preference is
    'inconclusive' whenever the p-value exceeds `significance`.
    """
    x = _positive_array(data)
    tail = x[x >= xmin]
    return _compare_fits(tail, fit_power_law(tail, xmin=xmin), fit_lognormal(tail, xmin), significance)


def _tail_power_sums(x: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Sums of ln(x[i]/x[c])^k over i >= c, k = 1..4, for increasing distinct cuts c; one row per cut.

    `x` is sorted and positive. A tail is the block up to the next cut,
    summed about its own first value, plus the next tail shifted onto
    that value; every term of the shift is non-negative, so no sum
    cancels.
    """
    ends = np.append(cuts[1:], x.size)
    w = np.log(x[cuts[0] :] / np.repeat(x[cuts], ends - cuts))
    wk = np.ones_like(w)
    blocks = np.empty((cuts.size, 4))
    for k in range(4):
        wk *= w
        blocks[:, k] = np.add.reduceat(wk, cuts - cuts[0])
    gaps = np.append(np.log(x[cuts[1:]] / x[cuts[:-1]]), 0.0).tolist()
    sizes = (ends - cuts).tolist()
    blocks = blocks.tolist()
    out = [None] * cuts.size
    n = s1 = s2 = s3 = s4 = 0.0
    for j in range(cuts.size - 1, -1, -1):
        a = gaps[j]
        a2 = a * a
        b1, b2, b3, b4 = blocks[j]
        s4 = b4 + s4 + 4.0 * a * s3 + 6.0 * a2 * s2 + 4.0 * a2 * a * s1 + a2 * a2 * n
        s3 = b3 + s3 + 3.0 * a * s2 + 3.0 * a2 * s1 + a2 * a * n
        s2 = b2 + s2 + 2.0 * a * s1 + a2 * n
        s1 = b1 + s1 + a * n
        n += sizes[j]
        out[j] = (s1, s2, s3, s4)
    return np.array(out).reshape(-1, 4)


def _sweep_lr(n, p, y_lo, y_hi) -> tuple[np.ndarray, np.ndarray]:
    """Normalized LR and p-value per tail of y = ln(x/xmin), from the
    means `p` of (y - y_lo)^k, k = 1..4, where y_lo is the tail's
    smallest y and y_hi its largest.

    Both fits depend on the data only through the first two moments, and
    the pointwise log-density gap is a quadratic in u = y - mean(y):
    -gain + slope u + q (u^2 - mu2), with gain from `_tn_mle`,
    q = 1/(2 v^2) and slope = -2 q mu2 / mean(y) (= -Var(Z)/mean(y) at
    the fit); its mean and variance follow from the central moments
    mu2..mu4 of y. Rows whose log-normal fit is on the exponential
    boundary, or whose gap has no spread, give (NaN, 1).
    """
    p1, p2, p3, p4 = p
    ybar = y_lo + p1
    _, v, gain, boundary = _tn_mle(ybar, p2 + y_lo * (2.0 * p1 + y_lo))
    q = 0.5 / (v * v)
    mu2 = p2 - p1 * p1
    slope = -2.0 * q * mu2 / ybar
    mu3 = p3 - 3.0 * p1 * p2 + 2.0 * p1**3
    mu4 = p4 - 4.0 * p1 * p3 + 6.0 * p1 * p1 * p2 - 3.0 * p1**4
    var = slope * slope * mu2 + 2.0 * slope * q * mu3 + q * q * (mu4 - mu2 * mu2)
    with np.errstate(invalid="ignore"):
        sd = np.sqrt(np.maximum(var, 0.0) * n / (n - 1.0))
    u_lo, u_hi = -p1, y_hi - ybar
    vertex = np.clip(-slope / (2.0 * q), u_lo, u_hi)
    scale = np.max([np.abs(slope * u + q * (u * u - mu2) - gain) for u in (u_lo, u_hi, vertex)], axis=0)
    flat = boundary | ~np.isfinite(sd) | (sd <= 1e-9 * scale) | (sd == 0.0)
    nlr = np.where(flat, np.nan, -np.sqrt(n) * gain / np.where(flat, 1.0, sd))
    p_value = np.where(flat, 1.0, special.erfc(np.abs(nlr) / math.sqrt(2.0)))
    return nlr, p_value


def threshold_sweep(
    data, start: float, step: float, min_tail: int = 100, significance: float = 0.05
) -> list[ComparisonResult]:
    """Repeat the tail comparison on the arithmetic threshold grid start, start+step, ...

    Stops at the first threshold whose tail retains fewer than
    `min_tail` points. Each row equals `compare_tails` at its threshold
    up to rounding, without refitting: after one sort every tail is
    located by binary search, and both fits and the normalized LR come
    from suffix power sums of ln x (degree 1 to 4), so a threshold costs
    O(1), and the log-normal shape of every threshold comes from one
    batched solve. Per-tail KS distances are not computed.
    """
    if start <= 0 or step <= 0:
        raise MalformedInputError("start and step must be positive")
    x = np.sort(_positive_array(data))
    n = x.size
    if min_tail > n:
        return []
    # the grid runs while tails keep min_tail points; with min_tail < 1
    # it runs into the first empty tail, which raises below
    last = x[n - max(min_tail, 1)]
    k_last = math.floor((last - start) / step)
    while k_last >= 0 and start + k_last * step > last:
        k_last -= 1
    while start + (k_last + 1) * step <= last:
        k_last += 1
    thr = start + np.arange(k_last + 1 + (min_tail < 1)) * float(step)
    if thr.size == 0:
        return []
    cut = np.searchsorted(x, thr, side="left")
    # tails only shrink along the grid, so the ones compare_tails rejects come
    # last; the rows before the first of them are solved (and may raise) first
    bad = (cut >= n - 1) | (x[-1] == thr) | (x[np.minimum(cut, n - 1)] == x[-1])
    k = int(np.argmax(bad)) if bad.any() else thr.size
    n_t = n - cut[:k]
    if k:
        tails_at = np.unique(cut[:k])
        sums = _tail_power_sums(x, tails_at)[np.searchsorted(tails_at, cut[:k])]
        y_lo, y_hi = np.log(x[cut[:k]] / thr[:k]), np.log(x[-1] / thr[:k])
        nlr, p_value = _sweep_lr(n_t, (sums / n_t[:, None]).T, y_lo, y_hi)
    if k < thr.size:
        if cut[k] >= n:
            raise MalformedInputError(_EMPTY_DATA)
        if cut[k] == n - 1:
            raise InsufficientDataError(_FEW_TAIL.format(1))
        if x[-1] == thr[k]:
            raise DegenerateTailError(_FLAT_TAIL)
        raise InsufficientDataError(_FEW_DISTINCT)
    return [
        ComparisonResult(
            xmin=t,
            normalized_lr=float(r),
            p_value=float(pv),
            preferred=_preference(float(r), float(pv), significance),
            n_tail=int(size),
            significance=significance,
        )
        for t, r, pv, size in zip(thr.tolist(), nlr, p_value, n_t.tolist())
    ]


def _umpu_statistic(n, ybar, m2) -> tuple[np.ndarray, np.ndarray]:
    """(moment ratio m2/mean^2, Wilks statistic) per log-transformed tail of n values with mean `ybar`
    and mean square `m2`; the statistic is 0 where the alternative's fit is on its boundary."""
    ybar, m2 = np.atleast_1d(ybar, m2)
    gain = _tn_mle(ybar, m2)[2]
    return m2 / (ybar * ybar), 2.0 * n * np.maximum(gain, 0.0)


def _null_exceedances(seed, mc_reps: int, sizes: np.ndarray, ratios: np.ndarray) -> np.ndarray:
    """Per tail, how many of `mc_reps` exponential-null replicates have a
    moment ratio at or below the tail's.

    Replicate `rep` is the stream substream(seed, rep); a tail of size n
    uses its first n draws, whose ratio n sum(z^2) / sum(z)^2 is
    scale-free, so the null needs no fitted scale. Prefix sums give the
    ratio at every size from one stream, and replicates are processed in
    blocks of about `_REP_BLOCK` draws.
    """
    n_max = int(sizes.max())
    block = max(1, _REP_BLOCK // n_max)
    k = np.arange(1.0, n_max + 1.0)
    counts = np.zeros(sizes.size, dtype=np.int64)
    for lo in range(0, mc_reps, block):
        z = np.empty((min(block, mc_reps - lo), n_max))
        for row in range(z.shape[0]):
            substream(seed, lo + row).standard_exponential(out=z[row])
        # the ratio k sum(z^2) / sum(z)^2 at every size k, in place
        s1 = np.cumsum(z, axis=1)
        np.multiply(z, z, out=z)
        s2 = np.cumsum(z, axis=1)
        s2 *= k
        s1 *= s1
        s2 /= s1
        counts += np.count_nonzero(s2[:, sizes - 1] <= ratios, axis=0)
    return counts


def _umpu_results(thresholds, ranks, sizes, ratios, wilks, mc_reps: int, seed, method: str) -> list[UmpuResult]:
    """One result per tail test, given column-wise; all tests share the replicates."""
    if method not in ("monte_carlo", "asymptotic"):
        raise ValueError(f"unknown p-value method: {method!r}")
    if method == "monte_carlo" and mc_reps < 1:
        raise ValueError(f"mc_reps must be at least 1, got {mc_reps}")
    if len(sizes) == 0:
        return []
    wilks = np.asarray(wilks, dtype=np.float64)
    if method == "monte_carlo":
        # The replicate ordering uses the sample moment ratio m2/mean^2,
        # which orders tails exactly as the boundary-refined Wilks
        # statistic does (small ratio = strong truncated-normal evidence)
        # and stays continuous where W collapses to its point mass at 0.
        counts = _null_exceedances(seed, mc_reps, np.asarray(sizes), np.asarray(ratios))
        p = (1.0 + counts) / (mc_reps + 1.0)
    else:
        p = np.where(wilks <= 0.0, 1.0, 0.5 * special.chdtrc(1, wilks))
    return [
        UmpuResult(threshold=thr, rank=rank, n_tail=size, wilks_w=w, p_value=pv, method=method)
        for thr, rank, size, w, pv in zip(
            np.asarray(thresholds, dtype=np.float64).tolist(),
            np.asarray(ranks).tolist(),
            np.asarray(sizes).tolist(),
            wilks.tolist(),
            p.tolist(),
        )
    ]


def umpu_wilks(
    data, threshold: float, mc_reps: int = 1000, seed=0, method: str = "monte_carlo"
) -> UmpuResult:
    """Test a power-law tail (null) against a log-normal tail (alternative).

    The tail x > threshold is mapped to y = ln(x/threshold) > 0; the null
    is exponential y, the alternative a normal truncated at 0. The Wilks
    statistic is twice the maximized log-likelihood gap. With
    method='monte_carlo' the p-value is a parametric bootstrap under the
    exponential null, (1 + exceedances) / (mc_reps + 1); replicate `rep`
    draws from the counter-based substream keyed (seed, rep), the same
    replicate `umpu_sweep` gives every rank. method='asymptotic' is the
    fast approximation from the boundary mixture (point mass at 0 plus
    half chi-squared with one degree of freedom).
    """
    x = _positive_array(data)
    tail = x[x > threshold]
    if tail.size < 10:
        raise InsufficientDataError(
            f"need at least 10 tail points strictly above the threshold, got {tail.size}"
        )
    y = np.log(tail / threshold)
    ratio, wilks = _umpu_statistic(tail.size, y.mean(), np.mean(y * y))
    return _umpu_results([threshold], [tail.size], [tail.size], ratio, wilks, mc_reps, seed, method)[0]


def umpu_sweep(
    data, mc_reps: int = 1000, seed=0, method: str = "monte_carlo", min_rank: int = 10
) -> list[UmpuResult]:
    """Run the tail test at every rank from `min_rank` largest points to all of them.

    For rank r the threshold is the next data value below the r-th
    largest, so the strict tail holds exactly the r largest points
    (fewer under ties at the cut). Thresholds are non-increasing in rank.
    Every rank's moments of ln(x/threshold) come from the shifted suffix
    power sums of `_tail_power_sums`, and all ranks share one shape
    solve. All ranks share the Monte Carlo replicates (common random
    numbers): the p-value at rank r is the one `umpu_wilks` gives at that
    rank's threshold with the same seed.
    """
    if min_rank < 1:
        raise ValueError(f"min_rank must be at least 1, got {min_rank}")
    x = np.sort(_positive_array(data))
    n = x.size
    if n < min_rank:
        raise InsufficientDataError(f"need at least {min_rank} positive values, got {n}")
    ranks = np.arange(min_rank, n + 1)
    thr = np.append(x[n - ranks[:-1] - 1], np.nextafter(x[0], 0.0))
    cut = np.searchsorted(x, thr, side="right")
    keep = n - cut >= 10
    ranks, thr, cut = ranks[keep], thr[keep], cut[keep]
    sizes = n - cut
    ratio = wilks = np.empty(0)
    if sizes.size:
        starts = np.unique(cut)
        s1, s2 = _tail_power_sums(x, starts)[np.searchsorted(starts, cut), :2].T / sizes
        # shift from the tail's first value down to the threshold
        a = np.log(x[cut] / thr)
        ratio, wilks = _umpu_statistic(sizes, a + s1, s2 + a * (2.0 * s1 + a))
    return _umpu_results(thr, ranks, sizes, ratio, wilks, mc_reps, seed, method)
