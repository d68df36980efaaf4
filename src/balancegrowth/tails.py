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
    KS evaluations made.
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

    def to_dict(self) -> dict:
        out = {
            "family": self.family,
            "xmin": self.xmin,
            "n_tail": self.n_tail,
            "log_likelihood": self.log_likelihood,
            "ks_distance": self.ks_distance,
            "unit": "satoshi",
        }
        if self.family == POWER_LAW:
            out["alpha"] = self.alpha
        else:
            out["m"] = self.m
            out["v"] = self.v
        if self.xmin_candidates is not None:
            out["diagnostics"] = {
                "xmin_candidates": self.xmin_candidates,
                "ks_full_evaluations": self.ks_full_evaluations,
            }
        return out


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
        nlr = self.normalized_lr
        return {
            "xmin": self.xmin,
            "normalized_lr": None if math.isnan(nlr) else nlr,
            "p_value": self.p_value,
            "preferred": self.preferred,
            "n_tail": self.n_tail,
            "significance": self.significance,
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
    core = -y - math.log(v) - _LOG_SQRT_2PI - (y - m) ** 2 / (2.0 * v * v)
    if xmin > 0:
        core = core - special.log_ndtr(-(math.log(xmin) - m) / v)
    return core


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


def _inverse_mills(d: float) -> float:
    """phi(d) / Phi(d), stable for very negative d."""
    return math.exp(-0.5 * d * d - _LOG_SQRT_2PI - special.log_ndtr(d))


def _moment_ratio(d: float) -> float:
    """E[Z^2]/E[Z]^2 for a standard normal shifted to delta=d and truncated at 0."""
    h = _inverse_mills(d)
    return (1.0 + d * d + d * h) / (d + h) ** 2


def _tn_interior_mle(n: int, zbar: float, m2: float):
    """MLE of a normal truncated at 0 by moment matching on (mean, mean square).

    Returns (m, v, loglik) for an interior optimum, or None when the
    likelihood supremum sits on the family's exponential boundary
    (sample m2/zbar^2 >= 2, i.e. coefficient of variation >= 1).
    """
    ratio = m2 / (zbar * zbar)
    if ratio <= 1.0 + 1e-13:
        raise DegenerateTailError("tail has no spread after log transform")
    if ratio >= 2.0 or _moment_ratio(_DELTA_FLOOR) <= ratio:
        return None
    from scipy.optimize import brentq  # loaded on first use: it adds ~0.25 s to start-up

    hi = max(40.0, 2.0 / math.sqrt(ratio - 1.0))
    try:
        d = brentq(
            lambda t: _moment_ratio(t) - ratio, _DELTA_FLOOR, hi, xtol=1e-13, rtol=8.9e-16, maxiter=200
        )
    except (ValueError, RuntimeError) as exc:
        raise FitConvergenceError(f"truncated-normal profile solve failed: {exc}") from exc
    h = _inverse_mills(d)
    v = zbar / (d + h)
    m = d * v
    loglik = (
        -n * math.log(v)
        - n * _LOG_SQRT_2PI
        - n * (m2 - 2.0 * m * zbar + m * m) / (2.0 * v * v)
        - n * special.log_ndtr(d)
    )
    return m, v, loglik


def _tn_mle(n: int, zbar: float, m2: float) -> tuple[float, float]:
    """Truncated-at-0 normal MLE (m, v) for n non-negative values z with
    mean `zbar` and mean square `m2`.

    When the sample coefficient of variation is >= 1 no interior optimum
    exists (the supremum is the exponential limit of the family); the
    nearest in-family parameters at the numerical boundary are returned,
    their log-likelihood within machine precision of the supremum.
    """
    sol = _tn_interior_mle(n, zbar, m2)
    if sol is not None:
        return sol[0], sol[1]
    # delta + inverse-Mills from the asymptotic series; the direct
    # difference cancels catastrophically this deep
    a = -_DELTA_BOUNDARY
    dph = (1.0 - 2.0 / (a * a) + 10.0 / a**4) / a
    v = zbar / dph
    return _DELTA_BOUNDARY * v, v


def fit_lognormal(data, xmin: float) -> TailFitResult:
    """Truncated log-normal tail fit by maximum likelihood.

    The density is renormalized by the upper-tail mass above `xmin`
    (xmin <= 0 means no truncation, where the fit is the closed-form
    population moments of ln x). The truncated case is solved exactly by
    matching the first two moments of ln(x/xmin), a scalar root solve in
    the profiled shape parameter; heavy tails whose likelihood supremum
    sits on the family's exponential boundary get the nearest in-family
    parameters. Requires at least two distinct tail values.
    """
    x = _positive_array(data)
    tail = x[x >= xmin] if xmin > 0 else x
    n = tail.size
    if n < 2 or np.unique(tail).size < 2:
        raise InsufficientDataError(_FEW_DISTINCT)
    y = np.log(tail)
    if xmin > 0:
        log_l = math.log(xmin)
        z = y - log_l
        m_z, v_hat = _tn_mle(n, float(z.mean()), float(np.mean(z * z)))
        m_hat = m_z + log_l
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
    if xmin > 0 and ln.m / ln.v <= _DELTA_FLOOR:
        # the log-normal MLE degenerated to its exponential boundary,
        # i.e. to the power law itself: the models are indistinguishable
        nlr, p = math.nan, 1.0
    else:
        diff = powerlaw_logpdf(tail, pl.alpha, xmin) - lognormal_logpdf(tail, ln.m, ln.v, xmin)
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


def _tail_power_sums(logx: np.ndarray, cuts: np.ndarray) -> list:
    """Sums of (logx[i] - logx[c])^k over i >= c, k = 1..4, for increasing distinct cuts c.

    `logx` is sorted. A tail is the block up to the next cut, summed
    about its own first value, plus the next tail shifted onto that
    value; every term of the shift is non-negative, so no sum cancels.
    """
    ends = np.append(cuts[1:], logx.size)
    w = logx[cuts[0] :] - np.repeat(logx[cuts], ends - cuts)
    wk = np.ones_like(w)
    blocks = np.empty((cuts.size, 4))
    for k in range(4):
        wk *= w
        blocks[:, k] = np.add.reduceat(wk, cuts - cuts[0])
    gaps = np.diff(logx[cuts], append=logx[cuts[-1]]).tolist()
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
    return out


def _sweep_lr(n: int, sums: tuple, y_lo: float, y_hi: float, log_l: float) -> tuple[float, float]:
    """Normalized LR and p-value of one tail of y = ln(x/xmin), from the
    power sums of y - y_lo, degree 1 to 4, where y_lo is its smallest y.

    Both fits depend on the data only through the first two moments, and
    the pointwise log-density gap is the quadratic c0 + b y + q (y - m)^2,
    so its mean and variance follow from the first four.
    """
    p1, p2, p3, p4 = (s / n for s in sums)
    ybar = y_lo + p1
    alpha = 1.0 + 1.0 / ybar
    m, v = _tn_mle(n, ybar, p2 + y_lo * (2.0 * p1 + y_lo))
    if (m + log_l) / v <= _DELTA_FLOOR:
        return math.nan, 1.0
    b = 1.0 - alpha
    q = 0.5 / (v * v)
    c0 = math.log(alpha - 1.0) + math.log(v) + _LOG_SQRT_2PI + float(special.log_ndtr(m / v))
    mu2 = p2 - p1 * p1
    mu3 = p3 - 3.0 * p1 * p2 + 2.0 * p1**3
    mu4 = p4 - 4.0 * p1 * p3 + 6.0 * p1 * p1 * p2 - 3.0 * p1**4
    e = ybar - m
    mean = c0 + b * ybar + q * (e * e + mu2)
    # gap - mean = slope u + q (u^2 - mu2), with u = y - mean(y)
    slope = b + 2.0 * q * e
    var = slope * slope * mu2 + 2.0 * slope * q * mu3 + q * q * (mu4 - mu2 * mu2)
    sd = math.sqrt(max(var, 0.0) * n / (n - 1.0))
    ends = [y_lo, y_hi]
    vertex = m - b / (2.0 * q)
    if y_lo < vertex < y_hi:
        ends.append(vertex)
    scale = max(abs(c0 + b * y + q * (y - m) ** 2) for y in ends)
    if not math.isfinite(sd) or sd <= 1e-9 * scale or sd == 0.0:
        return math.nan, 1.0
    nlr = math.sqrt(n) * mean / sd
    return nlr, float(special.erfc(abs(nlr) / math.sqrt(2.0)))


def threshold_sweep(
    data, start: float, step: float, min_tail: int = 100, significance: float = 0.05
) -> list[ComparisonResult]:
    """Repeat the tail comparison on the arithmetic threshold grid start, start+step, ...

    Stops at the first threshold whose tail retains fewer than
    `min_tail` points. Each row equals `compare_tails` at its threshold
    up to rounding, without refitting: after one sort every tail is
    located by binary search, and both fits and the normalized LR come
    from suffix power sums of ln x (degree 1 to 4), so a threshold costs
    O(1) beyond the log-normal root solve. Per-tail KS distances are not
    computed.
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
    log_thr = [math.log(t) for t in thr.tolist()]
    lo = int(cut[0])
    logx = np.log(x[lo:])
    tails_at = np.unique(cut[n - cut >= 2]) - lo
    sums = _tail_power_sums(logx, tails_at) if tails_at.size else []
    rows = np.searchsorted(tails_at, cut - lo).tolist()
    results = []
    for t, c, row, log_l in zip(thr.tolist(), cut.tolist(), rows, log_thr):
        if c >= n:
            raise MalformedInputError(_EMPTY_DATA)
        if c == n - 1:
            raise InsufficientDataError(_FEW_TAIL.format(1))
        if x[-1] == t:
            raise DegenerateTailError(_FLAT_TAIL)
        if x[c] == x[-1]:
            raise InsufficientDataError(_FEW_DISTINCT)
        nlr, p = _sweep_lr(n - c, sums[row], float(logx[c - lo]) - log_l, float(logx[-1]) - log_l, log_l)
        results.append(
            ComparisonResult(
                xmin=t,
                normalized_lr=nlr,
                p_value=p,
                preferred=_preference(nlr, p, significance),
                n_tail=n - c,
                significance=significance,
            )
        )
    return results


def _umpu_statistic(y: np.ndarray) -> tuple[float, float]:
    """(moment ratio m2/mean^2, Wilks statistic) of a log-transformed tail."""
    n = y.size
    ybar = float(y.mean())
    m2 = float(np.mean(y * y))
    ll0 = -n * (1.0 + math.log(ybar))
    sol = _tn_interior_mle(n, ybar, m2)
    wilks = max(0.0, 2.0 * (sol[2] - ll0)) if sol is not None else 0.0
    return m2 / (ybar * ybar), wilks


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
    cols = sizes - 1
    counts = np.zeros(sizes.size, dtype=np.int64)
    for lo in range(0, mc_reps, block):
        z = np.empty((min(block, mc_reps - lo), n_max))
        for row in range(z.shape[0]):
            substream(seed, lo + row).standard_exponential(out=z[row])
        s1 = np.cumsum(z, axis=1)[:, cols]
        s2 = np.cumsum(z * z, axis=1)[:, cols]
        counts += np.count_nonzero(sizes * s2 / (s1 * s1) <= ratios, axis=0)
    return counts


def _umpu_results(tests: list, mc_reps: int, seed, method: str) -> list[UmpuResult]:
    """Tail tests given as (threshold, rank, n_tail, ratio, wilks); all share the replicates."""
    if method not in ("monte_carlo", "asymptotic"):
        raise ValueError(f"unknown p-value method: {method!r}")
    if method == "monte_carlo" and mc_reps < 1:
        raise ValueError(f"mc_reps must be at least 1, got {mc_reps}")
    if not tests:
        return []
    _, _, sizes, ratios, wilks = zip(*tests)
    if method == "monte_carlo":
        # The replicate ordering uses the sample moment ratio m2/mean^2,
        # which orders tails exactly as the boundary-refined Wilks
        # statistic does (small ratio = strong truncated-normal evidence)
        # and stays continuous where W collapses to its point mass at 0.
        counts = _null_exceedances(seed, mc_reps, np.array(sizes), np.array(ratios))
        p = ((1.0 + counts) / (mc_reps + 1.0)).tolist()
    else:
        p = [1.0 if w <= 0.0 else 0.5 * float(special.chdtrc(1, w)) for w in wilks]
    return [
        UmpuResult(
            threshold=float(thr),
            rank=int(rank),
            n_tail=int(size),
            wilks_w=float(w),
            p_value=float(pv),
            method=method,
        )
        for (thr, rank, size, _, w), pv in zip(tests, p)
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
    return _umpu_results([(threshold, tail.size, tail.size, *_umpu_statistic(y))], mc_reps, seed, method)[0]


def umpu_sweep(
    data, mc_reps: int = 1000, seed=0, method: str = "monte_carlo", min_rank: int = 10
) -> list[UmpuResult]:
    """Run the tail test at every rank from `min_rank` largest points to all of them.

    For rank r the threshold is the next data value below the r-th
    largest, so the strict tail holds exactly the r largest points
    (fewer under ties at the cut). Thresholds are non-increasing in rank.
    All ranks share the Monte Carlo replicates (common random numbers):
    the p-value at rank r is the one `umpu_wilks` gives at that rank's
    threshold with the same seed.
    """
    x = np.sort(_positive_array(data))
    n = x.size
    if n < min_rank:
        raise InsufficientDataError(f"need at least {min_rank} positive values, got {n}")
    tests = []
    for r in range(min_rank, n + 1):
        thr = x[n - r - 1] if r < n else np.nextafter(x[0], 0.0)
        cut = np.searchsorted(x, thr, side="right")
        tail = x[cut:]
        if tail.size >= 10:
            tests.append((thr, r, tail.size, *_umpu_statistic(np.log(tail / thr))))
    return _umpu_results(tests, mc_reps, seed, method)
