"""Synthetic population simulators for the balance-growth process.

One integrator steps the power-scaled process
dS = S^a_d mu dt + S^a_v sigma dW, optionally with two
balance-dependent regimes. Its step scheme is Euler-Maruyama, or, for
proportional growth (one regime, a_d = a_v = 1), the exact log-normal
step S exp((mu - sigma^2/2) h + sigma sqrt(h) z), which has no
discretization error at any step size. Balances evolve as real-valued
satoshi and are rounded only when snapshots are materialized.

Randomness is drawn per user-chunk from counter-based substreams of the
config seed, so results are bit-identical regardless of execution
schedule. Users whose balance leaves the representable range are
flagged, excluded from output, counted, and logged as a warning.
"""

import datetime as dt
import logging
import math
from dataclasses import dataclass

import numpy as np

from ._rng import substream
from .errors import ConfigError, MalformedInputError
from .panel import BalanceSnapshot, TransitionPanel, assign_groups

# balances above this are not representable as int64 satoshi
OVERFLOW_LIMIT = float(2**62)
CHUNK_SIZE = 1 << 14
DEFAULT_T0 = dt.date(2000, 1, 1)

REGIME_MODE_CURRENT = "current"
REGIME_MODE_INITIAL = "initial"

SCHEME_EULER = "euler"
SCHEME_EXACT = "exact"

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Schedule:
    """Parameter value tabulated over elapsed days, linearly interpolated.

    Evaluation clamps to the first/last tabulated value outside the
    knot range.
    """

    days: tuple
    values: tuple

    def __post_init__(self):
        if len(self.days) != len(self.values) or not self.days:
            raise ConfigError("schedule needs matching, non-empty days and values")
        if any(b <= a for a, b in zip(self.days, self.days[1:])):
            raise ConfigError("schedule days must be strictly increasing")

    def at(self, t: float) -> float:
        return float(np.interp(t, self.days, self.values))


def _value_at(param, t: float) -> float:
    return param.at(t) if isinstance(param, Schedule) else float(param)


def _check_param(name: str, param, positive: bool = False, non_negative: bool = False):
    values = param.values if isinstance(param, Schedule) else (param,)
    for v in values:
        if not math.isfinite(float(v)):
            raise ConfigError(f"{name} must be finite")
        if positive and float(v) <= 0:
            raise ConfigError(f"{name} must be positive")
        if non_negative and float(v) < 0:
            raise ConfigError(f"{name} must be non-negative")


@dataclass(frozen=True)
class RegimeParams:
    """Growth-process coefficients for one regime.

    `mu` is per day, `sigma` per sqrt(day); each field may be a Schedule
    evaluated at elapsed simulation time. Exponents must be positive
    (S^a is extended by 0 at S = 0).
    """

    alpha_drift: float | Schedule = 1.0
    mu: float | Schedule = 0.0
    alpha_vol: float | Schedule = 1.0
    sigma: float | Schedule = 0.0

    def __post_init__(self):
        _check_param("alpha_drift", self.alpha_drift, positive=True)
        _check_param("mu", self.mu)
        _check_param("alpha_vol", self.alpha_vol, positive=True)
        _check_param("sigma", self.sigma, non_negative=True)

    def at(self, t: float) -> tuple[float, float, float, float]:
        return (
            _value_at(self.alpha_drift, t),
            _value_at(self.mu, t),
            _value_at(self.alpha_vol, t),
            _value_at(self.sigma, t),
        )


@dataclass(frozen=True)
class InitialLaw:
    """Initial-balance distribution: lognormal(m, v), pareto(a, xmin), or point(value)."""

    kind: str
    a: float = 0.0
    b: float = 0.0

    @classmethod
    def lognormal(cls, m: float, v: float) -> "InitialLaw":
        if v <= 0:
            raise ConfigError("s0_v must be positive")
        return cls("lognormal", m, v)

    @classmethod
    def pareto(cls, alpha: float, xmin: float) -> "InitialLaw":
        if alpha <= 1 or xmin <= 0:
            raise ConfigError("pareto law needs s0_alpha > 1 and s0_xmin > 0")
        return cls("pareto", alpha, xmin)

    @classmethod
    def point(cls, value: float) -> "InitialLaw":
        if value < 0:
            raise ConfigError("s0_value must be non-negative")
        return cls("point", value)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "lognormal":
            return rng.lognormal(mean=self.a, sigma=self.b, size=size)
        if self.kind == "pareto":
            u = rng.random(size)
            return self.b * (1.0 - u) ** (-1.0 / (self.a - 1.0))
        if self.kind == "point":
            return np.full(size, self.a, dtype=np.float64)
        raise ConfigError(f"unknown initial-balance law {self.kind!r}")


@dataclass(frozen=True)
class SimConfig:
    """Population config, optionally with two regimes.

    With both regimes present, `s_star` separates them; membership is
    re-evaluated each step on the current balance (mode 'current') or
    frozen at the initial balance (mode 'initial'). Balances at or above
    s_star are wealthy. `scheme` is 'euler' (Euler-Maruyama) or 'exact'
    (the log-normal step of proportional growth, which needs one regime
    with alpha_drift = alpha_vol = 1). Parameters are evaluated at the
    start of each step.
    """

    n_users: int
    s0_law: InitialLaw
    horizon_days: int
    poor: RegimeParams
    wealthy: RegimeParams | None = None
    s_star: float | None = None
    step_days: int = 1
    seed: int = 0
    regime_mode: str = REGIME_MODE_CURRENT
    t0: dt.date = DEFAULT_T0
    scheme: str = SCHEME_EULER

    def __post_init__(self):
        if self.n_users < 1:
            raise ConfigError("n_users must be at least 1")
        if not (0 < self.step_days < math.inf and 0 < self.horizon_days < math.inf):
            raise ConfigError("step_days and horizon_days must be positive and finite")
        if self.n_steps * self.step_days != self.horizon_days:
            raise ConfigError("step_days must divide horizon_days")
        if self.wealthy is not None and self.s_star is None:
            raise ConfigError("s_star is required when both regimes are configured")
        if self.regime_mode not in (REGIME_MODE_CURRENT, REGIME_MODE_INITIAL):
            raise ConfigError(f"unknown regime_mode {self.regime_mode!r}")
        if self.scheme not in (SCHEME_EULER, SCHEME_EXACT):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        proportional = (self.wealthy, self.poor.alpha_drift, self.poor.alpha_vol) == (None, 1, 1)
        if self.scheme == SCHEME_EXACT and not proportional:
            raise ConfigError("the exact scheme needs one regime with alpha_drift = alpha_vol = 1")

    @property
    def n_steps(self) -> int:
        return round(self.horizon_days / self.step_days)


def _user_ids(n: int) -> np.ndarray:
    width = max(8, len(str(max(n - 1, 0))))
    return np.char.add("u", np.char.zfill(np.arange(n).astype(str), width))


def _integrate(config: SimConfig, s0: np.ndarray, z_at, capture_steps=()):
    """Step the update of `config.scheme` from s0, absorbing at 0 and flagging overflow.

    `z_at(j)` supplies the standard-normal draws of step j. Returns the
    final balances, the overflow mask (overflowed entries read +inf),
    and captured copies keyed by step index.
    """
    S = np.asarray(s0, dtype=np.float64).copy()
    over = ~np.isfinite(S) | (S > OVERFLOW_LIMIT)
    S[over] = np.inf
    captures = {}
    capture_steps = set(capture_steps)
    if 0 in capture_steps:
        captures[0] = S.copy()
    poor, wealthy, s_star = config.poor, config.wealthy, config.s_star
    h = float(config.step_days)
    sqrt_h = math.sqrt(h)
    if wealthy is not None and config.regime_mode == REGIME_MODE_INITIAL:
        fixed_wealthy = S >= s_star
    for j in range(config.n_steps):
        t = j * h
        z = z_at(j)
        with np.errstate(over="ignore", invalid="ignore"):
            if config.scheme == SCHEME_EXACT:
                _, mu, _, sg = poor.at(t)
                s_new = S * np.exp((mu - 0.5 * sg * sg) * h + sg * sqrt_h * z)
            elif wealthy is None:
                a_d, mu, a_v, sg = poor.at(t)
                s_new = S + S**a_d * (mu * h) + S**a_v * (sg * sqrt_h) * z
            else:
                is_wealthy = fixed_wealthy if config.regime_mode == REGIME_MODE_INITIAL else S >= s_star
                pa_d, p_mu, pa_v, p_sg = poor.at(t)
                wa_d, w_mu, wa_v, w_sg = wealthy.at(t)
                drift = np.where(
                    is_wealthy, S**wa_d * (w_mu * h), S**pa_d * (p_mu * h)
                )
                vol = np.where(
                    is_wealthy, S**wa_v * (w_sg * sqrt_h), S**pa_v * (p_sg * sqrt_h)
                )
                s_new = S + drift + vol * z
            s_new = np.maximum(s_new, 0.0)
        bad = ~np.isfinite(s_new) | (s_new > OVERFLOW_LIMIT)
        over |= bad
        s_new[over] = np.inf
        S = s_new
        if (j + 1) in capture_steps:
            captures[j + 1] = S.copy()
    return S, over, captures


def euler_paths(
    s0,
    z: np.ndarray,
    step_days: float,
    params: RegimeParams,
    wealthy: RegimeParams | None = None,
    s_star: float | None = None,
    regime_mode: str = REGIME_MODE_CURRENT,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate supplied paths: z has shape (n_steps, n_users).

    This is the deterministic integrator core; the simulate_* entry
    points wrap it with substream-drawn noise. The arguments pass the
    checks of `SimConfig`. Returns (final balances, overflow mask).
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise MalformedInputError("z must have shape (n_steps, n_users)")
    s0 = np.asarray(s0, dtype=np.float64)
    config = SimConfig(
        n_users=max(s0.size, 1),  # the population comes from s0, not from n_users and s0_law
        s0_law=InitialLaw.point(0.0),
        horizon_days=z.shape[0] * step_days,
        poor=params,
        wealthy=wealthy,
        s_star=s_star,
        step_days=step_days,
        regime_mode=regime_mode,
    )
    final, over, _ = _integrate(config, s0, lambda j: z[j])
    return final, over


def _run_chunked(config: SimConfig, capture_steps=()):
    n = config.n_users
    s0_all = np.empty(n, dtype=np.float64)
    s1_all = np.empty(n, dtype=np.float64)
    over_all = np.empty(n, dtype=bool)
    captured = {j: np.empty(n, dtype=np.float64) for j in capture_steps}
    for chunk, start in enumerate(range(0, n, CHUNK_SIZE)):
        stop = min(start + CHUNK_SIZE, n)
        k = stop - start
        rng = substream(config.seed, chunk)
        s0 = config.s0_law.draw(rng, k)
        final, over, caps = _integrate(config, s0, lambda j: rng.standard_normal(k), capture_steps)
        s0_all[start:stop] = s0
        s1_all[start:stop] = final
        over_all[start:stop] = over
        for j, values in caps.items():
            captured[j][start:stop] = values
    n_over = int(np.count_nonzero(over_all))
    if n_over:
        log.warning("excluded %d of %d users whose balance overflowed 2^62 satoshi", n_over, n)
    return s0_all, s1_all, over_all, captured


def simulate_gbm_exact(
    n_users: int,
    s0_law: InitialLaw,
    mu: float,
    sigma: float,
    horizon_days: float,
    seed: int = 0,
    t0: dt.date = DEFAULT_T0,
) -> TransitionPanel:
    """Exact proportional-growth panel: one exact step over the horizon.

    Per user, s1 = s0 * exp((mu - sigma^2/2) T + sigma sqrt(T) z) with mu
    per day and sigma per sqrt(day), z from the user chunk's substream.
    """
    config = SimConfig(
        n_users=n_users,
        s0_law=s0_law,
        horizon_days=horizon_days,
        poor=RegimeParams(mu=mu, sigma=sigma),
        step_days=horizon_days,
        seed=seed,
        t0=t0,
        scheme=SCHEME_EXACT,
    )
    return simulate_two_regime(config)


def simulate_power_sde(
    n_users: int,
    s0_law: InitialLaw,
    params: RegimeParams,
    step_days: int,
    horizon_days: int,
    seed: int = 0,
    t0: dt.date = DEFAULT_T0,
) -> TransitionPanel:
    """Euler-Maruyama panel for the single-regime power-scaled process."""
    config = SimConfig(
        n_users=n_users,
        s0_law=s0_law,
        horizon_days=horizon_days,
        poor=params,
        step_days=step_days,
        seed=seed,
        t0=t0,
    )
    return simulate_two_regime(config)


def simulate_two_regime(config: SimConfig) -> TransitionPanel:
    """Panel over the configured horizon, regime structure and step scheme.

    Overflowed users are excluded; their count lands in panel meta as
    'n_overflow'.
    """
    s0, s1, over, _ = _run_chunked(config)
    if config.scheme == SCHEME_EXACT:
        model = "gbm_exact"
    else:
        model = "two_regime" if config.wealthy is not None else "power_sde"
    keep = ~over
    s0, s1 = s0[keep], s1[keep]
    ds = s1 - s0
    return TransitionPanel(
        t0=config.t0,
        dt_days=math.ceil(config.horizon_days),
        user_ids=_user_ids(config.n_users)[keep],
        s0=s0,
        s1=s1,
        ds=ds,
        group=assign_groups(s0, ds),
        meta={
            "model": model,
            "n_overflow": int(np.count_nonzero(over)),
            "step_days": config.step_days,
            "regime_mode": config.regime_mode,
            "seed": config.seed,
        },
    )


def snapshot_series(config: SimConfig, emit_days) -> list[BalanceSnapshot]:
    """Materialize the simulated population at the requested day offsets.

    Balances are rounded half away from zero to integer satoshi. Emit
    times must be multiples of step_days within the horizon. Users that
    overflowed anywhere along the path are excluded from every snapshot
    so the emitted population is consistent across dates.
    """
    emits = sorted({int(e) for e in emit_days})
    for e in emits:
        if e < 0 or e > config.horizon_days:
            raise ConfigError(f"emit day {e} outside the horizon [0, {config.horizon_days}]")
        if e % config.step_days != 0:
            raise ConfigError(f"emit day {e} is not a multiple of step_days={config.step_days}")
    capture_steps = {e // config.step_days for e in emits}
    _, _, over, captured = _run_chunked(config, capture_steps=capture_steps)
    keep = ~over
    ids = _user_ids(config.n_users)[keep]
    snapshots = []
    for e in emits:
        values = captured[e // config.step_days][keep]
        balances = np.floor(values + 0.5).astype(np.int64)
        snapshots.append(
            BalanceSnapshot(
                date=config.t0 + dt.timedelta(days=e), user_ids=ids, balances=balances
            )
        )
    return snapshots
