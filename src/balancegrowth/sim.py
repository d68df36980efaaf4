"""Synthetic population simulators for the balance-growth process.

One integrator steps the power-scaled process
dS = S^a_d mu dt + S^a_v sigma dW, optionally with two
balance-dependent regimes. Its step scheme is Euler-Maruyama, or, for
proportional growth (one regime, a_d = a_v = 1), the exact log-normal
step S exp((mu - sigma^2/2) h + sigma sqrt(h) z), which has no
discretization error at any step size. Balances evolve as real-valued
satoshi and are rounded only when snapshots are materialized.

Randomness is drawn per user-chunk from counter-based substreams of the
config seed, and blocks of chunks run on a thread per usable CPU, so
results are bit-identical whatever the CPU count or schedule. Users whose
balance leaves the representable range are flagged, excluded from
output, counted, and logged as a warning.
"""

import datetime as dt
import logging
import math
from dataclasses import dataclass

import numpy as np

from ._rng import substream
from ._workers import map_on_cpus
from .errors import ConfigError, MalformedInputError
from .panel import BalanceSnapshot, TransitionPanel, _whole_int64

# balances above this are not representable as int64 satoshi
OVERFLOW_LIMIT = float(2**62)
CHUNK_SIZE = 1 << 14  # users per substream
CHUNKS_PER_TASK = 4  # chunks a thread integrates as one set of arrays
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
        if not all(math.isfinite(day) for day in self.days):  # NaN passes the order check, and .at() reads NaN
            raise ConfigError(f"schedule days must be finite, got {self.days}")
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
            raise ConfigError(f"{name} must be finite", key=name)
        if positive and float(v) <= 0:
            raise ConfigError(f"{name} must be positive", key=name)
        if non_negative and float(v) < 0:
            raise ConfigError(f"{name} must be non-negative", key=name)


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
        _check_param("s0_m", m)
        _check_param("s0_v", v, positive=True)
        return cls("lognormal", m, v)

    @classmethod
    def pareto(cls, alpha: float, xmin: float) -> "InitialLaw":
        _check_param("s0_alpha", alpha)
        _check_param("s0_xmin", xmin)
        if alpha <= 1 or xmin <= 0:
            key = "s0_alpha" if alpha <= 1 else "s0_xmin"
            raise ConfigError("pareto law needs s0_alpha > 1 and s0_xmin > 0", key=key)
        return cls("pareto", alpha, xmin)

    @classmethod
    def point(cls, value: float) -> "InitialLaw":
        _check_param("s0_value", value, non_negative=True)
        return cls("point", value)

    def draw(self, rng: "np.random.Generator", size: int) -> np.ndarray:
        if self.kind == "lognormal":
            return rng.lognormal(mean=self.a, sigma=self.b, size=size)
        if self.kind == "pareto":
            u = rng.random(size)
            return self.b * (1.0 - u) ** (-1.0 / (self.a - 1.0))
        if self.kind == "point":
            return np.full(size, self.a, dtype=np.float64)
        raise ConfigError(f"unknown initial-balance law {self.kind!r}", key="s0_law")


@dataclass(frozen=True)
class SimConfig:
    """Population config, optionally with two regimes.

    With both regimes present, `s_star` separates them; membership is
    re-evaluated each step on the current balance (mode 'current') or
    frozen at the initial balance (mode 'initial'). Balances at or above
    s_star are wealthy. `scheme` is 'euler' (Euler-Maruyama) or 'exact'
    (the log-normal step of proportional growth, which needs one regime
    with alpha_drift = alpha_vol = 1). Parameters are evaluated at the
    start of each step. A refusal names the field at fault as its `key`.
    """

    n_users: int
    s0_law: InitialLaw
    horizon_days: float
    poor: RegimeParams
    wealthy: RegimeParams | None = None
    s_star: float | None = None
    step_days: float = 1
    seed: int = 0
    regime_mode: str = REGIME_MODE_CURRENT
    t0: dt.date = DEFAULT_T0
    scheme: str = SCHEME_EULER

    def __post_init__(self):
        if self.n_users < 1:
            raise ConfigError("n_users must be at least 1", key="n_users")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}", key="seed")
        for key in ("horizon_days", "step_days"):
            if not 0 < getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be positive and finite", key=key)
        if self.n_steps * self.step_days != self.horizon_days:
            raise ConfigError("step_days must divide horizon_days", key="step_days")
        if self.wealthy is not None and self.s_star is None:
            raise ConfigError("s_star is required when both regimes are configured", key="s_star")
        if self.s_star is not None and not 0 < self.s_star < math.inf:  # NaN fails too
            raise ConfigError(f"s_star must be positive and finite, got {self.s_star}", key="s_star")
        if self.regime_mode not in (REGIME_MODE_CURRENT, REGIME_MODE_INITIAL):
            raise ConfigError(f"unknown regime_mode {self.regime_mode!r}", key="regime_mode")
        if self.scheme not in (SCHEME_EULER, SCHEME_EXACT):
            raise ConfigError(f"unknown scheme {self.scheme!r}", key="scheme")
        proportional = (self.wealthy, self.poor.alpha_drift, self.poor.alpha_vol) == (None, 1, 1)
        if self.scheme == SCHEME_EXACT and not proportional:
            raise ConfigError("the exact scheme needs one regime with alpha_drift = alpha_vol = 1", key="scheme")

    @property
    def n_steps(self) -> int:
        return round(self.horizon_days / self.step_days)


def _user_ids(n: int) -> np.ndarray:
    """Ids `u` + the zero-padded index, at least 8 digits, built as ASCII bytes."""
    width = max(8, len(str(max(n - 1, 0))))
    text = np.empty((n, width + 1), dtype=np.uint8)
    text[:, 0] = ord("u")
    index = np.arange(n, dtype=np.int64)
    for col in range(width, 0, -1):
        index, digit = np.divmod(index, 10)
        text[:, col] = digit + ord("0")
    return text.view(f"S{width + 1}").ravel()


def _integrate(config: SimConfig, s0: np.ndarray, z_at, steps):
    """Step the update of `config.scheme` from s0, absorbing at 0 and flagging overflow.

    `z_at(j)` supplies the standard-normal draws of step j. Returns the
    overflow mask and a list of the balances after each step in `steps`
    (step 0 is s0), where overflowed entries read +inf.

    The Euler step raises every balance to the poor exponents, then
    overwrites the wealthy users' entries with the wealthy exponents
    raised on `S[w]` alone: each step raises two exponents per user plus
    two per wealthy user, not four per user. Each user's bits are still
    those of stepping it alone: `S[w] ** a` has the bits of
    `(S ** a)[w]` (a test pins this), and every element goes through
    `(S + drift) + vol * z`, then the maximum with 0, in this fixed order.
    """
    S = np.asarray(s0, dtype=np.float64).copy()
    over = ~np.isfinite(S) | (S > OVERFLOW_LIMIT)
    S[over] = np.inf
    captures = {0: S} if 0 in steps else {}  # each step makes a new S, so no capture is written over
    poor, wealthy, s_star = config.poor, config.wealthy, config.s_star
    h = float(config.step_days)
    sqrt_h = math.sqrt(h)
    if wealthy is not None and config.regime_mode == REGIME_MODE_INITIAL:
        w = np.flatnonzero(S >= s_star)
    for j in range(config.n_steps):
        t = j * h
        z = z_at(j)
        with np.errstate(over="ignore", invalid="ignore"):
            a_d, mu, a_v, sg = poor.at(t)
            if config.scheme == SCHEME_EXACT:
                s_new = S * np.exp((mu - 0.5 * sg * sg) * h + sg * sqrt_h * z)
            else:
                drift = S**a_d
                drift *= mu * h
                vol = S**a_v
                vol *= sg * sqrt_h
                if wealthy is not None:
                    if config.regime_mode == REGIME_MODE_CURRENT:
                        w = np.flatnonzero(S >= s_star)
                    S_w = S[w]
                    a_d, mu, a_v, sg = wealthy.at(t)
                    drift[w] = S_w**a_d * (mu * h)
                    vol[w] = S_w**a_v * (sg * sqrt_h)
                s_new = drift
                s_new += S  # S + drift: addition commutes bit for bit
                vol *= z
                s_new += vol
            np.maximum(s_new, 0.0, out=s_new)
        over |= ~(s_new <= OVERFLOW_LIMIT)  # after the maximum, the non-finite or too large; NaN fails too
        s_new[over] = np.inf
        S = s_new
        if j + 1 in steps:
            captures[j + 1] = S
    return over, [captures[j] for j in steps]


def euler_paths(s0, z: np.ndarray, step_days: float, params: RegimeParams) -> tuple[np.ndarray, np.ndarray]:
    """Integrate supplied one-regime paths: z has shape (n_steps, n_users).

    This runs `_integrate` on supplied noise. The simulate_* entry
    points run the same `_integrate` through `_run_chunked`, which draws
    each user chunk's noise from its own substream. The arguments pass
    the checks of `SimConfig`. Returns (final balances, overflow mask).
    """
    z = np.asarray(z, dtype=np.float64)
    s0 = np.asarray(s0, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != s0.size:
        raise MalformedInputError("z must have shape (n_steps, n_users)")
    config = SimConfig(
        n_users=max(s0.size, 1),  # the population comes from s0, not from n_users and s0_law
        s0_law=InitialLaw.point(0.0),
        horizon_days=z.shape[0] * step_days,
        poor=params,
        step_days=step_days,
    )
    over, (final,) = _integrate(config, s0, lambda j: z[j], (config.n_steps,))
    return final, over


def _run_chunked(config: SimConfig, steps):
    """Draw each user chunk on its own substream and integrate blocks of chunks on every usable CPU.

    Returns the ids of the users that never overflowed and a list of
    their balances after each step in `steps`. A thread integrates
    `CHUNKS_PER_TASK` consecutive chunks as one set of arrays, each chunk
    drawing into its own slice: the update is elementwise, so the bits
    are those of the chunks one by one, and each NumPy call covers a
    whole block, so the threads wait on the GIL a quarter as often.
    NumPy's ufuncs and `Generator.standard_normal` release the GIL, and
    each block writes only its own slice of the outputs, so the threads
    share no state and any worker count gives the same bits.
    """
    n = config.n_users
    n_chunks = -(-n // CHUNK_SIZE)
    over_all = np.empty(n, dtype=bool)
    captured = [np.empty(n, dtype=np.float64) for _ in steps]

    def run(first: int):
        chunks = range(first, min(first + CHUNKS_PER_TASK, n_chunks))
        rngs = [substream(config.seed, chunk) for chunk in chunks]
        start = first * CHUNK_SIZE
        cuts = [(chunk * CHUNK_SIZE - start, min(chunk * CHUNK_SIZE + CHUNK_SIZE, n) - start) for chunk in chunks]
        stop = start + cuts[-1][1]
        s0 = np.concatenate([config.s0_law.draw(rng, hi - lo) for rng, (lo, hi) in zip(rngs, cuts)])
        z = np.empty(stop - start)

        def z_at(j):
            for rng, (lo, hi) in zip(rngs, cuts):
                rng.standard_normal(out=z[lo:hi])
            return z

        over, caps = _integrate(config, s0, z_at, steps)
        over_all[start:stop] = over
        for full, values in zip(captured, caps):
            full[start:stop] = values

    map_on_cpus(run, range(0, n_chunks, CHUNKS_PER_TASK))
    n_over = int(np.count_nonzero(over_all))
    if not n_over:
        return _user_ids(n), captured
    log.warning("excluded %d of %d users whose balance overflowed 2^62 satoshi", n_over, n)
    keep = ~over_all
    # each full-size array is dropped as soon as its kept copy is made
    kept = [captured.pop(0)[keep] for _ in steps]
    return _user_ids(n)[keep], kept


def simulate_gbm_exact(
    n_users: int,
    s0_law: InitialLaw,
    mu: float,
    sigma: float,
    horizon_days: float,
    seed: int = 0,
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
        scheme=SCHEME_EXACT,
    )
    return simulate_two_regime(config)


def simulate_power_sde(
    n_users: int,
    s0_law: InitialLaw,
    params: RegimeParams,
    step_days: float,
    horizon_days: float,
    seed: int = 0,
) -> TransitionPanel:
    """Euler-Maruyama panel for the single-regime power-scaled process."""
    config = SimConfig(
        n_users=n_users,
        s0_law=s0_law,
        horizon_days=horizon_days,
        poor=params,
        step_days=step_days,
        seed=seed,
    )
    return simulate_two_regime(config)


def simulate_two_regime(config: SimConfig) -> TransitionPanel:
    """Panel over the configured horizon, regime structure and step scheme.

    Overflowed users are excluded; `meta` holds only their count, 'n_overflow'.
    """
    ids, (s0, s1) = _run_chunked(config, (0, config.n_steps))
    meta = {"n_overflow": config.n_users - ids.size}
    # the simulator's ids are sorted and unique, and the kept balances finite and non-negative
    return TransitionPanel._checked(config.t0, math.ceil(config.horizon_days), ids, s0, s1, meta)


def _emit_days(config: SimConfig, emit_days) -> list[int]:
    """The distinct emit days in order; each must be a whole day, a multiple of step_days, within the horizon."""
    emit_days = list(emit_days)
    for e in emit_days:
        if not _whole_int64(e):  # NaN, inf and bool fail too
            raise ConfigError(f"emit day {e} is not a whole number of days", key="emit_days")
    emits = sorted({int(e) for e in emit_days})
    for e in emits:
        if e < 0 or e > config.horizon_days:
            raise ConfigError(f"emit day {e} outside the horizon [0, {config.horizon_days}]", key="emit_days")
        if e % config.step_days != 0:
            raise ConfigError(f"emit day {e} is not a multiple of step_days={config.step_days}", key="emit_days")
    return emits


def snapshot_series(config: SimConfig, emit_days) -> list[BalanceSnapshot]:
    """Materialize the simulated population at the requested day offsets.

    Balances are rounded half away from zero to integer satoshi. Emit
    times must be multiples of step_days within the horizon. Users that
    overflowed anywhere along the path are excluded from every snapshot
    so the emitted population is consistent across dates.
    """
    emits = _emit_days(config, emit_days)
    ids, captured = _run_chunked(config, [e // config.step_days for e in emits])
    ids.flags.writeable = False  # so every snapshot shares this one array
    return [
        BalanceSnapshot._checked(config.t0 + dt.timedelta(days=e), ids, np.floor(values + 0.5).astype(np.int64))
        for e, values in zip(emits, captured)
    ]
