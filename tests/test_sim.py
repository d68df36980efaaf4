import datetime as dt
import math
import os

import numpy as np
import pytest
from scipy import special, stats

from balancegrowth import (
    ConfigError,
    InitialLaw,
    MalformedInputError,
    RegimeParams,
    Schedule,
    SimConfig,
    euler_paths,
    simulate_gbm_exact,
    simulate_power_sde,
    simulate_two_regime,
    snapshot_series,
)
from balancegrowth.panel import GROUP_INACTIVE, BalanceSnapshot, TransitionPanel, build_panel
from balancegrowth._rng import substream
from balancegrowth.sim import CHUNK_SIZE, CHUNKS_PER_TASK, _integrate, _run_chunked


class TestGbmExact:
    def test_zero_drift_zero_vol_is_identity(self):
        panel = simulate_gbm_exact(500, InitialLaw.lognormal(10.0, 1.0), 0.0, 0.0, 10.0, seed=1)
        assert np.array_equal(panel.s0, panel.s1)
        assert np.all(panel.group == GROUP_INACTIVE)

    def test_deterministic_exponential_growth(self):
        panel = simulate_gbm_exact(100, InitialLaw.point(1e8), mu=0.01, sigma=0.0, horizon_days=100.0, seed=2)
        assert np.allclose(panel.s1, 1e8 * math.e, rtol=1e-15)

    def test_lognormal_moments(self):
        # lighter version of the acceptance check
        panel = simulate_gbm_exact(200_000, InitialLaw.point(1e8), mu=0.05, sigma=0.2, horizon_days=1.0, seed=3)
        r = np.log(panel.s1 / panel.s0)
        n = r.size
        assert abs(r.mean() - 0.03) <= 3 * 0.2 / math.sqrt(n)
        assert abs(r.var() - 0.04) <= 3 * 0.04 * math.sqrt(2.0 / (n - 1))

    def test_deterministic_across_runs(self):
        a = simulate_gbm_exact(1000, InitialLaw.pareto(2.5, 1e6), 0.01, 0.1, 5.0, seed=7)
        b = simulate_gbm_exact(1000, InitialLaw.pareto(2.5, 1e6), 0.01, 0.1, 5.0, seed=7)
        assert np.array_equal(a.s1, b.s1)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            simulate_gbm_exact(10, InitialLaw.point(1.0), 0.0, -0.1, 1.0)

    def test_exact_steps_compose(self):
        base = dict(n_users=100_000, s0_law=InitialLaw.point(1e8), horizon_days=4, seed=3, scheme="exact")
        flat = simulate_two_regime(SimConfig(poor=RegimeParams(mu=0.01), step_days=2, **base))
        assert np.allclose(flat.s1, 1e8 * math.exp(0.04), rtol=1e-14)
        panel = simulate_two_regime(SimConfig(poor=RegimeParams(mu=0.03, sigma=0.15), step_days=2, **base))
        r = np.log(panel.s1 / panel.s0)
        n = r.size
        assert abs(r.mean() - (0.03 - 0.5 * 0.15**2) * 4) <= 3 * 0.3 / math.sqrt(n)
        assert abs(r.var() - 0.09) <= 3 * 0.09 * math.sqrt(2.0 / (n - 1))

    def test_exact_scheme_needs_one_proportional_regime(self):
        base = dict(n_users=10, s0_law=InitialLaw.point(1.0), horizon_days=2, scheme="exact")
        with pytest.raises(ConfigError):
            SimConfig(poor=RegimeParams(alpha_drift=0.9), **base)
        with pytest.raises(ConfigError):
            SimConfig(poor=RegimeParams(), wealthy=RegimeParams(), s_star=1.0, **base)

    def test_unknown_scheme_names_its_field(self):
        with pytest.raises(ConfigError, match="unknown scheme 'midpoint'") as caught:
            SimConfig(n_users=10, s0_law=InitialLaw.point(1.0), horizon_days=2, poor=RegimeParams(), scheme="midpoint")
        assert caught.value.key == "scheme"


class TestEuler:
    def test_matches_exact_deterministic_case_up_to_discretization(self):
        panel = simulate_power_sde(
            50, InitialLaw.point(1000.0), RegimeParams(1.0, 0.01, 1.0, 0.0), 1, 100, seed=0
        )
        euler_value = 1000.0 * 1.01**100
        exact_value = 1000.0 * math.exp(0.01 * 100)
        assert np.allclose(panel.s1, euler_value, rtol=1e-12)
        assert abs(euler_value - exact_value) / exact_value < 0.02

    def test_absorption_at_zero_is_permanent(self):
        config = SimConfig(
            n_users=200,
            s0_law=InitialLaw.point(100.0),
            horizon_days=10,
            poor=RegimeParams(1.0, -2.0, 1.0, 0.0),
            step_days=1,
            seed=1,
        )
        panel = simulate_two_regime(config)
        assert np.all(panel.s1 == 0.0)

    def test_no_negative_balances(self, rng):
        config = SimConfig(
            n_users=20_000,
            s0_law=InitialLaw.lognormal(5.0, 2.0),
            horizon_days=30,
            poor=RegimeParams(0.8, -0.05, 0.8, 0.5),
            step_days=1,
            seed=5,
        )
        panel = simulate_two_regime(config)
        assert np.all(panel.s1 >= 0.0)
        assert np.all(panel.s0 > 0.0)

    def test_overflow_flagged_and_excluded(self):
        config = SimConfig(
            n_users=300,
            s0_law=InitialLaw.point(1e15),
            horizon_days=40,
            poor=RegimeParams(1.3, 0.5, 1.0, 0.0),
            step_days=1,
            seed=2,
        )
        panel = simulate_two_regime(config)
        assert panel.meta["n_overflow"] == 300
        assert panel.n_rows == 0

    @pytest.mark.xfail(
        strict=True,
        reason="the Euler step holds S^a fixed over the step and clamps at 0, so it absorbs too often at a 1-day step",
    )
    def test_absorption_matches_squared_bessel_hitting_time(self):
        """With mu = 0 and a < 1, X = S^(2(1-a)) / ((1-a)^2 sigma^2) is a squared Bessel process that
        reaches 0 by day t with probability Q(nu, x0 / (2t)), nu = 1/(2(1-a)), Q the regularized upper
        incomplete gamma; the share at 0 must be within 3 binomial SE of it at each horizon."""
        a, sigma, s0 = 0.7, 3.45, 1e4
        config = SimConfig(
            n_users=100_000,
            s0_law=InitialLaw.point(s0),
            horizon_days=84,
            poor=RegimeParams(alpha_drift=a, mu=0.0, alpha_vol=a, sigma=sigma),
            seed=5,
        )
        days = (14, 42, 84)
        ids, balances = _run_chunked(config, days)
        nu = 1 / (2 * (1 - a))
        x0 = s0 ** (2 * (1 - a)) / ((1 - a) ** 2 * sigma**2)
        expected = special.gammaincc(nu, x0 / (2 * np.array(days)))
        share = np.array([np.count_nonzero(s == 0) for s in balances]) / ids.size
        se = np.sqrt(expected * (1 - expected) / ids.size)
        assert np.all(np.abs(share - expected) <= 3 * se), (share, expected)

    def test_strong_convergence_order_half(self):
        # coupled-path error against the closed-form solution, halving steps
        rng = np.random.default_rng(77)
        n = 100_000
        T, h_fine = 16.0, 0.5
        n_fine = int(T / h_fine)
        s0 = rng.lognormal(5.0, 1.0, size=n)
        dW = rng.standard_normal((n_fine, n)) * math.sqrt(h_fine)
        mu, sigma = 0.05, 0.2
        params = RegimeParams(1.0, mu, 1.0, sigma)
        exact = s0 * np.exp((mu - 0.5 * sigma**2) * T + sigma * dW.sum(axis=0))
        errors = {}
        for h in (4.0, 2.0, 1.0):
            steps = int(T / h)
            z = dW.reshape(steps, int(h / h_fine), n).sum(axis=1) / math.sqrt(h)
            final, over = euler_paths(s0, z, h, params)
            assert not over.any()
            errors[h] = float(np.mean(np.abs(final - exact)))
        assert 1.2 <= errors[4.0] / errors[2.0] <= 1.7
        assert 1.2 <= errors[2.0] / errors[1.0] <= 1.7

    @pytest.mark.parametrize("kwargs", [{"step_days": 0.0}], ids=["zero_step"])
    def test_euler_paths_checks_its_config(self, kwargs):
        args = {"s0": np.full(3, 100.0), "z": np.zeros((4, 3)), "step_days": 1.0, "params": RegimeParams(mu=0.1)}
        with pytest.raises(ConfigError):
            euler_paths(**{**args, **kwargs})

    @pytest.mark.parametrize("columns", [1, 2], ids=["one_column_for_three", "two_columns_for_three"])
    def test_euler_paths_needs_a_column_per_user(self, columns):
        with pytest.raises(MalformedInputError, match=r"z must have shape \(n_steps, n_users\)"):
            euler_paths(np.array([100.0, 200.0, 300.0]), np.ones((2, columns)), 1.0, RegimeParams(sigma=0.1))

    def test_euler_paths_empty_population(self):
        final, over = euler_paths(np.empty(0), np.empty((5, 0)), 1.0, RegimeParams(mu=0.1, sigma=0.2))
        assert final.shape == over.shape == (0,)

    def test_euler_paths_fractional_step(self):
        # 3 * 0.1 is not a float multiple of 0.1, yet the three steps are taken
        final, _ = euler_paths(np.array([100.0]), np.zeros((3, 1)), 0.1, RegimeParams(mu=0.5))
        expected = 100.0
        for _ in range(3):
            expected += expected * (0.5 * 0.1)
        assert final[0] == expected


class TestPowerOfASubset:
    """The Euler step raises each regime's exponents only on that regime's users, `S[w] ** a`. Its bits are
    those of stepping every user alone only while that equals `(S ** a)[w]` bit for bit, whatever the index
    set, the offset of its first element and the length of its tail."""

    @pytest.mark.parametrize("a", [0.5, 0.6, 0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.3, 1.6, 2.0])
    def test_power_of_a_subset_is_the_subset_of_the_power(self, rng, a):
        S = np.exp(rng.uniform(-5.0, 45.0, size=4099))
        S[[0, 17, 1000, 4098]] = 0.0
        S[[5, 2048, 4097]] = np.inf
        full = (S**a).view(np.uint64)
        subsets = [np.flatnonzero(rng.random(S.size) < p) for p in (0.002, 0.2, 0.5, 0.99)]
        subsets += [np.flatnonzero(S >= 1e10), np.array([5, 0, 17]), np.arange(1, 8)]
        for w in subsets:
            assert np.array_equal((S[w] ** a).view(np.uint64), full[w]), w[:8]
        for start in range(9):
            for stop in (start + 1, start + 7, S.size - 5, S.size):
                assert np.array_equal((S[start:stop] ** a).view(np.uint64), full[start:stop]), (start, stop)


class TestTwoRegime:
    def test_drift_signs_with_zero_vol(self):
        config = SimConfig(
            n_users=4000,
            s0_law=InitialLaw.lognormal(math.log(1e10), 1.0),
            horizon_days=5,
            poor=RegimeParams(0.9, 0.001, 0.9, 0.0),
            wealthy=RegimeParams(1.0, -0.001, 1.0, 0.0),
            s_star=1e10,
            step_days=1,
            seed=3,
            regime_mode="initial",
        )
        panel = simulate_two_regime(config)
        poor0 = panel.s0 < 1e10
        assert np.all(panel.ds[poor0] > 0)
        assert np.all(panel.ds[~poor0] < 0)

    def test_regime_boundary_crossing_bounded_by_drift(self):
        # with sigma = 0, a poor balance can grow at most S^a * mu * h per step
        config = SimConfig(
            n_users=1000,
            s0_law=InitialLaw.lognormal(math.log(1e9), 0.5),
            horizon_days=20,
            poor=RegimeParams(1.0, 0.002, 1.0, 0.0),
            wealthy=RegimeParams(1.0, -0.001, 1.0, 0.0),
            s_star=1e10,
            step_days=1,
            seed=4,
        )
        panel = simulate_two_regime(config)
        bound = 1e10 * (1.0 + 0.002)
        assert np.all(panel.s1 <= bound)

    def test_equal_regimes_match_single_process_bitwise(self):
        p = RegimeParams(0.85, 0.001, 0.85, 0.004)
        two = SimConfig(
            n_users=3000, s0_law=InitialLaw.point(1e8), horizon_days=10,
            poor=p, wealthy=p, s_star=1e8, step_days=1, seed=9,
        )
        one = SimConfig(
            n_users=3000, s0_law=InitialLaw.point(1e8), horizon_days=10,
            poor=p, step_days=1, seed=9,
        )
        a = simulate_two_regime(two)
        b = simulate_two_regime(one)
        assert np.array_equal(a.s1, b.s1)
        assert np.array_equal(a.user_ids, b.user_ids)

    def test_missing_star_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(
                n_users=10,
                s0_law=InitialLaw.point(1.0),
                horizon_days=2,
                poor=RegimeParams(),
                wealthy=RegimeParams(),
                step_days=1,
            )

    @pytest.mark.parametrize("s_star", [math.nan, 0.0, -1.0, math.inf])
    def test_s_star_must_be_positive_and_finite(self, s_star):
        with pytest.raises(ConfigError, match="s_star must be positive and finite") as caught:
            SimConfig(
                n_users=10, s0_law=InitialLaw.point(1.0), horizon_days=2,
                poor=RegimeParams(), wealthy=RegimeParams(), s_star=s_star,
            )
        assert caught.value.key == "s_star"

    def test_step_must_divide_horizon(self):
        with pytest.raises(ConfigError):
            SimConfig(
                n_users=10, s0_law=InitialLaw.point(1.0), horizon_days=7,
                poor=RegimeParams(), step_days=2,
            )

    def test_lognormal_closure_alpha_one(self):
        good = 0
        for seed in range(20):
            panel = simulate_gbm_exact(
                100_000, InitialLaw.point(1e8), mu=0.03, sigma=0.15, horizon_days=4.0, seed=seed
            )
            loc = math.log(1e8) + (0.03 - 0.5 * 0.15**2) * 4
            good += stats.kstest(np.log(panel.s1), "norm", args=(loc, 0.3)).pvalue > 0.01
        assert good >= 19


class TestSchedules:
    def test_schedule_interpolates_and_clamps(self):
        sched = Schedule(days=(0.0, 100.0), values=(1.0, 3.0))
        assert sched.at(0.0) == 1.0
        assert sched.at(50.0) == 2.0
        assert sched.at(1000.0) == 3.0

    def test_schedule_validation(self):
        with pytest.raises(ConfigError):
            Schedule(days=(0.0, 0.0), values=(1.0, 2.0))
        with pytest.raises(ConfigError):
            RegimeParams(sigma=Schedule(days=(0.0,), values=(-1.0,)))

    @pytest.mark.parametrize("days", [(0.0, math.nan), (0.0, math.inf), (-math.inf, 10.0)], ids=["nan", "inf", "-inf"])
    def test_non_finite_day_refused(self, days):
        # NaN passes the order check and reads NaN; an infinite day clamps the schedule to a constant
        with pytest.raises(ConfigError, match="^schedule days must be finite"):
            Schedule(days=days, values=(0.01, 0.005))

    def test_scheduled_drift_changes_outcome(self):
        base = dict(n_users=500, s0_law=InitialLaw.point(1e8), horizon_days=10, step_days=1, seed=0)
        rising = SimConfig(poor=RegimeParams(1.0, Schedule((0.0, 10.0), (0.0, 0.01)), 1.0, 0.0), **base)
        flat = SimConfig(poor=RegimeParams(1.0, 0.0, 1.0, 0.0), **base)
        a = simulate_two_regime(rising)
        b = simulate_two_regime(flat)
        assert np.all(a.s1 > b.s1)


class TestSnapshots:
    def test_unknown_law_refused_at_draw(self):
        with pytest.raises(ConfigError, match="unknown initial-balance law 'cauchy'") as caught:
            InitialLaw("cauchy").draw(np.random.default_rng(0), 3)
        assert caught.value.key == "s0_law"

    def test_time_zero_snapshot_equals_initial_draw(self):
        config = SimConfig(
            n_users=2000, s0_law=InitialLaw.lognormal(12.0, 1.0), horizon_days=5,
            poor=RegimeParams(1.0, 0.01, 1.0, 0.05), step_days=1, seed=8,
        )
        panel = simulate_two_regime(config)
        snap0 = snapshot_series(config, [0])[0]
        assert np.array_equal(snap0.user_ids, panel.user_ids)
        assert np.array_equal(snap0.balances, np.floor(panel.s0 + 0.5).astype(np.int64))

    def test_endpoint_snapshots_match_panel_up_to_rounding(self):
        config = SimConfig(
            n_users=3000, s0_law=InitialLaw.lognormal(18.0, 1.0), horizon_days=14,
            poor=RegimeParams(0.9, 0.002, 0.9, 0.01), step_days=1, seed=4,
        )
        panel = simulate_two_regime(config)
        snaps = snapshot_series(config, [0, 14])
        joined = build_panel(snaps[0], snaps[1])
        assert np.array_equal(joined.user_ids, panel.user_ids)
        assert np.max(np.abs(joined.s0 - panel.s0)) <= 0.5
        assert np.max(np.abs(joined.s1 - panel.s1)) <= 0.5

    def test_series_shares_one_read_only_id_array(self):
        config = SimConfig(
            n_users=500, s0_law=InitialLaw.lognormal(12.0, 1.0), horizon_days=6,
            poor=RegimeParams(1.0, 0.01, 1.0, 0.05), step_days=2, seed=3,
        )
        snaps = snapshot_series(config, [0, 2, 6])
        assert all(np.shares_memory(snaps[0].user_ids, snap.user_ids) for snap in snaps[1:])
        assert not any(snap.user_ids.flags.writeable for snap in snaps)
        with pytest.raises(ValueError):
            snaps[1].user_ids[0] = "x"

    def test_series_and_panel_equal_the_public_constructors(self):
        # both skip the id and balance checks their columns already pass
        config = SimConfig(
            n_users=700, s0_law=InitialLaw.lognormal(12.0, 1.0), horizon_days=6, poor=RegimeParams(0.9, 0.01, 1.0, 0.05),
            wealthy=RegimeParams(1.1, -0.01, 1.0, 0.02), s_star=2e5, step_days=2, seed=5,
        )
        for snap in snapshot_series(config, [0, 2, 6]):
            public = BalanceSnapshot(snap.date, snap.user_ids, snap.balances)
            assert public.date == snap.date
            for name in ("user_ids", "balances"):
                got, want = getattr(snap, name), getattr(public, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name
        panel = simulate_two_regime(config)
        public = TransitionPanel(panel.t0, panel.dt_days, panel.user_ids, panel.s0, panel.s1, panel.meta)
        assert (panel.t0, panel.dt_days, panel.meta) == (public.t0, public.dt_days, public.meta)
        for name in ("user_ids", "s0", "s1", "ds", "group"):
            got, want = getattr(panel, name), getattr(public, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    def test_emit_times_validated(self):
        config = SimConfig(
            n_users=10, s0_law=InitialLaw.point(100.0), horizon_days=10,
            poor=RegimeParams(), step_days=2, seed=0,
        )
        with pytest.raises(ConfigError):
            snapshot_series(config, [11])
        with pytest.raises(ConfigError):
            snapshot_series(config, [3])

    @pytest.mark.parametrize("day", [2.9, 2.5, math.nan, math.inf, -math.inf, True, np.True_])
    def test_fractional_emit_day_refused(self, day):
        # int() would have truncated 2.9 to the emittable day 2, and True is not day 1
        config = SimConfig(
            n_users=10, s0_law=InitialLaw.point(100.0), horizon_days=10,
            poor=RegimeParams(), step_days=2, seed=0,
        )
        with pytest.raises(ConfigError, match=f"emit day {day} is not a whole number of days") as caught:
            snapshot_series(config, [0, day])
        assert caught.value.key == "emit_days"
        assert [s.date for s in snapshot_series(config, [0, 2.0, np.int64(4)])] == [
            config.t0 + dt.timedelta(days=d) for d in (0, 2, 4)
        ]

    @pytest.mark.parametrize(
        "law, args, key",
        [
            (InitialLaw.lognormal, (math.nan, 1.0), "s0_m"),
            (InitialLaw.lognormal, (10.0, math.inf), "s0_v"),
            (InitialLaw.lognormal, (10.0, math.nan), "s0_v"),
            (InitialLaw.pareto, (math.nan, 1e6), "s0_alpha"),
            (InitialLaw.pareto, (math.inf, 1e6), "s0_alpha"),
            (InitialLaw.pareto, (2.5, math.inf), "s0_xmin"),
            (InitialLaw.point, (math.nan,), "s0_value"),
            (InitialLaw.point, (math.inf,), "s0_value"),
        ],
    )
    def test_non_finite_law_parameter_refused(self, law, args, key):
        with pytest.raises(ConfigError, match=f"^{key} must be finite$") as caught:
            law(*args)
        assert caught.value.key == key

    def test_snapshot_dates(self):
        config = SimConfig(
            n_users=10, s0_law=InitialLaw.point(100.0), horizon_days=10,
            poor=RegimeParams(), step_days=1, seed=0, t0=dt.date(2016, 1, 23),
        )
        snaps = snapshot_series(config, [0, 10])
        assert snaps[0].date == dt.date(2016, 1, 23)
        assert snaps[1].date == dt.date(2016, 2, 2)


class TestSchedule:
    """Each user chunk draws from its own substream, so the worker count and the blocks change no bit."""

    CONFIGS = {
        "partial_second_block": SimConfig(
            n_users=(CHUNKS_PER_TASK + 1) * CHUNK_SIZE + 123, s0_law=InitialLaw.lognormal(math.log(1e8), 2.0),
            horizon_days=6, poor=RegimeParams(0.9, 5e-3, 0.95, 0.01), wealthy=RegimeParams(1.1, -5e-4, 1.0, 0.005),
            s_star=1e9, step_days=1, seed=23, regime_mode="initial",
        ),
        "two_regime_partial_chunk": SimConfig(
            n_users=2 * CHUNK_SIZE + 123, s0_law=InitialLaw.lognormal(math.log(1e8), 2.0), horizon_days=6,
            poor=RegimeParams(0.9, 5e-3, 0.95, 0.01), wealthy=RegimeParams(1.1, -5e-4, 1.0, 0.005),
            s_star=1e9, step_days=1, seed=21,
        ),
        "under_one_chunk": SimConfig(
            n_users=500, s0_law=InitialLaw.pareto(2.5, 1e6), horizon_days=4,
            poor=RegimeParams(0.8, 1e-3, 0.9, 0.02), step_days=2, seed=22,
        ),
        "overflow": SimConfig(
            n_users=CHUNK_SIZE + 77, s0_law=InitialLaw.lognormal(math.log(1e12), 3.0), horizon_days=6,
            poor=RegimeParams(0.9, 5e-3, 0.95, 0.01), wealthy=RegimeParams(1.6, 0.5, 1.0, 0.05),
            s_star=1e15, step_days=2, seed=11,
        ),
    }

    @staticmethod
    def _outputs(config):
        panel = simulate_two_regime(config)
        snaps = snapshot_series(config, range(0, config.horizon_days + 1, config.step_days))
        arrays = [panel.user_ids, panel.s0, panel.s1]
        for snap in snaps:
            arrays += [snap.user_ids, snap.balances]
        return panel.meta["n_overflow"], arrays

    @pytest.mark.parametrize("name", CONFIGS)
    def test_worker_count_changes_no_bit(self, monkeypatch, name):
        config = self.CONFIGS[name]
        outputs = []
        for cpus in ({0}, {0, 1, 2, 3}, None):
            if cpus is None:  # no affinity call: fall back to the CPU count
                monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            else:
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
            outputs.append(self._outputs(config))
        (n_over, serial), *others = outputs
        assert (n_over > 0) == (name == "overflow") and n_over < config.n_users
        for other_over, arrays in others:
            assert other_over == n_over
            assert all(np.array_equal(a, b) for a, b in zip(serial, arrays, strict=True))

    @pytest.mark.parametrize("name", CONFIGS)
    def test_blocks_integrate_as_their_chunks(self, name):
        config = self.CONFIGS[name]
        steps = (0, 2, config.n_steps)
        over, caps = [], []
        for chunk in range(-(-config.n_users // CHUNK_SIZE)):  # one chunk at a time, on its own substream
            k = min(CHUNK_SIZE, config.n_users - chunk * CHUNK_SIZE)
            rng = substream(config.seed, chunk)
            chunk_over, chunk_caps = _integrate(config, config.s0_law.draw(rng, k), lambda j: rng.standard_normal(k), steps)
            over.append(chunk_over)
            caps.append(chunk_caps)
        keep = ~np.concatenate(over)
        ids, kept = _run_chunked(config, steps)
        assert ids.size == np.count_nonzero(keep)
        for i, values in enumerate(kept):
            assert np.array_equal(values, np.concatenate([c[i] for c in caps])[keep])
