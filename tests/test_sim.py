import datetime as dt
import math

import numpy as np
import pytest
from scipy import stats

from balancegrowth import (
    ConfigError,
    InitialLaw,
    RegimeParams,
    Schedule,
    SimConfig,
    euler_paths,
    simulate_gbm_exact,
    simulate_power_sde,
    simulate_two_regime,
    snapshot_series,
)
from balancegrowth.panel import GROUP_INACTIVE, build_panel


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

    @pytest.mark.parametrize(
        "kwargs",
        [{"wealthy": RegimeParams()}, {"regime_mode": "frozen"}, {"step_days": 0.0}],
        ids=["wealthy_without_s_star", "unknown_regime_mode", "zero_step"],
    )
    def test_euler_paths_checks_its_config(self, kwargs):
        args = {"s0": np.full(3, 100.0), "z": np.zeros((4, 3)), "step_days": 1.0, "params": RegimeParams(mu=0.1)}
        with pytest.raises(ConfigError):
            euler_paths(**{**args, **kwargs})

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

    def test_scheduled_drift_changes_outcome(self):
        base = dict(n_users=500, s0_law=InitialLaw.point(1e8), horizon_days=10, step_days=1, seed=0)
        rising = SimConfig(poor=RegimeParams(1.0, Schedule((0.0, 10.0), (0.0, 0.01)), 1.0, 0.0), **base)
        flat = SimConfig(poor=RegimeParams(1.0, 0.0, 1.0, 0.0), **base)
        a = simulate_two_regime(rising)
        b = simulate_two_regime(flat)
        assert np.all(a.s1 > b.s1)


class TestSnapshots:
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

    def test_emit_times_validated(self):
        config = SimConfig(
            n_users=10, s0_law=InitialLaw.point(100.0), horizon_days=10,
            poor=RegimeParams(), step_days=2, seed=0,
        )
        with pytest.raises(ConfigError):
            snapshot_series(config, [11])
        with pytest.raises(ConfigError):
            snapshot_series(config, [3])

    def test_snapshot_dates(self):
        config = SimConfig(
            n_users=10, s0_law=InitialLaw.point(100.0), horizon_days=10,
            poor=RegimeParams(), step_days=1, seed=0, t0=dt.date(2016, 1, 23),
        )
        snaps = snapshot_series(config, [0, 10])
        assert snaps[0].date == dt.date(2016, 1, 23)
        assert snaps[1].date == dt.date(2016, 2, 2)
