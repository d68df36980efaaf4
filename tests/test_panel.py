import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balancegrowth import (
    BalanceSnapshot,
    HorizonError,
    MalformedInputError,
    build_panel,
    filter_active,
    taxonomy,
)
from balancegrowth.panel import GROUP_ACTIVE, GROUP_INACTIVE, GROUP_NONE

from conftest import D0, D28, panel_from_rows, snapshot


class TestBuildPanel:
    def test_sell_out_row_is_active_and_diagonal(self):
        snap0 = snapshot(D0, [("u1", 5)])
        snap1 = snapshot(D28, [("u2", 7)])
        panel = build_panel(snap0, snap1)
        i = int(np.flatnonzero(panel.user_ids == "u1")[0])
        assert (panel.s0[i], panel.s1[i], panel.ds[i]) == (5, 0, -5)
        assert panel.group[i] == GROUP_ACTIVE
        tax = taxonomy(panel)
        assert tax.diagonal == 1

    def test_identical_records_all_group_b(self):
        records = [("a", 10), ("b", 250), ("c", 1)]
        panel = build_panel(snapshot(D0, records), snapshot(D28, records))
        assert np.all(panel.ds == 0)
        assert np.all(panel.group == GROUP_INACTIVE)

    def test_28_day_horizon(self):
        panel = build_panel(snapshot(D0, [("a", 1)]), snapshot(D28, [("a", 1)]))
        assert panel.dt_days == 28

    def test_same_date_rejected(self):
        with pytest.raises(HorizonError):
            build_panel(snapshot(D0, [("a", 1)]), snapshot(D0, [("a", 2)]))

    def test_reversed_dates_rejected(self):
        with pytest.raises(HorizonError):
            build_panel(snapshot(D28, [("a", 1)]), snapshot(D0, [("a", 2)]))

    def test_duplicate_user_rejected(self):
        with pytest.raises(MalformedInputError):
            snapshot(D0, [("a", 1), ("a", 2)])

    def test_negative_balance_rejected(self):
        with pytest.raises(MalformedInputError):
            snapshot(D0, [("a", -1)])

    @pytest.mark.parametrize("balance", [5.7, -0.5, np.nan, np.inf, 2.0**63])
    def test_non_whole_balance_rejected(self, balance):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MalformedInputError, match="not a finite whole number of satoshi"):
                BalanceSnapshot(D0, np.array(["a", "b"]), np.array([1.0, balance]))
            with pytest.raises(MalformedInputError, match="not a finite whole number"):
                snapshot(D0, [("a", balance)])

    @pytest.mark.parametrize(
        "balances",
        [
            np.array([1, 5.7], dtype=object),
            [1, Decimal("5.7")],
            np.array([1, 2**63], dtype=object),
            [1, 2**63],
            [1, 2**64],
            np.array([1, 2**63], dtype=np.uint64),
            [1, None],
            ["1", "5.7"],
            ["1", "x"],
            ["1", "5"],
            np.array([b"1", b"5"]),
        ],
    )
    def test_non_whole_object_balance_rejected(self, balances):
        with pytest.raises(MalformedInputError, match="not a finite whole number of satoshi"):
            BalanceSnapshot(D0, np.array(["a", "b"]), balances)

    def test_integer_object_balances_accepted(self):
        balances = np.array([2**62, 7, Decimal(3), 4.0], dtype=object)
        snap = BalanceSnapshot(D0, np.array(["d", "c", "b", "a"]), balances)
        assert snap.balances.dtype == np.int64
        assert snap.balances.tolist() == [4, 3, 7, 2**62]

    def test_whole_float_balances_accepted(self):
        snap = BalanceSnapshot(D0, np.array(["b", "a"]), np.array([5.0, 2.0**53]))
        assert snap.balances.dtype == np.int64
        assert snap.balances.tolist() == [2**53, 5]

    def test_join_reproduces_source_snapshots(self, rng):
        # users absent on one side must read 0 there, all others their balance
        users = [f"u{i}" for i in range(500)]
        pick0 = rng.random(500) < 0.7
        pick1 = rng.random(500) < 0.7
        bal0 = rng.integers(0, 10**9, size=500)
        bal1 = rng.integers(0, 10**9, size=500)
        snap0 = snapshot(D0, [(u, int(b)) for u, b, k in zip(users, bal0, pick0) if k])
        snap1 = snapshot(D28, [(u, int(b)) for u, b, k in zip(users, bal1, pick1) if k])
        panel = build_panel(snap0, snap1)
        assert set(panel.user_ids) == set(snap0.user_ids) | set(snap1.user_ids)
        lookup0 = dict(zip(snap0.user_ids.tolist(), snap0.balances.tolist()))
        lookup1 = dict(zip(snap1.user_ids.tolist(), snap1.balances.tolist()))
        for u, s0, s1, ds in zip(panel.user_ids, panel.s0, panel.s1, panel.ds):
            assert s0 == lookup0.get(u, 0)
            assert s1 == lookup1.get(u, 0)
            assert ds == s1 - s0


# user id -> (balance at D0, balance at D28); None where the user is absent
USERS = st.dictionaries(
    st.text(alphabet="ab_0é", min_size=1, max_size=6),
    st.tuples(*[st.one_of(st.none(), st.integers(0, 2**62 - 1))] * 2),
    max_size=25,
)
IDENTICAL = {"a": (5, 5), "bb": (0, 0), "é0": (7, 7)}
DISJOINT = {"a": (5, None), "ab": (None, 3), "b_": (0, None)}


def _side(users, k, date, rng=None):
    rows = [(u, b[k]) for u, b in users.items() if b[k] is not None]
    if rng is not None:
        rows = [rows[i] for i in rng.permutation(len(rows))]
    ids = np.array([u for u, _ in rows], dtype=str)
    return BalanceSnapshot(date, ids, np.array([b for _, b in rows], dtype=np.int64))


class TestJoinProperties:
    """`build_panel` against a dict-based oracle of the join."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(users=USERS, seed=st.integers(0, 2**32 - 1))
    @example(users={}, seed=0)
    @example(users={"a": (5, None)}, seed=0)
    @example(users={"abc": (None, 5), "a": (None, 0)}, seed=0)
    @example(users=IDENTICAL, seed=1)
    @example(users=DISJOINT, seed=2)
    def test_matches_oracle_and_ignores_row_order(self, users, seed):
        snap0, snap1 = _side(users, 0, D0), _side(users, 1, D28)
        panel = build_panel(snap0, snap1)
        present = sorted(u for u, (b0, b1) in users.items() if b0 is not None or b1 is not None)
        assert panel.user_ids.tolist() == present
        assert panel.user_ids.dtype == np.promote_types(snap0.user_ids.dtype, snap1.user_ids.dtype)
        s0 = [users[u][0] or 0 for u in present]
        s1 = [users[u][1] or 0 for u in present]
        assert panel.s0.tolist() == s0 and panel.s1.tolist() == s1
        assert panel.ds.tolist() == [b - a for a, b in zip(s0, s1)]
        groups = [GROUP_NONE if a == 0 else GROUP_ACTIVE if b != a else GROUP_INACTIVE for a, b in zip(s0, s1)]
        assert panel.group.tolist() == groups

        rng = np.random.default_rng(seed)
        shuffled = build_panel(_side(users, 0, D0, rng), _side(users, 1, D28, rng))
        for name in ("user_ids", "s0", "s1", "ds", "group"):
            a, b = getattr(panel, name), getattr(shuffled, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestFilterActive:
    def test_all_horizontal_gives_empty_panel(self):
        panel = panel_from_rows([("a", 5, 5), ("b", 9, 9)])
        active = filter_active(panel)
        assert active.n_rows == 0
        assert active.meta["removed_horizontal"] == 2

    def test_vertical_row_removed(self):
        panel = panel_from_rows([("a", 0, 10**9)])
        active = filter_active(panel)
        assert active.n_rows == 0
        assert active.meta["removed_zero_start"] == 1

    def test_mixed_panel_matches_brute_force(self, rng):
        rows = []
        for i in range(400):
            s0 = int(rng.integers(0, 50))
            s1 = int(rng.integers(0, 50))
            rows.append((f"u{i}", s0, s1))
        panel = panel_from_rows(rows)
        active = filter_active(panel)
        expected = {u for u, s0, s1 in rows if s0 > 0 and s1 != s0}
        assert set(active.user_ids) == expected
        # removed and retained partition the panel
        assert active.n_rows + active.meta["removed_total"] == panel.n_rows


class TestTaxonomy:
    def test_all_sellouts_are_diagonal(self):
        panel = panel_from_rows([(f"u{i}", 10 + i, 0) for i in range(5)])
        tax = taxonomy(panel)
        assert tax.diagonal == 5
        assert tax.vertical == tax.horizontal == tax.interior == 0

    def test_counts_partition_panel(self, rng):
        rows = [(f"u{i}", int(rng.integers(0, 20)), int(rng.integers(0, 20))) for i in range(300)]
        panel = panel_from_rows(rows)
        tax = taxonomy(panel)
        assert tax.total == panel.n_rows

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=40),
        epsilon_v=st.sampled_from([0, 1, 2.5, 6]),
    )
    def test_each_row_in_exactly_one_class(self, rows, epsilon_v):
        named = {
            "vertical": lambda s0, s1: s1 > s0 and s0 <= epsilon_v,
            "horizontal": lambda s0, s1: s1 == s0,
            "diagonal": lambda s0, s1: s1 < s0 and s1 == 0,
        }
        counts = dict.fromkeys([*named, "interior"], 0)
        for s0, s1 in rows:
            hits = [name for name, member in named.items() if member(s0, s1)]
            assert len(hits) <= 1
            counts[hits[0] if hits else "interior"] += 1
        tax = taxonomy(panel_from_rows([(f"u{i}", s0, s1) for i, (s0, s1) in enumerate(rows)]), epsilon_v)
        assert {name: getattr(tax, name) for name in counts} == counts

    def test_constructed_mixture_recovered_exactly(self):
        rows = []
        k = 0
        for _ in range(30):  # vertical: enter from zero
            rows.append((f"v{k}", 0, 100 + k)); k += 1
        for _ in range(30):  # horizontal: no change
            rows.append((f"h{k}", 50 + k, 50 + k)); k += 1
        for _ in range(30):  # diagonal: full sell-out
            rows.append((f"d{k}", 70 + k, 0)); k += 1
        for _ in range(10):  # interior
            rows.append((f"i{k}", 10 + k, 20 + k)); k += 1
        tax = taxonomy(panel_from_rows(rows))
        assert (tax.vertical, tax.horizontal, tax.diagonal, tax.interior) == (30, 30, 30, 10)

    def test_epsilon_v_widens_vertical(self):
        panel = panel_from_rows([("a", 3, 100), ("b", 30, 100)])
        assert taxonomy(panel, epsilon_v=0).vertical == 0
        assert taxonomy(panel, epsilon_v=5).vertical == 1

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            taxonomy(panel_from_rows([("a", 1, 2)]), epsilon_v=-1)
