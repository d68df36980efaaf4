import dataclasses
import math
import warnings
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balancegrowth import (
    BalanceSnapshot,
    HorizonError,
    MalformedInputError,
    TransitionPanel,
    build_panel,
    filter_active,
    taxonomy,
)
from balancegrowth import panel as bg_panel
from balancegrowth.panel import GROUP_ACTIVE, GROUP_INACTIVE, GROUP_NONE, _encode_utf8

from conftest import D0, D28, panel_from_rows, snapshot


class TestBuildPanel:
    def test_sell_out_row_is_active_and_diagonal(self):
        snap0 = snapshot(D0, [("u1", 5)])
        snap1 = snapshot(D28, [("u2", 7)])
        panel = build_panel(snap0, snap1)
        i = int(np.flatnonzero(panel.user_ids == b"u1")[0])
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
            np.array([True, False]),
            np.array([1 + 0j, 2 + 0j]),
            np.array([1, 2], dtype="timedelta64[D]"),
            np.array(["2016-01-01", "2016-01-02"], dtype="datetime64[D]"),  # not 16,801 satoshi
            [True, 2],  # numpy alone would cast True to 1
            (2.0, np.False_),
            np.array([1, True], dtype=object),
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

    @pytest.mark.parametrize("order", [[0, 1, 2, 3], [2, 0, 3, 1]], ids=["sorted", "shuffled"])
    def test_sorted_copy_never_aliases_input(self, order):
        ids = np.array([b"a", b"b", b"c", b"d"])[order]
        balances = np.array([1, 2, 3, 4], dtype=np.int64)[order]
        snap = BalanceSnapshot(D0, ids, balances)
        assert snap.user_ids.tolist() == [b"a", b"b", b"c", b"d"] and snap.balances.tolist() == [1, 2, 3, 4]
        assert not np.shares_memory(snap.user_ids, ids) and not np.shares_memory(snap.balances, balances)

    def test_read_only_ids_shared_only_when_no_writeable_handle_exists(self):
        owned = np.array([b"a", b"b", b"c"])
        owned.flags.writeable = False
        assert np.shares_memory(BalanceSnapshot(D0, owned, [1, 2, 3]).user_ids, owned)
        base = np.array([b"a", b"b", b"c"])
        view = base[:]
        view.flags.writeable = False
        snap = BalanceSnapshot(D0, view, [1, 2, 3])
        assert not np.shares_memory(snap.user_ids, base)

    def test_text_ids_encoded_once(self):
        snap = BalanceSnapshot(D0, np.array(["zoë", "a"]), [1, 2])
        assert snap.user_ids.dtype == np.dtype("S4") and snap.user_ids.tolist() == [b"a", "zoë".encode()]
        assert snapshot(D0, [("zoë", 1), ("a", 2)]).user_ids.tolist() == snap.user_ids.tolist()

    @pytest.mark.parametrize("rows_per_block", [1, 2, 1 << 16])
    @pytest.mark.parametrize(
        "text",
        [["a", "", "bc", "~"], ["zoë", "漢字", "", "😀"], ["a", "é", "xyz", "", "b"], []],
        ids=["ascii", "non-ascii", "mixed", "empty"],
    )
    def test_text_encoded_block_by_block(self, text, rows_per_block):
        with mock.patch.object(bg_panel, "_ROWS_PER_BLOCK", rows_per_block):
            encoded = _encode_utf8(np.array(text, dtype=str))
        assert encoded.dtype.kind == "S" and encoded.tolist() == [u.encode("utf-8") for u in text]
        assert _encode_utf8(np.array([["é", "a"], ["b", ""]])).tolist() == [["é".encode(), b"a"], [b"b", b""]]

    @pytest.mark.parametrize(
        "ids",
        [
            pytest.param(np.array(["ok", "n\0ul"]), id="inner-text"),
            pytest.param(np.array([b"ok", b"n\0ul"]), id="inner-bytes"),
            pytest.param(["ok", "a\0"], id="trailing-text"),  # an array would drop the NUL
            pytest.param([b"ok", b"a\0"], id="trailing-bytes"),
        ],
    )
    def test_nul_in_id_refused(self, ids):
        with pytest.raises(MalformedInputError, match=r"^user id '(n\\x00ul|a\\x00)' holds NUL$"):
            BalanceSnapshot(D0, ids, [1, 5])
        with pytest.raises(MalformedInputError, match="holds NUL"):
            TransitionPanel(None, None, ids, np.array([1, 5]), np.array([1, 5]))

    @pytest.mark.parametrize("ids", [[1, 2], np.array([1, 2]), np.array([["a"], ["b"]]), [b"a", None]])
    def test_ids_that_are_not_text_refused(self, ids):
        with pytest.raises(MalformedInputError, match="^user ids must be a 1-d array of text$"):
            BalanceSnapshot(D0, ids, [1, 2])

    def test_record_ids_kept_as_given(self):
        # bytes stay the bytes they are, not their repr; other objects become their str
        snap = BalanceSnapshot.from_records(D0, [(b"a", 1), ("zo\u00eb", 2), (7, 3), (b"\xc3\xa9", 4)])
        assert snap.user_ids.tolist() == [b"7", b"a", "zo\u00eb".encode(), "\u00e9".encode()]
        assert snap.balances.tolist() == [3, 1, 2, 4]

    @pytest.mark.parametrize("bad_id", ["n\0ul", "a\0"])
    def test_nul_in_record_id_refused(self, bad_id):
        with pytest.raises(MalformedInputError, match="holds NUL"):
            snapshot(D0, [("ok", 1), (bad_id, 5), ("a", 2)])

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

    def test_shared_id_array_joins_as_its_copies(self, rng):
        # snapshots of one user set may share one read-only id array, and their join skips the merge
        ids = np.array([f"u{i:04d}".encode() for i in range(300)])
        ids.flags.writeable = False
        bal0 = rng.integers(0, 10**9, size=300)
        bal0[:30] = 0
        bal1 = np.where(rng.random(300) < 0.5, bal0, rng.integers(0, 10**9, size=300))
        bal1[25:40] = 0
        shared = BalanceSnapshot(D0, ids, bal0), BalanceSnapshot(D28, ids, bal1)
        assert shared[0].user_ids is shared[1].user_ids
        panel = build_panel(*shared)
        copied = build_panel(BalanceSnapshot(D0, ids.copy(), bal0), BalanceSnapshot(D28, ids.copy(), bal1))
        assert (panel.t0, panel.dt_days, panel.meta) == (copied.t0, copied.dt_days, copied.meta)
        for name in ("user_ids", "s0", "s1", "ds", "group"):
            got, want = getattr(panel, name), getattr(copied, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        for snap in shared:
            assert snap.balances.flags.writeable
            assert not np.shares_memory(panel.s0, snap.balances) and not np.shares_memory(panel.s1, snap.balances)


# user id -> (balance at D0, balance at D28); None where the user is absent
USERS = st.dictionaries(
    st.text(alphabet="ab_0é", min_size=1, max_size=6),
    st.tuples(*[st.one_of(st.none(), st.integers(0, 2**62 - 1))] * 2),
    max_size=25,
)
IDENTICAL = {"a": (5, 5), "bb": (0, 0), "é0": (7, 7)}
DISJOINT = {"a": (5, None), "ab": (None, 3), "b_": (0, None)}
# ids behind a long common prefix, most of them tying on the 8 bytes after it and differing later
PREFIX = "1BvBMSEYstWetqTFn5Au4m4GFg7x"
WORD_USERS = st.dictionaries(
    st.tuples(st.sampled_from(["abcdefgh", "abcdefgi", "abcdefg", "b"]), st.text(alphabet="ab_é", max_size=4)).map(
        lambda t: PREFIX + t[0] + t[1]
    ),
    st.tuples(*[st.one_of(st.none(), st.integers(0, 2**62 - 1))] * 2),
    max_size=12,
)
# a later id tying with an earlier one on the word after the prefix, smaller and then larger than it
TIE_BELOW = {PREFIX + "abcdefgh_b": (5, None), PREFIX + "abcdefgh_a": (None, 3), PREFIX + "zz": (1, 1)}
TIE_ABOVE = {PREFIX + "abcdefgh_a": (5, None), PREFIX + "abcdefgh_b": (None, 3), PREFIX + "zz": (1, 1)}
# earlier ids that share their word after the prefix: the join places the later ids by the whole ids
REPEATED_WORD = {PREFIX + "abcdefgh_a": (5, 2), PREFIX + "abcdefgh_c": (4, None), PREFIX + "abcdefgh_b": (None, 3)}
UNEQUAL_WIDTHS = {"a": (5, None), PREFIX + "abcdefgh_long": (None, 3), "ab": (2, 2), "z" * 40: (None, 1)}
ONE_SIDE_EMPTY = {PREFIX + "a": (5, None), PREFIX + "b": (0, None)}


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
    @example(users=TIE_BELOW, seed=3)
    @example(users=TIE_ABOVE, seed=4)
    @example(users=REPEATED_WORD, seed=5)
    @example(users=UNEQUAL_WIDTHS, seed=6)
    @example(users=ONE_SIDE_EMPTY, seed=7)
    @example(users={u: (b1, b0) for u, (b0, b1) in ONE_SIDE_EMPTY.items()}, seed=8)
    def test_matches_oracle_and_ignores_row_order(self, users, seed):
        self._check_against_oracle(users, seed)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(users=WORD_USERS, seed=st.integers(0, 2**32 - 1))
    def test_ids_behind_a_long_prefix_match_oracle(self, users, seed):
        self._check_against_oracle(users, seed)

    @staticmethod
    def _check_against_oracle(users, seed):
        snap0, snap1 = _side(users, 0, D0), _side(users, 1, D28)
        panel = build_panel(snap0, snap1)
        present = sorted(u for u, (b0, b1) in users.items() if b0 is not None or b1 is not None)
        assert panel.user_ids.tolist() == [u.encode() for u in present]
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

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(users=USERS, data=st.data())
    def test_either_side_in_any_row_order(self, users, data):
        snaps = [_side(users, 0, D0), _side(users, 1, D28)]
        panel = build_panel(*snaps)
        for k, snap in enumerate(snaps):
            order = data.draw(st.permutations(range(snap.n_users)))
            pair = list(snaps)
            pair[k] = BalanceSnapshot(snap.date, snap.user_ids[order], snap.balances[order])
            shuffled = build_panel(*pair)
            for name in ("user_ids", "s0", "s1", "ds", "group"):
                a, b = getattr(panel, name), getattr(shuffled, name)
                assert a.dtype == b.dtype and np.array_equal(a, b)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(users=USERS, pick=st.sets(st.text(alphabet="ab_0é", min_size=1, max_size=6)))
    @example(users=IDENTICAL, pick={"a", "é0"})
    @example(users=DISJOINT, pick=set())
    def test_rows_of_a_subset_are_the_join_of_that_subset(self, users, pick):
        pick = pick | set(list(users)[::2])  # most drawn ids are not in `users`
        panel = build_panel(_side(users, 0, D0), _side(users, 1, D28))
        part = build_panel(
            _side({u: b for u, b in users.items() if u in pick}, 0, D0),
            _side({u: b for u, b in users.items() if u in pick}, 1, D28),
        )
        rows = np.isin(panel.user_ids, [u.encode() for u in pick])
        for name in ("user_ids", "s0", "s1", "ds", "group"):
            assert getattr(panel, name)[rows].tolist() == getattr(part, name).tolist()


class TestTransitionPanel:
    def test_fields_are_ids_and_balances(self):
        names = [f.name for f in dataclasses.fields(TransitionPanel)]
        assert names == ["t0", "dt_days", "user_ids", "s0", "s1", "meta"]

    def test_ds_and_group_follow_s0_and_s1(self):
        panel = TransitionPanel(None, None, np.array(["x", "y", "z"]), np.array([5, 4, 0]), np.array([7, 4, 3]))
        assert panel.ds.tolist() == [2, 0, 3]
        assert panel.group.tolist() == [GROUP_ACTIVE, GROUP_INACTIVE, GROUP_NONE]
        active = filter_active(panel)
        assert active.user_ids.tolist() == [b"x"] and active.ds.tolist() == [2]
        tax = taxonomy(panel)
        assert (tax.vertical, tax.horizontal, tax.interior) == (1, 1, 1)


    @pytest.mark.parametrize(
        "ids, s0, message",
        [
            (["a", "b\0"], [1, 2], "holds NUL"),
            (["a", "b", "a"], [1, 2, 3], "^duplicate user_id 'a'$"),
            (["a", "b"], [1, -2], "^negative balance -2$"),
        ],
    )
    def test_public_constructor_keeps_every_check(self, ids, s0, message):
        with pytest.raises(MalformedInputError, match=message):
            TransitionPanel(D0, 28, ids, np.array(s0), np.array(s0))

    def test_bool_among_listed_balances_refused(self):
        with pytest.raises(MalformedInputError, match="^balance True is not a finite whole number of satoshi$"):
            BalanceSnapshot.from_records(D0, [("a", True), ("b", 2)])
        for s0, s1, name in (([True, 2], [3, 4], "s0"), ([3, 4], (1.5, np.False_), "s1")):
            with pytest.raises(MalformedInputError, match=f"^{name} has dtype object;"):
                TransitionPanel(D0, 7, ["a", "b"], s0, s1)

    @pytest.mark.parametrize("dt_days", [0, -7, 7.5, math.nan, math.inf, True, np.True_])
    def test_horizon_must_be_a_positive_whole_day_count(self, dt_days):
        with pytest.raises(HorizonError, match=f"^dt_days must be a positive whole number of days, got {dt_days}$"):
            TransitionPanel(D0, dt_days, ["a"], [1], [2])
        assert TransitionPanel(D0, np.int64(7), ["a"], [1], [2]).dt_days == 7

    def test_list_columns_accepted(self):
        panel = TransitionPanel(D0, 28, ["a", "b"], [10, 20], [11, 19])
        assert panel.s0.dtype == panel.s1.dtype == np.int64
        assert panel.ds.tolist() == [1, -1] and panel.group.tolist() == [GROUP_ACTIVE, GROUP_ACTIVE]

    @pytest.mark.parametrize(
        "s0, s1, message",
        [
            # unsigned, 3 - 5 would wrap to 2^64 - 2 and read as a gain
            (np.array([5], dtype=np.uint64), np.array([3], dtype=np.uint64), "^s0 has dtype uint64;"),
            (np.array([5]), np.array([True]), "^s1 has dtype bool;"),
            (np.array([5], dtype="timedelta64[D]"), np.array([3]), r"^s0 has dtype timedelta64\[D\];"),
            (np.array([5]), np.array([3 + 0j]), "^s1 has dtype complex128;"),
            ([5], [2**64], "^s1 has dtype object;"),
        ],
    )
    def test_columns_that_are_not_integers_or_floats_refused(self, s0, s1, message):
        with pytest.raises(MalformedInputError, match=message):
            TransitionPanel(D0, 28, ["a"], s0, s1)

    def test_build_panel_and_take_equal_the_checked_constructor(self, rng):
        users = [f"u{i:04d}" for i in range(600)]
        snap0 = snapshot(D0, [(u, int(b)) for u, b in zip(users[:400], rng.integers(0, 50, 400))])
        snap1 = snapshot(D28, [(u, int(b)) for u, b in zip(users[200:], rng.integers(0, 50, 400))])
        joined = build_panel(snap0, snap1)
        active = filter_active(joined)
        for panel in (joined, active):
            public = TransitionPanel(panel.t0, panel.dt_days, panel.user_ids.copy(), panel.s0, panel.s1, panel.meta)
            assert (panel.t0, panel.dt_days, panel.meta) == (public.t0, public.dt_days, public.meta)
            for name in ("user_ids", "s0", "s1", "ds", "group"):
                got, want = getattr(panel, name), getattr(public, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert active.meta["removed_total"] == joined.n_rows - active.n_rows > 0


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
        expected = {u.encode() for u, s0, s1 in rows if s0 > 0 and s1 != s0}
        assert set(active.user_ids) == expected
        assert active.meta["removed_zero_start"] == sum(s0 == 0 for _, s0, _ in rows)
        assert active.meta["removed_horizontal"] == sum(s0 > 0 and s1 == s0 for _, s0, s1 in rows)
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
    @given(rows=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=40))
    def test_each_row_in_exactly_one_class(self, rows):
        named = {
            "vertical": lambda s0, s1: s1 > s0 and s0 == 0,
            "horizontal": lambda s0, s1: s1 == s0,
            "diagonal": lambda s0, s1: s1 < s0 and s1 == 0,
        }
        counts = dict.fromkeys([*named, "interior"], 0)
        for s0, s1 in rows:
            hits = [name for name, member in named.items() if member(s0, s1)]
            assert len(hits) <= 1
            counts[hits[0] if hits else "interior"] += 1
        tax = taxonomy(panel_from_rows([(f"u{i}", s0, s1) for i, (s0, s1) in enumerate(rows)]))
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
