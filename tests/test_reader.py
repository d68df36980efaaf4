"""The byte-level CSV reader: its integer grammar, the writer's cells as its oracle,
and snapshot reads on a thread per usable CPU."""

import datetime as dt
import math
import os
import re
import sys
import tempfile
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balancegrowth import BalanceSnapshot, MalformedInputError, TransitionPanel, build_panel
from balancegrowth import io as bg_io
from balancegrowth import panel as bg_panel
from balancegrowth._workers import map_on_cpus
from balancegrowth.cli import main
from balancegrowth.io import (
    _format_cells,
    _read_csv,
    read_panel_csv,
    read_snapshot_csv,
    read_values_csv,
    write_csv,
    write_panel_csv,
    write_snapshot_csv,
)
from balancegrowth.panel import _id_order

from conftest import D0, D28

INT_MESSAGE = "balance must be a decimal integer in the int64 range, got "
INT_CELL = re.compile(r"-?[0-9]+")


def _snapshot_file(path, rows):
    path.write_text("user_id,balance\n" + "".join(f"{u},{b}\n" for u, b in rows), encoding="utf-8")
    return path


class TestIntegerGrammar:
    """A balance cell is `-?[0-9]+` in ASCII, as the writer emits it, and nothing else."""

    @pytest.mark.parametrize("cell", ["١٢", " 7", "+5", "1_000", "7 ", "", "-", "--5", "5-", "1e3", "0x10", "1.0"])
    def test_other_forms_named(self, tmp_path, cell):
        path = _snapshot_file(tmp_path / "s.csv", [("a", 1), ("b", cell), ("c", 2)])
        message = f"^{re.escape(str(path))}:3: {re.escape(INT_MESSAGE + repr(cell))}$"
        with pytest.raises(MalformedInputError, match=message):
            read_snapshot_csv(path, D0)

    @pytest.mark.parametrize(
        "cell, value",
        [("007", 7), ("-0", 0), ("9223372036854775807", 2**63 - 1), ("00000000000000000000009", 9)],
    )
    def test_leading_zeros_and_edges_read(self, tmp_path, cell, value):
        path = _snapshot_file(tmp_path / "s.csv", [("a", cell)])
        assert read_snapshot_csv(path, D0).balances.tolist() == [value]

    @pytest.mark.parametrize(
        "cell",
        [
            "9223372036854775808",  # 19 digits, one past the limit
            "9999999999999999999",
            "10000000000000000000",  # 20 digits
            "-10000000000000000000",
            "123456789012345678901234567890",
        ],
    )
    def test_overflow_named(self, tmp_path, cell):
        path = tmp_path / "v.csv"
        path.write_text(f"user_id,n\n\na,1\nb,{cell}\n", encoding="utf-8")
        with pytest.raises(MalformedInputError, match=f"^{re.escape(str(path))}:4: n must be a decimal integer"):
            _read_csv(path, [("user_id", "utf8"), ("n", "int")])

    def test_int64_extremes_exact(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text(f"n\n{2**63 - 1}\n{-(2**63 - 1)}\n{-(2**63)}\n-0000000000000000000001\n", encoding="utf-8")
        (n,), _ = _read_csv(path, [("n", "int")])
        assert n.dtype == np.int64 and n.tolist() == [2**63 - 1, -(2**63 - 1), -(2**63), -1]

    @pytest.mark.parametrize("cell, value", [(" 7", 7.0), ("+5", 5.0), ("1_000", 1000.0), ("١٢", 12.0)])
    def test_real_cells_keep_float_grammar(self, tmp_path, cell, value):
        path = tmp_path / "v.csv"
        path.write_text(f"balance\n{cell}\n", encoding="utf-8")
        assert read_values_csv(path).tolist() == [value]


def _cells_in_buffer(cells):
    """`cells` laid out as `_read_csv` lays out a row of them: `_PAD` NULs, then the cells between commas."""
    raw = b",".join(cells) + b"\n"
    sizes = np.array([len(c) for c in cells], dtype=np.int64)
    starts = bg_io._PAD + np.cumsum(sizes + 1) - sizes - 1
    buf = np.zeros(bg_io._PAD + len(raw) + 1, dtype=np.uint8)
    buf[bg_io._PAD : bg_io._PAD + len(raw)] = np.frombuffer(raw, dtype=np.uint8)
    return buf, starts, starts + sizes


INT64_EDGES = [str(v).encode() for e in (2**63, -(2**63)) for v in (e - 2, e - 1, e, e + 1)]
# digit runs, some with one byte of any value among them (0xFA-0xFF carry when 6 is added to a byte)
DIGIT_RUN = st.lists(st.sampled_from(b"0123456789"), max_size=26).map(bytes)
CELL_BYTES = st.one_of(
    st.binary(max_size=26),
    DIGIT_RUN,
    st.tuples(DIGIT_RUN, st.integers(0, 255), DIGIT_RUN).map(lambda t: t[0] + bytes([t[1]]) + t[2]),
    st.integers(10**16, 10**19 - 1).map(lambda v: str(v).encode()),  # 17 to 19 digits
    st.tuples(st.integers(1, 12), st.integers(0, 10**19 - 1)).map(lambda t: b"0" * t[0] + str(t[1]).encode()),
    st.sampled_from([*INT64_EDGES, b"-", b"", b"-0", b"0" * 19 + b"1", b"0" * 25]),
)


class TestIntegerWords:
    """`_int_cells`, eight bytes per word, agrees with the `-?[0-9]+` grammar and `int()` on every cell."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        cells=st.lists(st.tuples(st.booleans(), CELL_BYTES).map(lambda t: b"-" * t[0] + t[1]), max_size=12),
        rows_per_block=st.integers(1, 5),
    )
    @example(cells=[bytes([d, 0xFA + k]) + b"1234567" for k in range(6) for d in b"09"], rows_per_block=4)
    @example(cells=[b"-", b"", b"1" * 19, b"0" * 22 + b"7", *INT64_EDGES], rows_per_block=3)
    def test_values_and_refusals_match_the_grammar(self, cells, rows_per_block):
        buf, starts, stops = _cells_in_buffer(cells)
        with mock.patch.object(bg_io, "_ROWS_PER_CHUNK", rows_per_block):
            values, bad = bg_io._int_cells(buf, starts, stops)
        for cell, value, refused in zip(cells, values.tolist(), bad.tolist()):
            ok = bg_io._INT_CELL.fullmatch(cell) is not None and -(2**63) <= int(cell) < 2**63
            assert refused == (not ok), cell
            assert not ok or value == int(cell), cell

    def test_first_cell_after_a_short_header(self, tmp_path):
        """The first cell starts 2 bytes into the file, and a 19-digit cell in its block reads three words
        back from each cell's end: the pad before the file keeps every word inside the buffer."""
        path = tmp_path / "v.csv"
        path.write_bytes(b"a\n5\n" + b"1234567890123456789\n")
        (a,), _ = _read_csv(path, [("a", "int")])
        assert a.tolist() == [5, 1234567890123456789]
        path.write_bytes(b"a\n5\n")
        assert _read_csv(path, [("a", "int")])[0][0].tolist() == [5]


# any text a cell may hold: no comma, quote, CR, LF, NUL, or lone surrogate; astral planes included
ID_TEXT = st.text(st.characters(blacklist_characters=',"\r\n\0', blacklist_categories=("Cs",)), max_size=6)
INT64 = st.one_of(
    st.integers(-(2**63), 2**63 - 1), st.sampled_from([2**63 - 1, -(2**63 - 1), -(2**63), 0, -1, 10**18])
)
REAL = st.one_of(st.floats(), INT64.map(float), st.integers(-(2**63), 2**63 - 1))


class TestReaderMatchesWriterCells:
    """Whatever `write_csv` writes, `_read_csv` reads back cell for cell and line for line."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        rows=st.lists(st.tuples(ID_TEXT, INT64, REAL), max_size=14),
        blank_after=st.lists(st.integers(0, 14), max_size=4),
        eol=st.sampled_from(["\n", "\r\n"]),
        final_eol=st.booleans(),
        rows_per_block=st.integers(1, 5),
    )
    @example(
        rows=[("é", 2**63 - 1, math.nan), ("𝔘", -(2**63), 1.5)], blank_after=[0, 2], eol="\r\n",
        final_eol=False, rows_per_block=1,
    )
    @example(
        rows=[("a", 5, 2.0**63), ("", -1, -(2**63)), ("\U0010ffff", 0, 9007199254740993)], blank_after=[1],
        eol="\n", final_eol=True, rows_per_block=2,
    )
    def test_cells_and_lines(self, rows, blank_after, eol, final_eol, rows_per_block):
        ids, ints, reals = (list(col) for col in zip(*rows)) if rows else ([], [], [])
        real_column = np.array(reals, dtype=np.int64 if all(isinstance(r, int) for r in reals) else np.float64)
        columns = {"id": np.array(ids, dtype=str), "n": np.array(ints, dtype=np.int64), "x": real_column}
        cells = _format_cells(real_column)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            write_csv(path, columns)
            lines = path.read_text(encoding="utf-8").split("\n")[:-1]
            for k in sorted(blank_after, reverse=True):  # blank lines after data row k
                lines.insert(min(k, len(rows)) + 1, "")
            path.write_bytes((eol.join(lines) + (eol if final_eol else "")).encode("utf-8"))
            lineno = [i + 1 for i, text in enumerate(lines) if text][1:]
            schema = [("id", "utf8"), ("n", "int"), ("x", "real")]
            with mock.patch.object(bg_io, "_ROWS_PER_CHUNK", rows_per_block), mock.patch.object(
                bg_panel, "_ROWS_PER_BLOCK", rows_per_block
            ):
                if "" in cells:  # NaN is written as an empty cell, which is not a number
                    i = cells.index("")
                    message = f"^{re.escape(str(path))}:{lineno[i]}: x must be a number, got ''$"
                    with pytest.raises(MalformedInputError, match=message):
                        _read_csv(path, schema)
                    return
                (got_ids, got_ints, got_reals), line = _read_csv(path, schema)
        assert got_ids.tolist() == [u.encode() for u in ids]
        assert got_ints.dtype == np.int64 and got_ints.tolist() == ints
        exact = all(INT_CELL.fullmatch(c) and -(2**63) <= int(c) < 2**63 for c in cells)
        assert got_reals.dtype == (np.int64 if exact else np.float64)
        assert got_reals.tolist() == [int(c) if exact else float(c) for c in cells]
        assert [line(i) for i in range(len(rows))] == lineno


def _int_rows_file(path, names, rows, blank_after=(), eol="\n", final_eol=True):
    """Write a header of `names` and `rows` of cells, with a blank line after each data row in `blank_after`;
    returns each row's line."""
    lines = [",".join(names), *(",".join(map(str, row)) for row in rows)]
    for k in sorted(blank_after, reverse=True):
        lines.insert(min(k, len(rows)) + 1, "")
    path.write_bytes((eol.join(lines) + (eol if final_eol else "")).encode("utf-8"))
    return [i + 1 for i, text in enumerate(lines) if text][1:]


INT_ROWS = st.integers(1, 3).flatmap(lambda k: st.lists(st.lists(INT64, min_size=k, max_size=k), max_size=12))


class TestShapedLines:
    """A file whose every line holds the header's field count is read from its separators alone, and
    the same rows with blank lines, CRLF ends, no last LF or extra fields, read line by line, agree."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        rows=INT_ROWS.filter(bool),
        blank_after=st.lists(st.integers(0, 12), max_size=3),
        eol=st.sampled_from(["\n", "\r\n"]),
        final_eol=st.booleans(),
        extra=st.integers(1, 3),
    )
    @example(rows=[[5]], blank_after=[0, 1], eol="\n", final_eol=True, extra=1)  # blank lines in a one-field file
    def test_every_layout_reads_alike(self, rows, blank_after, eol, final_eol, extra):
        names = ["balance", *(f"c{j}" for j in range(1, len(rows[0])))]
        schema = [(name, "int") for name in names]
        with tempfile.TemporaryDirectory() as tmp:
            plain, other, wide = (Path(tmp) / f"{name}.csv" for name in ("plain", "other", "wide"))
            assert _int_rows_file(plain, names, rows) == [i + 2 for i in range(len(rows))]
            want, line = _read_csv(plain, schema)
            lineno = _int_rows_file(other, names, rows, blank_after, eol, final_eol)
            got, other_line = _read_csv(other, schema)
            assert [a.tolist() for a in got] == [a.tolist() for a in want] == [list(col) for col in zip(*rows)]
            assert [line(i) for i in range(len(rows))] == [i + 2 for i in range(len(rows))]
            assert [other_line(i) for i in range(len(rows))] == lineno
            _int_rows_file(wide, names + ["x"] * extra, [row + [7] * extra for row in rows])
            assert read_values_csv(wide).tolist() == read_values_csv(plain).tolist() == [float(r[0]) for r in rows]

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        rows=INT_ROWS.filter(bool),
        blank_after=st.lists(st.integers(0, 12), max_size=3),
        eol=st.sampled_from(["\n", "\r\n"]),
        final_eol=st.booleans(),
        bad=st.integers(0, 11),
        longer=st.booleans(),
    )
    @example(rows=[[1, 2], [3, 4]], blank_after=[], eol="\n", final_eol=True, bad=1, longer=False)
    def test_a_short_or_long_row_is_named(self, rows, blank_after, eol, final_eol, bad, longer):
        k = len(rows[0])
        if k == 1 and not longer:  # a one-field row without its field is a blank line
            longer = True
        bad %= len(rows)
        rows = [*rows[:bad], rows[bad] + [9] if longer else rows[bad][:-1], *rows[bad + 1 :]]
        names = ["balance", *(f"c{j}" for j in range(1, k))]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            lineno = _int_rows_file(path, names, rows, blank_after, eol, final_eol)
            message = f"^{re.escape(str(path))}:{lineno[bad]}: expected {k} fields, got {k + (1 if longer else -1)}$"
            with pytest.raises(MalformedInputError, match=message):
                _read_csv(path, [(name, "int") for name in names])

    def test_a_short_row_and_a_long_row_keep_the_separator_count(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1\n2,3,4\n", encoding="utf-8")
        with pytest.raises(MalformedInputError, match=f"^{re.escape(str(path))}:2: expected 2 fields, got 1$"):
            _read_csv(path, [("a", "int"), ("b", "int")])

    def test_a_pipe_is_read_whole(self, tmp_path):
        """A file whose size is not known before it is read, such as a named pipe, is read to its end."""
        fifo = tmp_path / "snap_2016-01-23.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=_snapshot_file, args=(fifo, [(f"u{i}", i) for i in range(5000)]))
        writer.start()
        snap = read_snapshot_csv(fifo)
        writer.join(5)
        assert not writer.is_alive()
        assert snap.n_users == 5000 and sorted(snap.balances.tolist()) == list(range(5000))

    def test_a_wide_last_cell_is_read_whole(self, tmp_path):
        """A cell wider than the last line and the zero bytes after the file is gathered from a copy with room."""
        ids = ["b" * (2 * bg_io._TAIL), "é" * 300, "a"]
        path = _snapshot_file(tmp_path / "s.csv", [(u, k) for k, u in enumerate(ids)])
        assert read_snapshot_csv(path, D0).user_ids.tolist() == sorted(u.encode() for u in ids)
        path.write_bytes(path.read_bytes()[:-1])  # no last LF
        assert read_snapshot_csv(path, D0).user_ids.tolist() == sorted(u.encode() for u in ids)


class TestIdSort:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(ids=st.lists(ID_TEXT, unique=True, max_size=12), seed=st.integers(0, 2**32 - 1))
    @example(ids=["zoë", "zo", "\U0001f600", "\x7f", "\x80", "a" * 9, "a" * 8, "aaaaaaaab"], seed=3)
    def test_read_ids_sort_as_unicode(self, ids, seed):
        rng = np.random.default_rng(seed)
        balances = rng.integers(0, 10**12, size=len(ids))
        with tempfile.TemporaryDirectory() as tmp:
            path = _snapshot_file(Path(tmp) / "s.csv", zip(ids, balances.tolist()))
            snap = read_snapshot_csv(path, D0)
        want = np.sort(np.array(ids, dtype=str))
        assert snap.user_ids.dtype.kind == "S" and snap.user_ids.tolist() == [u.encode() for u in want.tolist()]
        by_id = dict(zip(ids, balances.tolist()))
        assert snap.balances.tolist() == [by_id[u] for u in want.tolist()]

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(ids=st.lists(st.text(alphabet="abé\U0001f600", max_size=11), max_size=20))
    @example(ids=["aaaaaaaab", "aaaaaaaa", "aaaaaaaab", "b", "aaaaaaaaa"])
    def test_order_is_the_stable_argsort(self, ids):
        utf8 = np.array([u.encode("utf-8") for u in ids], dtype=bytes) if ids else np.array([], dtype="S1")
        assert _id_order(utf8).tolist() == np.argsort(utf8, kind="stable").tolist()
        assert np.array_equal(np.argsort(utf8, kind="stable"), np.argsort(np.array(ids, dtype=str), kind="stable"))


    @staticmethod
    def _word_tied_ids(rng, n):
        """n ids alike in their first six bytes: bytes 7 and 8, which hold the low bits of the first word
        that the row index displaces in the sort key, vary over four values; the bytes after them over n."""
        heads = ["1AAAAA" + a + b for a in "ABab" for b in "xyzé"]
        return [heads[h] + str(t) for h, t in zip(rng.integers(0, len(heads), n), rng.integers(0, n, n))]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ids_tied_on_their_first_word_sort_whole(self, seed):
        ids = self._word_tied_ids(np.random.default_rng(seed), 3000)  # repeats included
        utf8 = np.array([u.encode("utf-8") for u in ids], dtype=bytes)
        assert _id_order(utf8).tolist() == np.argsort(utf8, kind="stable").tolist()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_repeat_among_word_tied_ids_named_at_its_row(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        ids = list(dict.fromkeys(self._word_tied_ids(rng, 3000)))  # distinct, in random order
        for later, earlier in zip(rng.integers(len(ids) // 2, len(ids), 3), rng.integers(0, len(ids) // 2, 3)):
            ids[later] = ids[earlier]  # three repeats; the first of them in row order is named
        path = _snapshot_file(tmp_path / "s.csv", [(u, 1) for u in ids])
        i, message = _first_bad_row(ids, [1] * len(ids))
        with pytest.raises(MalformedInputError, match=f"^{re.escape(str(path))}:{i + 2}: {re.escape(message)}$"):
            read_snapshot_csv(path, D0)
        with pytest.raises(MalformedInputError, match=f"^{re.escape(message)}$") as refused:
            BalanceSnapshot(D0, ids, np.ones(len(ids), dtype=np.int64))
        assert refused.value.row == i

    def test_byte_ids_are_utf8_text(self):
        snap = BalanceSnapshot(D0, np.array(["zoë".encode(), b"a", "\U0001f600".encode()]), [1, 2, 3])
        assert snap.user_ids.dtype.kind == "S"
        assert snap.user_ids.tolist() == [b"a", "zoë".encode(), "\U0001f600".encode()]
        assert snap.balances.tolist() == [2, 1, 3]
        with pytest.raises(MalformedInputError, match="duplicate user_id 'ë'$"):
            BalanceSnapshot(D0, np.array(["ë".encode(), b"b", "ë".encode()]), [1, 2, 3])
        with pytest.raises(MalformedInputError, match="user ids are not UTF-8 text"):
            BalanceSnapshot(D0, np.array([b"\xff", b"a"]), [1, 2])


class TestByteIdRoundTrip:
    """Ids stay UTF-8 bytes from a read to the next write, so every file reads back and writes again byte for byte."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(ids=st.lists(ID_TEXT, unique=True, max_size=12), seed=st.integers(0, 2**32 - 1))
    @example(ids=["zoë", "zo", "\U0001f600", "aaaaaaaab", "aaaaaaaac", "ééééb", "ééééa", "éééé"], seed=5)
    def test_snapshot_and_panel_files(self, ids, seed):
        rng = np.random.default_rng(seed)
        s0 = rng.integers(0, 10**12, size=len(ids))
        s1 = np.where(rng.random(len(ids)) < 0.3, s0, rng.integers(0, 10**12, size=len(ids)))
        order = rng.permutation(len(ids))
        held = rng.random(len(ids)) < 0.8  # the other users sold out or left by D28
        snap0 = BalanceSnapshot(D0, [ids[i] for i in order], s0[order])
        snap1 = BalanceSnapshot(D28, [u for u, k in zip(ids, held) if k], s1[held])
        want = [u.encode("utf-8") for u in sorted(ids)]
        with tempfile.TemporaryDirectory() as tmp:
            files = {name: [Path(tmp) / f"{name}{k}.csv" for k in (1, 2)] for name in ("snap", "panel")}
            write_snapshot_csv(files["snap"][0], snap0)
            back = read_snapshot_csv(files["snap"][0], D0)
            write_snapshot_csv(files["snap"][1], back)
            write_panel_csv(files["panel"][0], build_panel(snap0, snap1))
            joined = read_panel_csv(files["panel"][0])
            write_panel_csv(files["panel"][1], joined)
            for first, second in files.values():
                assert first.read_bytes() == second.read_bytes()
        assert back.user_ids.tolist() == want and joined.user_ids.tolist() == want


def _first_bad_row(ids, *balances):
    """The first row a snapshot or panel refuses, and its message: a NaN, infinite or negative row, else a repeated id."""
    for i, row in enumerate(zip(*balances)):
        odd = [v for v in row if not math.isfinite(v)]
        if odd:
            return i, f"balance {odd[0]} is not finite"
        if min(row) < 0:
            return i, f"negative balance {min(row)}"
    seen = set()
    for i, user_id in enumerate(ids):
        if user_id in seen:
            return i, f"duplicate user_id {user_id!r}"
        seen.add(user_id)
    return None


def _file_with_blanks(path, header, rows, blanks):
    """Write `header` and `rows` with `blanks[k]` blank lines before row k; returns each row's line."""
    lines, line_of = [header], []
    for text, blank in zip(rows, blanks):
        lines += [""] * blank + [text]
        line_of.append(len(lines))
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    return line_of


BALANCE = st.one_of(st.integers(-3, 40), st.integers(0, 2**63 - 1))


class TestTypesOwnTheRowChecks:
    """A snapshot or panel refuses its first negative row, then its first repeated id, in input order;
    a file read names that row's line, and whatever a constructor accepts reads back equal."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        rows=st.lists(st.tuples(ID_TEXT, BALANCE), max_size=10),
        blanks=st.lists(st.integers(0, 2), min_size=10, max_size=10),
    )
    @example(rows=[("b", 5), ("a", 7), ("b", 2)], blanks=[1, 0, 2] + [0] * 7)
    @example(rows=[("b", 5), ("b", 7), ("a", -1)], blanks=[0, 2, 1] + [0] * 7)  # the negative row is named first
    def test_snapshot(self, rows, blanks):
        ids = [u for u, _ in rows]
        balances = [b for _, b in rows]
        with tempfile.TemporaryDirectory() as tmp:
            path, again = Path(tmp) / "s.csv", Path(tmp) / "again.csv"
            line_of = _file_with_blanks(path, "user_id,balance", [f"{u},{b}" for u, b in rows], blanks)
            bad = _first_bad_row(ids, balances)
            if bad is None:
                snap = BalanceSnapshot(D0, ids, np.array(balances, dtype=np.int64))
                write_snapshot_csv(again, snap)
                for read in (read_snapshot_csv(path, D0), read_snapshot_csv(again, D0)):
                    assert read.user_ids.tolist() == snap.user_ids.tolist()
                    assert read.balances.tolist() == snap.balances.tolist()
                return
            i, message = bad
            with pytest.raises(MalformedInputError, match=f"^{re.escape(message)}$") as refused:
                BalanceSnapshot(D0, ids, np.array(balances, dtype=np.int64))
            assert refused.value.row == i
            with pytest.raises(MalformedInputError, match=f"^{re.escape(str(path))}:{line_of[i]}: {re.escape(message)}$"):
                read_snapshot_csv(path, D0)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        rows=st.lists(st.tuples(ID_TEXT, BALANCE, BALANCE), max_size=10),
        blanks=st.lists(st.integers(0, 2), min_size=10, max_size=10),
    )
    @example(rows=[("b", 5, 7), ("a", 3, 3), ("b", 0, 2)], blanks=[0, 1, 0] + [0] * 7)
    @example(rows=[("b", 5, 7), ("b", 3, 3), ("a", 4, -3)], blanks=[2, 0, 1] + [0] * 7)
    @example(rows=[("b", 5, 7), ("c", 3, math.inf), ("a", math.nan, 2)], blanks=[0, 1, 0] + [0] * 7)
    @example(rows=[("b", 5, 7), ("c", math.nan, 3), ("a", 4, -3)], blanks=[1, 0, 2] + [0] * 7)
    def test_panel(self, rows, blanks):
        ids = [u for u, _, _ in rows]
        s0 = [a for _, a, _ in rows]
        s1 = [b for _, _, b in rows]
        cells = [
            f"{u},{a},{b},{b - a},{('A' if b != a else 'B') if a > 0 else ''}" for u, a, b in rows
        ]

        def build():
            # a float balance, such as a planted NaN or inf, makes both columns float
            dtype = np.float64 if any(isinstance(v, float) for v in s0 + s1) else np.int64
            return TransitionPanel(None, None, ids, np.array(s0, dtype=dtype), np.array(s1, dtype=dtype))

        with tempfile.TemporaryDirectory() as tmp:
            path, again = Path(tmp) / "p.csv", Path(tmp) / "again.csv"
            line_of = _file_with_blanks(path, "user_id,s0,s1,ds,group", cells, blanks)
            bad = _first_bad_row(ids, s0, s1)
            if bad is None:
                panel = build()
                write_panel_csv(again, panel)
                for read in (read_panel_csv(path), read_panel_csv(again)):
                    assert read.user_ids.tolist() == [u.encode("utf-8") for u in ids]
                    assert read.s0.tolist() == s0 and read.s1.tolist() == s1
                return
            i, message = bad
            with pytest.raises(MalformedInputError, match=f"^{re.escape(message)}$") as refused:
                build()
            assert refused.value.row == i
            with pytest.raises(MalformedInputError, match=f"^{re.escape(str(path))}:{line_of[i]}: {re.escape(message)}$"):
                read_panel_csv(path)


def _affinities():
    """The worker counts to compare: one CPU, four CPUs, and no affinity call at all."""
    return [{0}, {0, 1, 2, 3}, None]


def _set_affinity(monkeypatch, cpus):
    if cpus is None:  # no affinity call: fall back to the CPU count
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)


class TestReadsOnEveryCpu:
    DAYS = (0, 28, 56, 84)

    def _snapshots(self, snapdir, rng):
        snapdir.mkdir()
        ids = np.array([f"{k:x}ü{i}" for i, k in enumerate(rng.integers(0, 2**40, size=3000))])
        s = rng.lognormal(14.0, 1.5, size=ids.size)
        paths = []
        for day in self.DAYS:
            order = rng.permutation(ids.size)
            date = D0 + dt.timedelta(days=day)
            rows = zip(ids[order], s[order].astype(np.int64))
            paths.append(_snapshot_file(snapdir / f"snap_{date.isoformat()}.csv", rows))
            s = s * rng.lognormal(0.0, 0.05, size=s.size)
        return paths

    @staticmethod
    def _outputs(out: Path) -> dict:
        return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if not p.name.endswith("manifest.json")}

    def test_worker_count_changes_no_byte(self, tmp_path, monkeypatch, rng):
        paths = self._snapshots(tmp_path / "snaps", rng)
        results = []
        for k, cpus in enumerate(_affinities()):
            _set_affinity(monkeypatch, cpus)
            snaps = map_on_cpus(read_snapshot_csv, paths)
            out = tmp_path / f"out{k}"
            assert main(["panel", str(paths[0]), str(paths[1]), "p.csv", "--out", str(out), "--quiet"]) == 0
            assert main(["sweep", str(tmp_path / "snaps"), "--t0", D0.isoformat(), "--dts", "28,56,84",
                         "--bins", "20", "--min-count", "20", "--out", str(out), "--quiet"]) == 0
            results.append(([(s.user_ids, s.balances) for s in snaps], self._outputs(out)))
        (snaps, outputs), *others = results
        for other_snaps, other_outputs in others:
            assert other_outputs == outputs
            assert all(np.array_equal(a, b) for pair, other in zip(snaps, other_snaps) for a, b in zip(pair, other))

    def test_first_bad_file_in_date_order_reported(self, tmp_path, monkeypatch, capsys, rng):
        paths = self._snapshots(tmp_path / "snaps", rng)
        paths[1].write_text(paths[1].read_text() + "late,x\n", encoding="utf-8")  # fails on its last line
        paths[2].write_text("user_id,balance\nearly,-\n", encoding="utf-8")  # fails at once
        errors = []
        for k, cpus in enumerate(_affinities()):
            _set_affinity(monkeypatch, cpus)
            out = str(tmp_path / f"out{k}")
            sweep = ["sweep", str(tmp_path / "snaps"), "--t0", D0.isoformat(), "--dts", "28,56"]
            assert main([*sweep, "--out", out, "--quiet"]) == 2
            assert main(["panel", str(paths[2]), str(paths[1]), "p.csv", "--out", out, "--quiet"]) == 2
            assert main(["panel", str(paths[1]), str(paths[2]), "p.csv", "--out", out, "--quiet"]) == 2
            errors.append(capsys.readouterr().err.splitlines())
            assert not (tmp_path / f"out{k}").exists()
        sweep, first, second = errors[0]
        assert f"{paths[1]}:3002: " in sweep and f"{paths[2]}:2: " in first and f"{paths[1]}:3002: " in second
        assert errors[1] == errors[2] == errors[0]


class TestMapOnCpus:
    def test_results_in_order_and_first_failure_raised(self, monkeypatch):
        _set_affinity(monkeypatch, {0, 1, 2, 3})
        assert map_on_cpus(lambda a, b: a * b, range(6), range(6, 12)) == [a * (a + 6) for a in range(6)]
        second_failed = threading.Event()

        def fail(i):
            if i == 0:  # fails only after the later call has failed
                second_failed.wait(5)
                raise ValueError("first")
            second_failed.set()
            raise KeyError("second")

        with pytest.raises(ValueError, match="first"):
            map_on_cpus(fail, [0, 1])

    def test_more_workers_than_cores_read_what_one_does(self, monkeypatch, tmp_path, rng):
        ids = [f"ü{i}" for i in range(300)]
        paths = [
            _snapshot_file(tmp_path / f"s{k}.csv", zip(rng.permutation(ids), rng.integers(0, 10**9, len(ids))))
            for k in range(16)
        ]
        _set_affinity(monkeypatch, set(range(8)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            snaps = map_on_cpus(lambda path: read_snapshot_csv(path, D0), paths)
        finally:
            sys.setswitchinterval(interval)
        for path, snap in zip(paths, snaps):
            alone = read_snapshot_csv(path, D0)
            assert np.array_equal(snap.user_ids, alone.user_ids) and np.array_equal(snap.balances, alone.balances)

    def test_calling_thread_takes_a_share(self, monkeypatch):
        """With n usable CPUs, n - 1 threads start beside the calling thread."""
        _set_affinity(monkeypatch, {0, 1, 2, 3})
        before = threading.active_count()
        counts = map_on_cpus(lambda i: (time.sleep(0.01), threading.active_count())[1], range(12))
        assert max(counts) <= before + 3 and threading.active_count() == before

    def test_calls_after_a_failure_are_not_started(self, monkeypatch):
        _set_affinity(monkeypatch, {0, 1})
        started = []

        def call(i):
            started.append(i)
            if i == 1:
                raise ValueError(i)
            time.sleep(0.05)

        with pytest.raises(ValueError, match="1"):
            map_on_cpus(call, range(50))
        assert 1 in started and len(started) <= 4

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        _set_affinity(monkeypatch, {0})
        assert map_on_cpus(lambda i: threading.current_thread(), range(3)) == [threading.main_thread()] * 3
