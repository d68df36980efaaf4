import csv
import datetime as dt
import io as stdio
import json
import logging
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balancegrowth import BalanceSnapshot, ConfigError, MalformedInputError, TransitionPanel, TrendResult
from balancegrowth import io as bg_io
from balancegrowth.cli import build_parser, main
from balancegrowth.growth import SWEEP_PARAMS
from balancegrowth.io import (
    _format_cells,
    _read_csv,
    file_sha256,
    json_text,
    parse_sim_config,
    read_panel_csv,
    read_snapshot_csv,
    read_values_csv,
    write_csv,
    write_panel_csv,
    write_snapshot_csv,
)
from balancegrowth.sim import SCHEME_EXACT, Schedule

from conftest import D0, panel_from_rows, snapshot
from test_golden import CONFIGS, _run_pipeline


def write(path, text):
    Path(path).write_text(text, encoding="utf-8")


class TestSnapshotCsv:
    def test_round_trip(self, tmp_path):
        snap = snapshot(D0, [("alice", 5), ("bob", 0), ("carol", 10**15)])
        path = tmp_path / "snap_2016-01-23.csv"
        write_snapshot_csv(path, snap)
        loaded = read_snapshot_csv(path)
        assert loaded.date == D0
        assert np.array_equal(loaded.user_ids, snap.user_ids)
        assert np.array_equal(loaded.balances, snap.balances)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        write(path, "user_id,balance\na,5\nb,not-a-number\n")
        with pytest.raises(MalformedInputError, match=":3"):
            read_snapshot_csv(path, D0)

    def test_duplicate_user_names_line(self, tmp_path):
        path = tmp_path / "dup.csv"
        write(path, "user_id,balance\na,5\nb,7\na,6\n")
        with pytest.raises(MalformedInputError, match=":4: duplicate"):
            read_snapshot_csv(path, D0)

    def test_blank_lines_keep_line_numbers(self, tmp_path):
        path = tmp_path / "blank.csv"
        write(path, "user_id,balance\na,5\n\nb,x\n")
        with pytest.raises(MalformedInputError, match=":4:"):
            read_snapshot_csv(path, D0)

    def test_negative_balance_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        write(path, "user_id,balance\na,-5\n")
        with pytest.raises(MalformedInputError, match="negative"):
            read_snapshot_csv(path, D0)

    def test_header_required(self, tmp_path):
        path = tmp_path / "nohdr.csv"
        write(path, "a,5\nb,6\n")
        with pytest.raises(MalformedInputError, match="header"):
            read_snapshot_csv(path, D0)

    def test_date_from_filename(self, tmp_path):
        path = tmp_path / "balances_2019-01-19.csv"
        write(path, "user_id,balance\na,5\n")
        assert read_snapshot_csv(path).date == dt.date(2019, 1, 19)

    def test_file_name_date_that_names_no_day_refused(self, tmp_path):
        path = tmp_path / "backup_2016-13-45.csv"
        write(path, "user_id,balance\na,5\n")
        with pytest.raises(MalformedInputError, match=r"backup_2016-13-45\.csv: file name holds '2016-13-45', which is not a date$"):
            read_snapshot_csv(path)
        assert read_snapshot_csv(path, D0).date == D0

    @pytest.mark.parametrize(
        "bad_id, kind",
        [
            pytest.param(bad_id, kind, id=bad_id if kind == "S" else f"{bad_id}-U")
            for kind in ("S", "U")
            for bad_id in ["a,b", 'q"x', "l\nm", "c\rr", "zoë\n"]
        ],
    )
    def test_unreadable_id_refused(self, tmp_path, bad_id, kind):
        path = tmp_path / "s_2016-01-23.csv"
        write(path, "user_id,balance\nold,1\n")
        ids = np.array(["ok", bad_id]) if kind == "U" else np.array([b"ok", bad_id.encode()])
        with pytest.raises(MalformedInputError, match=f"column user_id holds {re.escape(repr(bad_id))}"):
            if kind == "S":
                write_snapshot_csv(path, BalanceSnapshot(D0, ids, [1, 5]))
            else:
                write_csv(path, {"user_id": ids, "balance": [1, 5]})
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert path.read_text() == "user_id,balance\nold,1\n"

    def test_nul_inside_byte_cell_refused(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(MalformedInputError, match=r"column id holds 'n\\x00ul'"):
            write_csv(path, {"id": np.array([b"ok", b"n\0ul"])})
        assert list(tmp_path.iterdir()) == []

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "s_2016-01-23.csv"
        write_snapshot_csv(path, snapshot(D0, [("a", 1)]))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestPanelCsv:
    def test_integer_round_trip(self, tmp_path):
        panel = panel_from_rows([("a", 10, 0), ("b", 5, 5), ("c", 0, 9)])
        path = tmp_path / "panel.csv"
        write_panel_csv(path, panel)
        loaded = read_panel_csv(path)
        assert np.array_equal(loaded.s0, panel.s0)
        assert np.array_equal(loaded.ds, panel.ds)
        assert np.array_equal(loaded.group, panel.group)

    def test_float_round_trip(self, tmp_path):
        panel = panel_from_rows([("a", 10.25, 11.5), ("b", 3.125, 0.0)])
        path = tmp_path / "panel.csv"
        write_panel_csv(path, panel)
        loaded = read_panel_csv(path)
        assert np.array_equal(loaded.s0, panel.s0)
        assert np.array_equal(loaded.s1, panel.s1)

    def test_ds_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        write(path, "user_id,s0,s1,ds,group\na,5,7,1,A\n")
        with pytest.raises(MalformedInputError, match="ds"):
            read_panel_csv(path)

    def test_group_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        write(path, "user_id,s0,s1,ds,group\na,5,7,2,B\n")
        with pytest.raises(MalformedInputError, match="group"):
            read_panel_csv(path)
        # a wrong label where each of the three labels is due, and a label that is no label
        for row, label in [("b,5,5,0,A", "A"), ("b,0,3,3,B", "B"), ("b,5,7,2,", ""), ("b,5,7,2,é", "é")]:
            write(path, f"user_id,s0,s1,ds,group\na,5,7,2,A\n{row}\n")
            with pytest.raises(MalformedInputError, match=f":3: group label '{label}' inconsistent with s0/ds$"):
                read_panel_csv(path)

    @pytest.mark.parametrize("cell, dtype", [("4611686018427387904.0", np.int64), ("9223372036854775808", np.float64)])
    def test_integral_float_balances_below_2_63_read_as_int64(self, tmp_path, cell, dtype):
        path = tmp_path / "p.csv"
        write(path, f"user_id,s0,s1,ds,group\na,{cell},0,-{cell},A\n")
        loaded = read_panel_csv(path)
        assert loaded.s0.dtype == loaded.s1.dtype == dtype
        assert loaded.s0.tolist() == [dtype(float(cell))] and loaded.group.tolist() == [b"A"]

    def test_integer_balances_stay_exact_beside_a_float_ds(self, tmp_path):
        path = tmp_path / "p.csv"
        write(path, "user_id,s0,s1,ds,group\na,9007199254740993,0,-9007199254740993.0,A\n")
        loaded = read_panel_csv(path)
        assert loaded.s0.dtype == np.int64 and loaded.s0.tolist() == [9007199254740993]

    @pytest.mark.parametrize("row", ["b,-3,4,7,", "b,4,-3,-7,A", "b,-3.5,4,7.5,"])
    def test_negative_balance_names_line(self, tmp_path, row):
        path = tmp_path / "p.csv"
        write(path, f"user_id,s0,s1,ds,group\na,5,7,2,A\n{row}\n")
        with pytest.raises(MalformedInputError, match=r"p\.csv:3: negative balance -3"):
            read_panel_csv(path)

    def test_duplicate_user_names_line(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        write(path, "user_id,s0,s1,ds,group\na,5,7,2,A\nb,3,3,0,B\na,6,6,0,B\nb,1,2,1,A\n")
        with pytest.raises(MalformedInputError, match=r"p\.csv:4: duplicate user_id 'a'$"):
            read_panel_csv(path)
        assert main(["estimate", str(path), "est", "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert "p.csv:4: duplicate user_id 'a'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_estimate_names_line_of_negative_balance(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        write(path, "user_id,s0,s1,ds,group\na,5,7,2,A\nb,-3,4,7,\n")
        assert main(["estimate", str(path), "est", "--out", str(tmp_path), "--quiet"]) == 2
        assert "p.csv:3: negative balance -3" in capsys.readouterr().err


class TestReaderContract:
    """What every CSV read accepts and how it names a bad line."""

    def test_crlf_endings(self, tmp_path):
        path = tmp_path / "crlf.csv"
        write(path, "user_id,balance\r\na,5\r\nb,7\r\n")
        snap = read_snapshot_csv(path, D0)
        assert snap.user_ids.tolist() == [b"a", b"b"] and snap.balances.tolist() == [5, 7]

    def test_crlf_error_names_line_and_bare_cell(self, tmp_path):
        path = tmp_path / "crlf.csv"
        write(path, "user_id,balance\r\na,5\r\nb,x\r\n")
        with pytest.raises(MalformedInputError, match=r":3: balance must be .*, got 'x'$"):
            read_snapshot_csv(path, D0)

    def test_no_final_newline(self, tmp_path):
        path = tmp_path / "open.csv"
        write(path, "user_id,balance\na,5\nb,7")
        assert read_snapshot_csv(path, D0).balances.tolist() == [5, 7]

    @pytest.mark.parametrize(
        "body, line",
        [
            ("\n\na,5\nb,x\n", 5),  # leading blanks
            ("a,5\n\n\nb,x\n", 5),  # middle blanks
            ("a,5\nb,x\n\n\n", 3),  # trailing blanks
            ("\na,5\n\nb,7\n\nc,-1\n\n", 7),  # negative balance
            ("a,5\n\nb,7\n\na,6\n", 6),  # duplicate user id
        ],
    )
    def test_blank_lines_skipped_with_line_numbers(self, tmp_path, body, line):
        path = tmp_path / "blank.csv"
        write(path, "user_id,balance\n" + body)
        with pytest.raises(MalformedInputError, match=f"^{re.escape(str(path))}:{line}: "):
            read_snapshot_csv(path, D0)

    def test_trailing_blanks_read(self, tmp_path):
        path = tmp_path / "blank.csv"
        write(path, "user_id,balance\n\na,5\n\nb,7\n\n\n")
        assert read_snapshot_csv(path, D0).balances.tolist() == [5, 7]

    @pytest.mark.parametrize("row, got", [("b", 1), ("b,7,9", 3)])
    def test_short_and_long_rows(self, tmp_path, row, got):
        path = tmp_path / "ragged.csv"
        write(path, f"user_id,balance\na,5\n{row}\nc,2\n")
        with pytest.raises(MalformedInputError, match=f"^{re.escape(str(path))}:3: expected 2 fields, got {got}$"):
            read_snapshot_csv(path, D0)

    def test_panel_short_row(self, tmp_path):
        path = tmp_path / "p.csv"
        write(path, "user_id,s0,s1,ds,group\na,5,7,2,A\n\nb,5,7,2\n")
        with pytest.raises(MalformedInputError, match=r":4: expected 5 fields, got 4$"):
            read_panel_csv(path)

    def test_header_only_snapshot(self, tmp_path):
        path = tmp_path / "empty_2016-01-23.csv"
        write(path, "user_id,balance\n")
        snap = read_snapshot_csv(path)
        assert snap.n_users == 0 and snap.balances.dtype == np.int64

    def test_header_only_panel(self, tmp_path):
        path = tmp_path / "p.csv"
        write(path, "user_id,s0,s1,ds,group\n")
        panel = read_panel_csv(path)
        assert panel.n_rows == 0 and panel.s0.dtype == np.int64

    @pytest.mark.parametrize("text", ["", "\n", "user_id,bal\na,5\n", "balance,user_id\n5,a\n"])
    def test_snapshot_header_checked(self, tmp_path, text):
        path = tmp_path / "h.csv"
        write(path, text)
        with pytest.raises(MalformedInputError, match=":1: expected header 'user_id,balance'"):
            read_snapshot_csv(path, D0)

    def test_header_cells_stripped(self, tmp_path):
        path = tmp_path / "h.csv"
        write(path, " user_id , balance \na,5\n")
        assert read_snapshot_csv(path, D0).balances.tolist() == [5]

    def test_ids_keep_unicode_and_spaces(self, tmp_path):
        path = tmp_path / "u.csv"
        write(path, "user_id,balance\nzoë,5\n a ,7\n")
        assert read_snapshot_csv(path, D0).user_ids.tolist() == [b" a ", "zoë".encode()]

    def test_quoted_field_rejected(self, tmp_path):
        path = tmp_path / "q.csv"
        write(path, 'user_id,balance\na,4\n\n"a,x",5\n')
        with pytest.raises(MalformedInputError, match=":4: quoted cells are not supported$"):
            read_snapshot_csv(path, D0)

    @pytest.mark.parametrize(
        "raw, line",
        [(b"user_id,balance\na,4\rb,5\n", 2), (b"user_id,balance\na,\xff\n", 2), (b"user_id,balance\n\na\0,5\n", 3)],
    )
    def test_stray_cr_nul_and_bad_utf8_named(self, tmp_path, raw, line):
        path = tmp_path / "b.csv"
        path.write_bytes(raw)
        with pytest.raises(MalformedInputError, match=f":{line}: "):
            read_snapshot_csv(path, D0)


# a cell of any text a writer may emit: no comma, quote, CR or LF
CELL = st.text(alphabet="ab é0 _", max_size=4)


class TestReaderMatchesCsvModule:
    """The whole-text reader against `csv.reader` as the reference, on quote-free text."""

    @staticmethod
    def _reference(text):
        rows = csv.reader(stdio.StringIO(text, newline=""))
        return [(lineno, row) for lineno, row in enumerate(rows, start=1) if row][1:]

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        rows=st.lists(st.one_of(st.just([]), st.lists(CELL, min_size=1, max_size=4)), max_size=12),
        eol=st.sampled_from(["\n", "\r\n"]),
        final_eol=st.booleans(),
    )
    @example(rows=[["a", "b"], [], ["é", "0", "x"], []], eol="\r\n", final_eol=False)
    @example(rows=[["a", "b"], ["c"], [" ", "é"]], eol="\n", final_eol=True)
    def test_cells_and_lines(self, tmp_path_factory, rows, eol, final_eol):
        text = eol.join(["x,y", *(",".join(row) for row in rows)]) + (eol if final_eol else "")
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        reference = self._reference(text)
        short = [lineno for lineno, row in reference if len(row) < 2]
        if short:
            with pytest.raises(MalformedInputError, match=f":{short[0]}: expected 2 fields, got 1$"):
                _read_csv(path, [("x", "utf8"), ("y", "utf8")], locate=lambda names: [0, 1])
            return
        (x, y), line = _read_csv(path, [("x", "utf8"), ("y", "utf8")], locate=lambda names: [0, 1])
        assert x.tolist() == [row[0].encode() for _, row in reference]
        assert y.tolist() == [row[1].encode() for _, row in reference]
        assert [line(i) for i in range(len(reference))] == [lineno for lineno, _ in reference]


# any text a cell may hold: no comma, quote, CR, LF, NUL, or lone surrogate
SAFE_TEXT = st.text(st.characters(blacklist_characters=',"\r\n\0', blacklist_categories=("Cs",)), max_size=5)
INT64 = st.integers(-(2**63), 2**63 - 1)
FLOAT = st.one_of(
    st.floats(), st.integers(-(2**64), 2**64).map(float), st.sampled_from([-0.0, 2.0**63, -(2.0**63), 2.0**63 - 1024])
)


# the edges of the 10**8 digit groups the writer splits a magnitude into, and the int64 extremes
GROUP_EDGES = [10**8 - 1, 10**8, 10**16, 10**16 + 1, -(10**16), 10**18, 0, -(2**63), 2**63 - 1, -1, 9, 10]
UINT64_EDGES = [2**63, 2**64 - 1, 10**19, 10**19 - 1, 2**63 + 1, 0, 10**8, 1, 10**16, 99, 2**63 - 1, 10**18]


class TestWriterMatchesJoin:
    """The chunked byte-assembly writer against a per-cell `str` and `",".join` reference."""

    @staticmethod
    def _reference(columns):
        cells = [_format_cells(np.asarray(values)) for values in columns.values()]
        return ",".join(columns) + "\n" + "".join(line + "\n" for line in map(",".join, zip(*cells)))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(INT64, FLOAT, st.booleans(), SAFE_TEXT, st.one_of(INT64, FLOAT, SAFE_TEXT, st.none())),
            max_size=12,
        ),
        rows_per_chunk=st.integers(1, 5),
    )
    @example(
        rows=[(2**63 - 1, math.nan, True, "é", None), (-(2**63 - 1), -0.0, False, "漢字 ", 2.5)],
        rows_per_chunk=1,
    )
    @example(rows=[(0, math.inf, True, "", -math.inf), (7, 1e300, False, "x", "ü")], rows_per_chunk=5)
    def test_bytes(self, tmp_path_factory, rows, rows_per_chunk):
        ints, reals, flags, texts, objects = (list(col) for col in zip(*rows)) if rows else ([],) * 5
        columns = {
            "i": np.array(ints, dtype=np.int64),
            "f": np.array(reals, dtype=np.float64),
            "b": np.array(flags, dtype=bool),
            "t": np.array(texts, dtype=str),
            "o": np.array(objects, dtype=object),
        }
        path = tmp_path_factory.mktemp("csv") / "w.csv"
        with mock.patch.object(bg_io, "_ROWS_PER_CHUNK", rows_per_chunk):
            write_csv(path, columns)
        assert path.read_bytes() == self._reference(columns).encode("utf-8")

    @pytest.mark.parametrize("rows_per_chunk", [1, 5, 1 << 16])
    def test_integer_edges(self, tmp_path, rows_per_chunk):
        columns = {
            "i": np.array(GROUP_EDGES, dtype=np.int64),
            "u": np.array(UINT64_EDGES, dtype=np.uint64),
            "small": np.arange(-6, 6, dtype=np.int8),
        }
        path = tmp_path / "w.csv"
        with mock.patch.object(bg_io, "_ROWS_PER_CHUNK", rows_per_chunk):
            write_csv(path, columns)
        assert path.read_bytes() == self._reference(columns).encode("utf-8")
        (back,), _ = _read_csv(path, [("i", "int")], locate=lambda names: [0])
        assert back.tolist() == GROUP_EDGES

    @pytest.mark.parametrize("kind", ["S", "U"])
    def test_empty_and_non_ascii_text(self, tmp_path, kind):
        text = {
            "first": ["", "a", "", "漢字"],
            "middle": ["", "", "é", "😀"],
            "last": ["", "b", "", ""],
        }
        columns = {name: np.array(cells, dtype=str) for name, cells in text.items()}
        given = columns if kind == "U" else {k: np.array([c.encode() for c in v]) for k, v in text.items()}
        path = tmp_path / "w.csv"
        write_csv(path, {**given, "n": np.arange(4)})
        assert path.read_bytes() == self._reference({**columns, "n": np.arange(4)}).encode("utf-8")
        assert path.read_bytes().startswith(b"first,middle,last,n\n,,,0\na,,b,1\n")

    def test_zero_rows(self, tmp_path):
        columns = {
            "i": np.array([], dtype=np.int64),
            "u": np.array([], dtype=np.uint64),
            "s": np.array([], dtype="S3"),
            "t": np.array([], dtype=str),
            "f": np.array([], dtype=np.float64),
            "o": np.array([], dtype=object),
        }
        path = tmp_path / "w.csv"
        assert write_csv(path, columns) == file_sha256(path)
        assert path.read_bytes() == self._reference(columns).encode("utf-8") == b"i,u,s,t,f,o\n"

    def test_chunks_of_different_widths(self, tmp_path):
        # the only negative value is in the first chunk, the only 19-digit one in the second
        n = bg_io._ROWS_PER_CHUNK + 1
        values = np.arange(n, dtype=np.int64) % 1000
        values[7] = -5
        values[-1] = 10**18 + 3
        columns = {
            "id": np.array([f"u{i}".encode() for i in range(n)]),
            "n": values,
            "g": np.where(values % 2 == 0, "A", ""),
        }
        reference = dict(columns, id=np.array([f"u{i}" for i in range(n)]))
        path = tmp_path / "w.csv"
        assert write_csv(path, columns) == file_sha256(path)
        assert path.read_bytes() == self._reference(reference).encode("utf-8")

    @pytest.mark.parametrize("kind", ["S", "U", "O"])
    def test_refusal_in_second_chunk(self, tmp_path, kind):
        n = bg_io._ROWS_PER_CHUNK + 1
        text = [f"u{i}" for i in range(n - 1)] + ["a,b"]
        cells = {"S": np.array([t.encode() for t in text]), "U": np.array(text), "O": np.array(text, dtype=object)}
        path = tmp_path / "t.csv"
        path.write_bytes(b"kept\n")
        with pytest.raises(MalformedInputError) as refused:
            write_csv(path, {"n": np.arange(n), "id": cells[kind]})
        assert str(refused.value) == f"{path}: column id holds 'a,b'; a cell may not hold , \" CR LF or NUL"
        assert path.read_bytes() == b"kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_nan_real_cell_is_empty(self, tmp_path):
        path = tmp_path / "w.csv"
        write_csv(path, {"x": np.array([1.5, math.nan, 2.0]), "y": np.array([math.nan, -math.inf, 0.25])})
        assert path.read_text() == "x,y\n1.5,\n,-inf\n2,0.25\n"


class TestValuesCsvContract:
    def test_extra_columns(self, tmp_path):
        path = tmp_path / "v.csv"
        write(path, "user_id,note,balance,extra\na,x,5,1\nb,y,7.5,2\n")
        assert read_values_csv(path).tolist() == [5.0, 7.5]

    def test_rows_may_carry_extra_fields(self, tmp_path):
        path = tmp_path / "v.csv"
        write(path, "user_id,balance\na,5,extra\n\nb,7\nc,9,x,y\n")
        assert read_values_csv(path).tolist() == [5.0, 7.0, 9.0]

    def test_short_row_named(self, tmp_path):
        path = tmp_path / "v.csv"
        write(path, "user_id,note,balance\na,x,5\nb,7\n")
        with pytest.raises(MalformedInputError, match=r":3: expected 3 fields, got 2$"):
            read_values_csv(path)

    def test_bad_value_named(self, tmp_path):
        path = tmp_path / "v.csv"
        write(path, "value\n5\n\nabc\n")
        with pytest.raises(MalformedInputError, match=r":4: balance must be a number, got 'abc'$"):
            read_values_csv(path)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_value_named(self, tmp_path, cell):
        path = tmp_path / "v.csv"
        write(path, f"balance\n5\n{cell}\n7.5\n")
        with pytest.raises(MalformedInputError, match=rf":3: balance must be a finite number, got '{cell}'$"):
            read_values_csv(path)

    def test_named_single_column(self, tmp_path):
        path = tmp_path / "v.csv"
        write(path, "value\r\n5\r\n7.5")
        assert read_values_csv(path).tolist() == [5.0, 7.5]

    def test_headerless_single_column_rejected(self, tmp_path):
        path = tmp_path / "v.csv"
        write(path, "5\n7.5\n")
        with pytest.raises(MalformedInputError, match=":1: expected a header line"):
            read_values_csv(path)

    @pytest.mark.parametrize("text, message", [("", ": empty file"), ("\n", ":1: no `balance`"), ("a,b\n1,2\n", ":1: no `balance`")])
    def test_header_problems(self, tmp_path, text, message):
        path = tmp_path / "v.csv"
        write(path, text)
        with pytest.raises(MalformedInputError, match=message):
            read_values_csv(path)


ROUND_TRIP = settings(derandomize=True, max_examples=60, deadline=None)
SATOSHI = st.integers(0, 2**63 - 1)


def _ids(n):
    return np.array([f"u{i:03d}" for i in range(n)])


class TestIntegerRoundTrip:
    @ROUND_TRIP
    @given(balances=st.lists(SATOSHI, min_size=1, max_size=30))
    @example(balances=[2**62 - 1, 2**53 + 1, 0])
    @example(balances=[2**62, 2**63 - 1])
    def test_snapshot(self, balances):
        snap = BalanceSnapshot(D0, _ids(len(balances)), np.array(balances, dtype=np.int64))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "snap.csv"
            write_snapshot_csv(path, snap)
            loaded = read_snapshot_csv(path, D0)
        assert loaded.balances.tolist() == balances

    @ROUND_TRIP
    @given(pairs=st.lists(st.tuples(SATOSHI, SATOSHI), min_size=1, max_size=30))
    @example(pairs=[(2**60, 2**60 + 1)])
    @example(pairs=[(2**62, 2**62 - 1)])
    @example(pairs=[(2**63 - 1, 0), (0, 2**63 - 1), (2**63 - 1, 2**63 - 1)])
    def test_panel(self, pairs):
        s0 = np.array([a for a, _ in pairs], dtype=np.int64)
        s1 = np.array([b for _, b in pairs], dtype=np.int64)
        panel = TransitionPanel(None, None, _ids(len(pairs)), s0, s1)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "panel.csv"
            write_panel_csv(path, panel)
            loaded = read_panel_csv(path)
        assert loaded.s0.dtype == np.int64
        for name in ("s0", "s1", "ds", "group"):
            assert getattr(loaded, name).tolist() == getattr(panel, name).tolist()


class TestValuesCsv:
    def test_reads_balance_column(self, tmp_path):
        path = tmp_path / "v.csv"
        write(path, "user_id,balance\na,5\nb,7\n")
        assert read_values_csv(path).tolist() == [5.0, 7.0]

    def test_single_column(self, tmp_path):
        path = tmp_path / "v.csv"
        write(path, "balance\n5\n7.5\n")
        assert read_values_csv(path).tolist() == [5.0, 7.5]


class TestSimConfigFile:
    def test_parses_two_regime(self, tmp_path):
        path = tmp_path / "c.cfg"
        write(
            path,
            """
            model = two_regime
            n_users = 100
            horizon_days = 28
            s0_law = lognormal
            s0_m = 23.0
            s0_v = 2.0
            s_star = 1e10
            poor_mu = 0.003
            wealthy_mu = -0.002
            seed = 5
            """.replace("            ", ""),
        )
        config, emit_days = parse_sim_config(path)
        assert config.wealthy is not None and config.s_star == 1e10
        assert config.poor.mu == 0.003
        assert emit_days == [0, 28]

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "c.cfg"
        write(path, "model = gbm\nn_users = 10\nhorizon_days = 1\ns0_law = point\ns0_value = 1\nbogus_key = 3\n")
        with pytest.raises(ConfigError, match="bogus_key"):
            parse_sim_config(path)

    def test_negative_seed_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        write(path, "model = gbm\nn_users = 10\nhorizon_days = 1\ns0_law = point\ns0_value = 1\nseed = -1\n")
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            parse_sim_config(path)

    def test_missing_required_key_named(self, tmp_path):
        path = tmp_path / "c.cfg"
        write(path, "model = gbm\nhorizon_days = 1\ns0_law = point\ns0_value = 1\n")
        with pytest.raises(ConfigError, match="n_users"):
            parse_sim_config(path)

    def test_gbm_is_one_exact_step_by_default(self, tmp_path):
        path = tmp_path / "c.cfg"
        write(path, "model = gbm\nn_users = 10\nhorizon_days = 30\ns0_law = point\ns0_value = 1\nmu = 0.01\n")
        config, _ = parse_sim_config(path)
        assert config.scheme == SCHEME_EXACT and config.wealthy is None
        assert config.step_days == 30
        assert config.poor.mu == 0.01

    def test_byte_that_is_not_utf8_named_with_line(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_bytes(b"model = gbm\n# caf\xe9\nn_users = 10\nhorizon_days = 1\ns0_law = point\ns0_value = 1\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:2: not UTF-8 text$"):
            parse_sim_config(path)
        assert main(["simulate", str(path), "x", "--out", str(tmp_path / "out"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "c.cfg:2: not UTF-8 text" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_schedule_values(self, tmp_path):
        path = tmp_path / "c.cfg"
        write(
            path,
            "model = power\nn_users = 10\nhorizon_days = 10\ns0_law = point\ns0_value = 100\n"
            "sigma = 0:0.004,10:0.001\n",
        )
        config, _ = parse_sim_config(path)
        assert config.scheme != SCHEME_EXACT and config.wealthy is None
        assert isinstance(config.poor.sigma, Schedule)
        assert config.poor.sigma.at(5.0) == pytest.approx(0.0025)

    def test_readme_example_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (example,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        write(tmp_path / "readme.cfg", example)
        config, _ = parse_sim_config(tmp_path / "readme.cfg")
        assert (config.s_star, config.wealthy.alpha_drift) == (1e10, 1.05)
        # every key the parser takes is named in README, the regime keys without their prefix
        keys = bg_io._COMMON_KEYS.union(*bg_io._MODEL_KEYS.values())
        documented = set(re.findall(r"`(\w+)`", readme))
        assert {key.removeprefix("poor_").removeprefix("wealthy_") for key in keys} <= documented


def _cfg(base: dict, **edits) -> list:
    """The lines of `base` with `edits`: a value replaces a key's or adds the key at the end; None drops it."""
    return [f"{key} = {value}" for key, value in {**base, **edits}.items() if value is not None]


TWO = dict(
    model="two_regime", n_users="100", seed="1", horizon_days="2", step_days="1", s0_law="lognormal", s0_m="10",
    s0_v="1", s_star="1e5", regime_mode="current", poor_mu="0.01", wealthy_alpha_drift="1.05", wealthy_sigma="0.001",
)
GBM = dict(model="gbm", n_users="10", horizon_days="2", s0_law="point", s0_value="1", mu="0.01")


class TestSimConfigRefusals:
    """Every refusal a config file can reach: `simulate` exits 2, writes nothing, and names the file,
    the key with its regime prefix, and the key's line when the file holds the key."""

    CASES = {
        # read or checked in the parser
        "bad_number": (_cfg(TWO, s0_m="ten"), "s0_m", "expected a number, got 'ten'"),
        "bad_integer": (_cfg(TWO, n_users="1e3"), "n_users", "expected an integer, got '1e3'"),
        "bad_date": (_cfg(TWO, t0_date="2016-13-01"), "t0_date", "expected an ISO date, got '2016-13-01'"),
        "bad_emit_days": (
            _cfg(TWO, emit_days="0,two"), "emit_days", "expected a comma list of integer days, got '0,two'"
        ),
        "bad_schedule_entry": (
            _cfg(TWO, poor_mu="0:0.01,5"), "poor_mu", "expected a number or a day:value,... schedule, got '0:0.01,5'"
        ),
        "gbm_schedule": (_cfg(GBM, mu="0:0.01,2:0.02"), "mu", "expected a number, got '0:0.01,2:0.02'"),
        "lognormal_without_s0_v": (_cfg(TWO, s0_v=None), "s0_v", "required for s0_law = lognormal"),
        "pareto_without_s0_xmin": (_cfg(TWO, s0_law="pareto", s0_alpha="2"), "s0_xmin", "required for s0_law = pareto"),
        "point_without_s0_value": (_cfg(TWO, s0_law="point"), "s0_value", "required for s0_law = point"),
        "unknown_law": (_cfg(TWO, s0_law="cauchy"), "s0_law", "unknown law 'cauchy'"),
        "unknown_model": (_cfg(TWO, model="heston"), "model", "unknown model 'heston'"),
        "key_of_another_model": (_cfg(TWO, mu="0.01"), "mu", "unknown for model 'two_regime'"),
        "missing_n_users": (_cfg(TWO, n_users=None), "n_users", "required"),
        "no_equals_sign": ([*_cfg(TWO), "seed 2"], None, "expected key = value"),
        "duplicate_key": ([*_cfg(TWO), "seed = 2"], "seed", "given twice"),
        # checked by `SimConfig` and the records it holds
        "missing_s_star": (_cfg(TWO, s_star=None), "s_star", "s_star is required when both regimes are configured"),
        "s_star_nan": (_cfg(TWO, s_star="nan"), "s_star", "s_star must be positive and finite, got nan"),
        "s_star_zero": (_cfg(TWO, s_star="0"), "s_star", "s_star must be positive and finite, got 0.0"),
        "schedule_days_out_of_order": (
            _cfg(TWO, wealthy_sigma="5:0.001,1:0.002"), "wealthy_sigma", "schedule days must be strictly increasing"
        ),
        # a NaN day passed the order check, and the run wrote empty snapshots
        "schedule_day_nan": (
            _cfg(TWO, poor_sigma="0:0.01,nan:0.005"), "poor_sigma", "schedule days must be finite, got (0.0, nan)"
        ),
        "schedule_day_inf": (
            _cfg(TWO, poor_mu="0:0.01,inf:0.005"), "poor_mu", "schedule days must be finite, got (0.0, inf)"
        ),
        "non_finite_coefficient": (_cfg(TWO, poor_mu="nan"), "poor_mu", "mu must be finite"),
        "non_positive_exponent": (
            _cfg(TWO, wealthy_alpha_drift="-1"), "wealthy_alpha_drift", "alpha_drift must be positive"
        ),
        "negative_sigma": (_cfg(GBM, model="power", sigma="-0.1"), "sigma", "sigma must be non-negative"),
        "lognormal_s0_v": (_cfg(TWO, s0_v="0"), "s0_v", "s0_v must be positive"),
        "pareto_s0_alpha": (
            _cfg(TWO, s0_law="pareto", s0_alpha="1", s0_xmin="5"),
            "s0_alpha",
            "pareto law needs s0_alpha > 1 and s0_xmin > 0",
        ),
        "point_s0_value": (_cfg(GBM, s0_value="-1"), "s0_value", "s0_value must be non-negative"),
        # NaN slipped past the range checks: s0_value = nan wrote an empty panel
        "point_s0_value_nan": (_cfg(GBM, s0_value="nan"), "s0_value", "s0_value must be finite"),
        "lognormal_s0_v_inf": (_cfg(TWO, s0_v="inf"), "s0_v", "s0_v must be finite"),
        "lognormal_s0_m_nan": (_cfg(TWO, s0_m="nan"), "s0_m", "s0_m must be finite"),
        "pareto_s0_xmin_inf": (
            _cfg(TWO, s0_law="pareto", s0_alpha="2", s0_xmin="inf"), "s0_xmin", "s0_xmin must be finite"
        ),
        "no_users": (_cfg(TWO, n_users="0"), "n_users", "n_users must be at least 1"),
        "negative_seed": (_cfg(TWO, seed="-1"), "seed", "seed must be non-negative, got -1"),
        "zero_horizon": (_cfg(GBM, horizon_days="0"), "horizon_days", "horizon_days must be positive and finite"),
        "step_not_dividing_horizon": (_cfg(TWO, step_days="3"), "step_days", "step_days must divide horizon_days"),
        "unknown_regime_mode": (_cfg(TWO, regime_mode="frozen"), "regime_mode", "unknown regime_mode 'frozen'"),
        "emit_day_outside_horizon": (_cfg(TWO, emit_days="0,5"), "emit_days", "emit day 5 outside the horizon [0, 2]"),
        "emit_day_between_steps": (
            _cfg(TWO, horizon_days="4", step_days="2", emit_days="0,3"), "emit_days",
            "emit day 3 is not a multiple of step_days=2",
        ),
    }

    @pytest.mark.parametrize("lines, key, message", CASES.values(), ids=CASES.keys())
    def test_refused_with_file_line_and_key(self, tmp_path, capsys, lines, key, message):
        path = tmp_path / "c.cfg"
        write(path, "".join(f"{line}\n" for line in lines))
        if key is None:  # a line that holds no key
            expected = f"{path}:{len(lines)}: {message}"
        else:
            given = [n for n, line in enumerate(lines, start=1) if line.partition("=")[0].strip() == key]
            expected = f"{path}{f':{given[-1]}' if given else ''}: config key {key!r}: {message}"
        with pytest.raises(ConfigError) as caught:
            parse_sim_config(path)
        assert (str(caught.value), caught.value.key) == (expected, key)
        assert main(["simulate", str(path), "x", "--out", str(tmp_path / "out"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"ERROR {expected}\n" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestJson:
    def test_nan_inside_record_is_null(self):
        trend = TrendResult(direction="none", tau=math.nan, p_value=1.0, s=0, var_s=0.0, n=4)
        assert json.loads(json_text({"t": trend}))["t"]["tau"] is None

    def test_nan_inside_array_is_null(self):
        text = json_text({"a": np.array([np.nan, 1.5, np.inf]), "b": np.array([[2, 3]])})
        assert json.loads(text) == {"a": [None, 1.5, None], "b": [[2, 3]]}


@pytest.fixture
def snap_pair(tmp_path):
    p0 = tmp_path / "snap_2016-01-23.csv"
    p1 = tmp_path / "snap_2016-02-20.csv"
    write(p0, "user_id,balance\nalice,500000000\nbob,120000\ncarol,0\ndave,30000000\n")
    write(p1, "user_id,balance\nalice,500000000\nbob,0\ndave,45000000\nerin,7000000\n")
    return p0, p1


class TestCmdPanel:
    def test_row_count_is_user_union(self, snap_pair, tmp_path):
        p0, p1 = snap_pair
        rc = main(["panel", str(p0), str(p1), "joined.csv", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        loaded = read_panel_csv(tmp_path / "joined.csv")
        assert loaded.n_rows == 5

    def test_filter_active_on_inactive_pair(self, tmp_path):
        p0 = tmp_path / "a_2016-01-23.csv"
        p1 = tmp_path / "a_2016-02-20.csv"
        write(p0, "user_id,balance\nu1,10\nu2,20\n")
        write(p1, "user_id,balance\nu1,10\nu2,20\n")
        rc = main(["panel", str(p0), str(p1), "p.csv", "--filter-active", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        loaded = read_panel_csv(tmp_path / "p.csv")
        assert loaded.n_rows == 0
        tax = json.loads((tmp_path / "p.taxonomy.json").read_text())
        assert tax["horizontal"] == 2
        assert tax["dt_days"] == 28

    def test_file_name_date_that_names_no_day_exits_2(self, snap_pair, tmp_path, capsys):
        p0, _ = snap_pair
        p1 = tmp_path / "snap_2016-02-30.csv"
        write(p1, "user_id,balance\nalice,5\n")
        assert main(["panel", str(p0), str(p1), "j.csv", "--out", str(tmp_path / "out"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "snap_2016-02-30.csv: file name holds '2016-02-30', which is not a date" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()
        assert main(["panel", str(p0), str(p1), "j.csv", "--date1", "2016-02-20", "--out", str(tmp_path), "--quiet"]) == 0

    def test_taxonomy_echoes_28_day_horizon(self, snap_pair, tmp_path):
        p0, p1 = snap_pair
        main(["panel", str(p0), str(p1), "j.csv", "--out", str(tmp_path), "--quiet"])
        tax = json.loads((tmp_path / "j.taxonomy.json").read_text())
        assert tax["dt_days"] == 28
        assert tax["total"] == 5

    def test_hopkins_block_optional(self, tmp_path, rng):
        p0 = tmp_path / "h_2016-01-23.csv"
        p1 = tmp_path / "h_2016-02-20.csv"
        bal0 = rng.integers(1, 10**9, size=200)
        bal1 = rng.integers(1, 10**9, size=200)
        write(p0, "user_id,balance\n" + "\n".join(f"u{i},{b}" for i, b in enumerate(bal0)) + "\n")
        write(p1, "user_id,balance\n" + "\n".join(f"u{i},{b}" for i, b in enumerate(bal1)) + "\n")
        rc = main(["panel", str(p0), str(p1), "h.csv", "--hopkins-m", "20", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        tax = json.loads((tmp_path / "h.taxonomy.json").read_text())
        assert 0.0 <= tax["hopkins"]["statistic"] <= 1.0
        assert 0.0 <= tax["hopkins"]["p_value"] <= 1.0

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--hopkins-m", "3"], "--hopkins-m 3: need at least 2*m = 6 points, got 5"),
            (["--date1", "2016-01-23"], "{p0}, {p1}: snapshots share the date 2016-01-23; horizon is zero"),
        ],
        ids=["hopkins-m", "zero-horizon"],
    )
    def test_data_error_names_its_inputs(self, snap_pair, tmp_path, capsys, flags, message):
        p0, p1 = snap_pair
        rc = main(["panel", str(p0), str(p1), "p.csv", *flags, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"ERROR {message.format(p0=p0, p1=p1)}\n" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_run_id_covers_snapshot_dates(self, tmp_path):
        p0 = tmp_path / "a.csv"
        p1 = tmp_path / "b.csv"
        write(p0, "user_id,balance\nu1,10\n")
        write(p1, "user_id,balance\nu1,12\n")
        seen = {}
        for date0 in ("2016-01-20", "2016-02-03"):
            rc = main([
                "panel", str(p0), str(p1), "p.csv", "--date0", date0, "--date1", "2016-02-20",
                "--out", str(tmp_path), "--quiet",
            ])
            assert rc == 0
            tax = json.loads((tmp_path / "p.taxonomy.json").read_text())
            seen[tax["dt_days"]] = tax["run_id"]
        assert sorted(seen) == [17, 31]
        assert seen[17] != seen[31]

    def test_bad_input_nonzero_exit(self, tmp_path):
        bad = tmp_path / "bad_2016-01-23.csv"
        write(bad, "user_id,balance\na,xyz\n")
        other = tmp_path / "ok_2016-02-20.csv"
        write(other, "user_id,balance\na,5\n")
        rc = main(["panel", str(bad), str(other), "p.csv", "--out", str(tmp_path), "--quiet"])
        assert rc != 0


class TestBadFlagValues:
    """A bad flag value exits 2 with a message naming the flag, not a traceback."""

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("panel", "--date0", "2016-13-01"),
            ("sweep", "--t0", "notadate"),
            ("sweep", "--dts", "28,x"),
            ("sweep", "--dts", "28,99999999"),
            ("sweep", "--dts", "0"),
            ("sweep", "--dts", "-7"),
            ("sweep", "--dts", "28,-7"),
            ("sweep", "--bins", "1"),
            ("sweep", "--min-count", "1"),
            ("estimate", "--bins", "1"),
            ("estimate", "--min-count", "1"),
            ("fit", "--hist-bins", "0"),
            ("umpu", "--mc-reps", "0"),
        ],
    )
    def test_rejected(self, snap_pair, tmp_path, capsys, command, flag, value):
        p0, p1 = snap_pair
        argv = {
            "panel": ["panel", str(p0), str(p1), "p.csv"],
            "sweep": ["sweep", str(tmp_path), "--t0", "2016-01-23", "--dts", "28"],
            # a panel that does not exist: the flag is refused before the input is hashed or read
            "estimate": ["estimate", str(tmp_path / "missing.csv"), "e"],
            "fit": ["fit", str(p1)],
            "umpu": ["fit", str(p1), "--umpu"],
        }[command]
        rc = main([*argv, flag, value, "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["fit", "--sweep-step", "nan"], "--sweep-step"),
            (["fit", "--sweep-step", "0"], "--sweep-step"),
            (["fit", "--sweep-step", "1e8", "--sweep-start", "inf"], "--sweep-start"),
            (["fit", "--xmin-candidates", "-1"], "--xmin-candidates"),
            (["fit", "--xmin-candidates", "0"], "--xmin-candidates"),
            (["fit", "--umpu", "--seed", "-1"], "--seed"),
            (["panel", "--hopkins-m", "5", "--seed", "-1"], "--seed"),
            (["panel", "--hopkins-m", "-1"], "--hopkins-m"),
        ],
    )
    def test_rejected_before_any_output(self, snap_pair, tmp_path, capsys, argv, flag):
        p0, p1 = snap_pair
        command, *flags = argv
        inputs = {"fit": [str(p1)], "panel": [str(p0), str(p1), "p.csv"]}[command]
        rc = main([command, *inputs, *flags, "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["fit", "{tmp}/missing.csv", "--xmin", "-5"], "--xmin"),
            (["fit", "{tmp}/missing.csv", "--xmin", "nan"], "--xmin"),
            (["estimate", "{tmp}/missing.csv", "e", "--target", "share"], "--target"),
            (["estimate", "{tmp}/missing.csv", "e", "--bins", "1"], "--bins"),
            (["estimate", "{tmp}/missing.csv", "e", "--min-count", "1"], "--min-count"),
            (["panel", "{tmp}/a_2016-01-23.csv", "{tmp}/b_2016-02-20.csv", "p.csv", "--date1", "2016-13-01"], "--date1"),
            (["sweep", "{tmp}", "--t0", "2016-01-24", "--dts", "27"], "--t0"),
        ],
    )
    def test_refused_before_any_input_is_hashed_or_read(self, snap_pair, tmp_path, monkeypatch, capsys, argv, flag):
        """The inputs are missing, or for `sweep` may not be hashed or read, so a check made later fails the row."""

        def untouchable(path, *rest):
            raise AssertionError(f"{path} was hashed or read")

        for name in ("file_sha256", "read_snapshot_csv", "read_panel_csv", "read_values_csv"):
            monkeypatch.setattr(bg_io, name, untouchable)
        rc = main([*(arg.format(tmp=tmp_path) for arg in argv), "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["estimate", "p.csv", "e"], ["sweep", ".", "--t0", "2016-01-23", "--dts", "28"]])
def test_star_log_scale_is_not_an_option(tmp_path, capsys, argv):
    assert main([*argv, "--star-log-scale", "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert "unrecognized arguments: --star-log-scale" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["estimate", "p.csv", "e"], "--s-min"),
        (["estimate", "p.csv", "e"], "--s-max"),
        (["panel", "a.csv", "b.csv", "p.csv"], "--epsilon-v"),
        (["panel", "a.csv", "b.csv", "p.csv", "--hopkins-m", "5"], "--hopkins-log"),
    ],
)
def test_removed_flags_are_not_options(tmp_path, capsys, argv, flag):
    """Bins span the active s0, vertical rows enter from 0, and Hopkins reads the points as given."""
    value = [] if flag == "--hopkins-log" else ["1"]
    assert main([*argv, flag, *value, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert f"unrecognized arguments: {' '.join([flag, *value])}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestFailedRunWritesNoFile:
    """Every output is computed before the first write, so a run that fails leaves only its inputs."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit", "v.csv", "--umpu"], "need at least 10 positive values"),
            (["estimate", "p.csv", "e", "--bins", "2", "--min-count", "2"], "need at least 3 retained bins"),
        ],
        ids=["fit-umpu-5-values", "estimate-split-fails"],
    )
    def test_only_inputs_remain(self, tmp_path, capsys, argv, message):
        write(tmp_path / "v.csv", "balance\n5\n17\n300\n2000\n90000\n")
        rows = [("a", 10, 12), ("b", 20, 25), ("c", 40, 44), ("d", 80, 70), ("e", 160, 200)]
        write_panel_csv(tmp_path / "p.csv", panel_from_rows(rows))
        command, data, *flags = argv
        rc = main([command, str(tmp_path / data), *flags, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err and "RuntimeWarning" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv", "v.csv"]


def test_estimate_without_active_rows_names_the_panel(tmp_path, capsys):
    write_panel_csv(tmp_path / "p.csv", panel_from_rows([("a", 10, 10), ("b", 0, 25)]))
    rc = main(["estimate", str(tmp_path / "p.csv"), "e", "--out", str(tmp_path)])
    assert rc == 2
    assert f"{tmp_path / 'p.csv'}: no active rows" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["p.csv"]


def test_estimate_on_one_starting_balance_names_the_panel(tmp_path, capsys):
    write_panel_csv(tmp_path / "p.csv", panel_from_rows([("a", 5, 7), ("b", 5, 3), ("c", 0, 4)]))
    rc = main(["estimate", str(tmp_path / "p.csv"), "e", "--bins", "2", "--min-count", "2", "--out", str(tmp_path)])
    assert rc == 2
    assert f"{tmp_path / 'p.csv'}: every active row starts at one balance, 5 satoshi" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["p.csv"]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--bins", "2", "--min-count", "2"], "need at least 3 retained bins"),
        (["--bins", "2", "--min-count", "2", "--target", "absolute"], "need at least 3 retained bins"),
        (["--min-count", "50"], "no bin reached min_count=50"),
    ],
    ids=["ratio-fit", "absolute-fit", "no-retained-bin"],
)
def test_estimate_whose_fit_fails_names_the_panel(tmp_path, capsys, flags, message):
    rows = [("a", 10, 12), ("b", 20, 25), ("c", 40, 44), ("d", 80, 70), ("e", 160, 200)]
    write_panel_csv(tmp_path / "p.csv", panel_from_rows(rows))
    rc = main(["estimate", str(tmp_path / "p.csv"), "e", *flags, "--out", str(tmp_path)])
    assert rc == 2
    assert f"{tmp_path / 'p.csv'}: {message}" in capsys.readouterr().err


def test_manifest_digests_match_outputs(tmp_path, monkeypatch):
    """Outputs are hashed as they are written; each digest a manifest lists is that of the file."""
    monkeypatch.chdir(tmp_path)
    _run_pipeline(tmp_path)
    listed = {}
    for manifest in tmp_path.rglob("*.manifest.json"):
        listed.update(json.loads(manifest.read_text())["outputs"])
    written = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.*") if ".manifest." not in p.name}
    assert set(listed) == written - {"a.csv", "b.csv", "vals.csv", *(f"{name}.cfg" for name in CONFIGS)}
    for name, digest in listed.items():
        assert digest == file_sha256(name), name


@pytest.fixture(scope="module")
def balances_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fit")
    rng = np.random.default_rng(5)
    x = rng.lognormal(16.0, 2.0, size=4000).astype(np.int64)
    x = x[x > 0]
    path = tmp / "balances.csv"
    write(path, "user_id,balance\n" + "\n".join(f"u{i},{v}" for i, v in enumerate(x)) + "\n")
    return path


class TestCmdFit:
    def test_no_flags_exactly_three_result_jsons(self, balances_csv, tmp_path):
        rc = main(["fit", str(balances_csv), "--xmin", "100000", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        jsons = {p.name for p in tmp_path.glob("*.json")}
        assert jsons == {
            "balances.power_law.json",
            "balances.log_normal.json",
            "balances.comparison.json",
            "balances.manifest.json",
        }
        fit = json.loads((tmp_path / "balances.power_law.json").read_text())
        assert fit["unit"] == "satoshi"
        assert fit["alpha"] > 1.0

    def test_sweep_uses_whole_bitcoin_grid(self, balances_csv, tmp_path):
        rc = main([
            "fit", str(balances_csv), "--xmin", "100000", "--sweep-step", "100000000",
            "--out", str(tmp_path), "--quiet",
        ])
        assert rc == 0
        rows = (tmp_path / "balances.threshold_sweep.csv").read_text().splitlines()
        xmins = [float(r.split(",")[0]) for r in rows[1:]]
        assert xmins == [1.0 + k * 1e8 for k in range(len(xmins))]

    def test_sweep_row_on_exponential_boundary_writes_empty_lr(self, tmp_path):
        # ln x is far heavier-tailed than exponential, so each log-normal fit sits on its boundary
        data = tmp_path / "v.csv"
        write(data, "balance\n" + "2\n" * 150 + "".join(f"{v}\n" for v in range(3, 103)) + "1000000000000\n" * 50)
        rc = main(["fit", str(data), "--xmin", "1", "--sweep-step", "1", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        rows = [r.split(",") for r in (tmp_path / "v.threshold_sweep.csv").read_text().splitlines()]
        assert rows[0] == ["xmin", "normalized_lr", "p_value", "preferred"]
        assert rows[1] == ["1", "", "1", "inconclusive"]

    def test_sweep_grid_too_large_exits_2(self, tmp_path, capsys):
        data = tmp_path / "v.csv"
        write(data, "balance\n" + "2\n" * 50 + "2000000\n" * 200)
        rc = main(["fit", str(data), "--xmin", "1", "--sweep-step", "1", "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "holds 2,000,000 thresholds, more than 1,000,000; use a larger step" in err
        assert not (tmp_path / "out").exists()

    def test_umpu_sweep_rejects_beyond_head(self, tmp_path):
        rng = np.random.default_rng(9)
        x = rng.lognormal(16.0, 1.2, size=10_000).astype(np.int64)
        x = x[x > 0]
        path = tmp_path / "ln.csv"
        write(path, "user_id,balance\n" + "\n".join(f"u{i},{v}" for i, v in enumerate(x)) + "\n")
        rc = main([
            "fit", str(path), "--xmin", "1", "--umpu", "--umpu-method", "asymptotic",
            "--out", str(tmp_path), "--quiet",
        ])
        assert rc == 0
        rows = (tmp_path / "ln.umpu_sweep.csv").read_text().splitlines()[1:]
        parsed = [r.split(",") for r in rows]
        beyond = [float(p[4]) for p in parsed if int(p[0]) >= 2000]
        assert beyond and all(p < 0.05 for p in beyond)

    def test_non_positive_values_dropped_with_warning(self, tmp_path, caplog):
        data = tmp_path / "v.csv"
        write(data, "balance\n0\n-5\n" + "".join(f"{v}\n" for v in range(1, 41)))
        args = build_parser().parse_args(["fit", str(data), "--xmin", "1", "--out", str(tmp_path), "--quiet"])
        with caplog.at_level(logging.WARNING, logger="balancegrowth"):
            assert args.func(args) == 0
        assert "dropped 2 of 42 values that are not positive" in [r.getMessage() for r in caplog.records]

    @pytest.mark.parametrize(
        "values, flags, message",
        [
            (range(1, 41), ["--xmin", "1e30"], "need at least 2 tail values >= xmin, got 0"),
            ([7] * 40, [], "no candidate xmin leaves a non-degenerate tail"),
            (range(1, 6), ["--xmin", "1", "--umpu"], "need at least 10 positive values, got 5"),
        ],
        ids=["empty-tail", "tied-values", "few-for-umpu"],
    )
    def test_fit_failure_names_the_data(self, tmp_path, capsys, values, flags, message):
        data = tmp_path / "v.csv"
        write(data, "balance\n" + "".join(f"{v}\n" for v in values))
        assert main(["fit", str(data), *flags, "--out", str(tmp_path), "--quiet"]) == 2
        assert f"{data}: {message}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["v.csv"]

    def test_non_finite_value_refused_before_any_output(self, tmp_path, capsys):
        data = tmp_path / "v.csv"
        write(data, "balance\n" + "".join(f"{v}\n" for v in range(1, 41)) + "inf\n")
        assert main(["fit", str(data), "--xmin", "1", "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert f"{data}:42: balance must be a finite number, got 'inf'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_xmin_scan_when_omitted(self, balances_csv, tmp_path):
        rc = main(["fit", str(balances_csv), "--xmin-candidates", "64", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        pl = json.loads((tmp_path / "balances.power_law.json").read_text())
        ln = json.loads((tmp_path / "balances.log_normal.json").read_text())
        assert pl["xmin"] == ln["xmin"] > 0


class TestCmdEstimate:
    def test_defaults_echoed(self, tmp_path, rng):
        s0 = rng.lognormal(12.0, 1.0, size=30_000)
        s1 = s0 * rng.lognormal(0.02, 0.1, size=30_000)
        panel = panel_from_rows([(f"u{i:06d}", s0[i], s1[i]) for i in range(30_000)])
        write_panel_csv(tmp_path / "p.csv", panel)
        rc = main(["estimate", str(tmp_path / "p.csv"), "est", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        payload = json.loads((tmp_path / "est.regimes.json").read_text())
        assert payload.keys() == {
            "s_star", "poor", "wealthy", "sign_pattern", "n_bins_poor", "n_bins_wealthy", "settings", "unit", "run_id",
        }
        assert payload["settings"]["n_bins"] == 300
        assert payload["settings"]["min_count"] == 50
        assert payload["settings"]["target"] == "ratio"

    def test_constant_ratio_panel_gives_unit_alpha(self, tmp_path, rng):
        ks = rng.integers(30, 46, size=20_000)
        s0 = 2.0**ks
        s1 = s0 * 1.1
        panel = panel_from_rows([(f"u{i:06d}", s0[i], s1[i]) for i in range(20_000)])
        write_panel_csv(tmp_path / "p.csv", panel)
        rc = main([
            "estimate", str(tmp_path / "p.csv"), "est", "--bins", "16", "--min-count", "50",
            "--out", str(tmp_path), "--quiet",
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "est.regimes.json").read_text())
        assert payload["poor"]["alpha_drift"] == pytest.approx(1.0, abs=1e-9)
        assert payload["poor"]["mu_dt"] == pytest.approx(0.1, rel=1e-9)

    def test_absolute_target_emits_both_fits(self, tmp_path, rng):
        s0 = rng.lognormal(12.0, 1.2, size=25_000)
        s1 = s0 + 2.0 * s0 * (1.0 + 0.02 * rng.standard_normal(25_000))
        panel = panel_from_rows([(f"u{i:06d}", s0[i], s1[i]) for i in range(25_000)])
        write_panel_csv(tmp_path / "p.csv", panel)
        rc = main([
            "estimate", str(tmp_path / "p.csv"), "abs", "--target", "absolute",
            "--bins", "60", "--out", str(tmp_path), "--quiet",
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "abs.absfits.json").read_text())
        assert payload.keys() == {"fit", "settings", "unit", "run_id"}
        assert payload["fit"]["alpha_drift"] == pytest.approx(1.0, abs=0.03)
        assert payload["fit"]["mu_dt"] == pytest.approx(2.0, rel=0.15)
        assert payload["fit"]["mu_dt_alpha1"] == pytest.approx(2.0, rel=0.05)
        assert payload["fit"]["alpha_vol"] == pytest.approx(1.0, abs=0.05)

    def test_both_targets_report_one_settings_block(self, tmp_path, rng):
        s0 = rng.lognormal(12.0, 1.0, size=20_000)
        s1 = s0 * rng.lognormal(0.02, 0.1, size=20_000)
        write_panel_csv(tmp_path / "p.csv", panel_from_rows([(f"u{i:06d}", s0[i], s1[i]) for i in range(20_000)]))
        flags = ["--bins", "40", "--min-count", "30", "--out", str(tmp_path / "out"), "--quiet"]
        assert main(["estimate", str(tmp_path / "p.csv"), "est", *flags]) == 0
        assert main(["estimate", str(tmp_path / "p.csv"), "abs", "--target", "absolute", *flags]) == 0
        regimes = json.loads((tmp_path / "out" / "est.regimes.json").read_text())
        absfits = json.loads((tmp_path / "out" / "abs.absfits.json").read_text())
        assert regimes["unit"] == absfits["unit"] == "satoshi"
        assert absfits["settings"]["target"] == "absolute"
        assert {**absfits["settings"], "target": "ratio"} == regimes["settings"]
        for path in (tmp_path / "out").iterdir():
            text = path.read_text()
            assert "estimator_settings" not in text and "per-day" not in text, path.name

    def test_no_bins_error_advises(self, tmp_path):
        panel = panel_from_rows([("a", 10.0, 12.0), ("b", 20.0, 25.0), ("c", 40.0, 40.0)])
        write_panel_csv(tmp_path / "p.csv", panel)
        rc = main(["estimate", str(tmp_path / "p.csv"), "est", "--out", str(tmp_path), "--quiet"])
        assert rc != 0


class TestCmdSweepInputs:
    @staticmethod
    def _snapshots(snapdir, rng, days=(0, 28)):
        ids = [f"u{i:05d}" for i in range(4000)]
        s = rng.lognormal(14.0, 1.5, size=len(ids))
        for day in days:
            date = D0 + dt.timedelta(days=day)
            body = "".join(f"{u},{int(b)}\n" for u, b in zip(ids, s))
            write(snapdir / f"snap_{date.isoformat()}.csv", "user_id,balance\n" + body)
            s = s * rng.lognormal(0.0, 0.05, size=s.size)

    def _sweep(self, snapdir, tmp_path, dts="28"):
        return main([
            "sweep", str(snapdir), "--t0", D0.isoformat(), "--dts", dts, "--prefix", "sw",
            "--bins", "20", "--min-count", "20", "--out", str(tmp_path / "out"), "--quiet",
        ])

    def test_unused_malformed_snapshot_is_listed_not_read(self, tmp_path, rng):
        snapdir = tmp_path / "snaps"
        snapdir.mkdir()
        self._snapshots(snapdir, rng)
        write(snapdir / "snap_2016-02-06.csv", "user_id,balance\na,xyz\n")
        assert self._sweep(snapdir, tmp_path) == 0
        manifest = json.loads((tmp_path / "out" / "sw.manifest.json").read_text())
        assert str(snapdir / "snap_2016-02-06.csv") in manifest["inputs"]
        assert len(manifest["inputs"]) == 3
        rows = (tmp_path / "out" / "sw.series.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["28"] * (len(rows) - 1) and len(rows) > 1

    def test_horizon_without_snapshot_skipped_with_warning(self, tmp_path, rng, capsys):
        snapdir = tmp_path / "snaps"
        snapdir.mkdir()
        self._snapshots(snapdir, rng)
        assert self._sweep(snapdir, tmp_path, dts="14,28") == 0
        reason = f"no snapshot at {D0 + dt.timedelta(days=14)}"
        assert f"WARNING skipped dt=14: {reason}\n" in capsys.readouterr().err
        payload = json.loads((tmp_path / "out" / "sw.horizon.json").read_text())
        assert payload["skipped"] == [{"dt_days": 14, "reason": reason}]
        assert [entry["dt_days"] for entry in payload["entries"]] == [28]

    def test_duplicate_date_at_unused_date_rejected(self, tmp_path, rng, capsys):
        snapdir = tmp_path / "snaps"
        snapdir.mkdir()
        self._snapshots(snapdir, rng)
        write(snapdir / "a_2016-02-06.csv", "user_id,balance\na,5\n")
        write(snapdir / "b_2016-02-06.csv", "user_id,balance\na,6\n")
        assert self._sweep(snapdir, tmp_path) == 2
        assert "duplicate snapshot date 2016-02-06" in capsys.readouterr().err

    def test_file_name_date_that_names_no_day_exits_2(self, tmp_path, rng, capsys):
        snapdir = tmp_path / "snaps"
        snapdir.mkdir()
        self._snapshots(snapdir, rng)
        write(snapdir / "backup_2016-13-45.csv", "user_id,balance\na,5\n")
        assert self._sweep(snapdir, tmp_path) == 2
        err = capsys.readouterr().err
        assert "backup_2016-13-45.csv: file name holds '2016-13-45', which is not a date" in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()


class TestCmdSimulateAndSweep:
    TWO_REGIME_CFG = """
model = two_regime
n_users = 60000
seed = 42
horizon_days = 28
step_days = 1
s0_law = lognormal
s0_m = 23.03
s0_v = 2.3
s_star = 1e10
regime_mode = initial
poor_alpha_drift = 0.8
poor_mu = 0.003
poor_alpha_vol = 0.8
poor_sigma = 0.0002
wealthy_alpha_drift = 1.05
wealthy_mu = -0.002
wealthy_alpha_vol = 0.9
wealthy_sigma = 0.001
"""

    def test_gbm_identity_config(self, tmp_path):
        cfg = tmp_path / "gbm.cfg"
        write(cfg, "model = gbm\nn_users = 500\nhorizon_days = 10\ns0_law = point\ns0_value = 1e8\nmu = 0\nsigma = 0\n")
        rc = main(["simulate", str(cfg), "g", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        panel = read_panel_csv(tmp_path / "g.panel.csv")
        assert np.array_equal(panel.s0, panel.s1)
        assert json.loads((tmp_path / "g.manifest.json").read_text())["diagnostics"] == {"n_overflow": 0}

    @pytest.mark.parametrize("model", ["gbm", "power"])
    def test_overflow_excluded_counted_and_logged(self, tmp_path, capsys, model):
        cfg = tmp_path / "big.cfg"
        write(cfg, f"model = {model}\nn_users = 5\nhorizon_days = 100\ns0_law = point\ns0_value = 1e18\nmu = 0.1\n")
        rc = main(["simulate", str(cfg), "big", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        assert "WARNING excluded 5 of 5 users" in capsys.readouterr().err
        assert read_panel_csv(tmp_path / "big.panel.csv").n_rows == 0
        assert json.loads((tmp_path / "big.manifest.json").read_text())["diagnostics"] == {"n_overflow": 5}

    def test_gbm_honours_step_days(self, tmp_path):
        cfg = tmp_path / "gbm.cfg"
        write(
            cfg,
            "model = gbm\nn_users = 20\nhorizon_days = 10\nstep_days = 5\nemit_days = 0,5,10\n"
            "s0_law = point\ns0_value = 1e8\nmu = 0.01\nsigma = 0\n",
        )
        rc = main(["simulate", str(cfg), "g", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        mid = read_snapshot_csv(tmp_path / "g.snapshot_2000-01-06.csv")
        assert np.all(mid.balances == round(1e8 * np.exp(0.05)))

    def test_invalid_config_key_reported(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        write(cfg, "model = gbm\nn_users = 10\nhorizon_days = 1\ns0_law = point\ns0_value = 1\nwhatever = 1\n")
        rc = main(["simulate", str(cfg), "x", "--out", str(tmp_path)])
        assert rc != 0
        assert "whatever" in capsys.readouterr().err

    def test_two_regime_fixture_recovers_drift_signs(self, tmp_path):
        cfg = tmp_path / "two.cfg"
        write(cfg, self.TWO_REGIME_CFG)
        rc = main(["simulate", str(cfg), "sim", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        rc = main([
            "estimate", str(tmp_path / "sim.panel.csv"), "est", "--bins", "120",
            "--out", str(tmp_path), "--quiet",
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "est.regimes.json").read_text())
        assert payload["poor"]["mu_dt"] > 0
        assert payload["wealthy"]["mu_dt"] < 0
        # regime boundary within one geometric bin width of the configured split
        bins_rows = (tmp_path / "est.bins.csv").read_text().splitlines()[1:]
        lo0, hi0 = (float(v) for v in bins_rows[0].split(",")[0:2])
        width = hi0 / lo0
        assert 1e10 / width <= payload["s_star"] <= 1e10 * width

    def test_sweep_single_dt_rows_per_regime(self, tmp_path):
        cfg = tmp_path / "two.cfg"
        write(cfg, self.TWO_REGIME_CFG)
        snapdir = tmp_path / "snaps"
        snapdir.mkdir()
        rc = main(["simulate", str(cfg), "run", "--out", str(snapdir), "--quiet"])
        assert rc == 0
        rc = main([
            "sweep", str(snapdir), "--t0", "2000-01-01", "--dts", "28", "--prefix", "sw",
            "--bins", "120", "--out", str(tmp_path), "--quiet",
        ])
        assert rc == 0
        rows = (tmp_path / "sw.series.csv").read_text().splitlines()
        assert rows[0] == "dt_days,regime,alpha_drift,alpha_vol,mu,sigma"
        assert len(rows) == 3  # header + poor + wealthy
        assert {r.split(",")[1] for r in rows[1:]} == {"poor", "wealthy"}

    def test_sweep_24_rows_and_trends(self, tmp_path):
        cfg = tmp_path / "pw.cfg"
        emits = ",".join(str(30 * k) for k in range(25))
        write(
            cfg,
            "model = power\nn_users = 40000\nseed = 7\nhorizon_days = 720\nstep_days = 1\n"
            f"emit_days = {emits}\n"
            "s0_law = lognormal\ns0_m = 13.8\ns0_v = 1.5\n"
            "alpha_drift = 1.0\nmu = 0.0002\nalpha_vol = 1.0\nsigma = 0:0.004,720:0.001\n"
            "t0_date = 2016-01-23\n",
        )
        snapdir = tmp_path / "snaps"
        snapdir.mkdir()
        rc = main(["simulate", str(cfg), "run", "--out", str(snapdir), "--quiet"])
        assert rc == 0
        dts = ",".join(str(30 * k) for k in range(1, 25))
        rc = main([
            "sweep", str(snapdir), "--t0", "2016-01-23", "--dts", dts, "--prefix", "sw",
            "--min-count", "100", "--out", str(tmp_path), "--quiet",
        ])
        assert rc == 0
        header, *rows = (tmp_path / "sw.series.csv").read_text().splitlines()
        assert len(rows) == 24
        trends = {(r.split(",")[0], r.split(",")[1]): r.split(",")[2] for r in
                  (tmp_path / "sw.trends.csv").read_text().splitlines()[1:]}
        assert trends[("poor", "sigma")] == "decreasing"
        # one parameter list names the series columns, each horizon's derived values and the trend tests;
        # the horizon totals stay in each split
        assert SWEEP_PARAMS == ("alpha_drift", "alpha_vol", "mu", "sigma")
        assert header == ",".join(["dt_days", "regime", *SWEEP_PARAMS])
        assert list(trends) == [("poor", param) for param in SWEEP_PARAMS]
        payload = json.loads((tmp_path / "sw.horizon.json").read_text())
        assert {regime: list(params) for regime, params in payload["trends"].items()} == {"poor": list(SWEEP_PARAMS)}
        for entry in payload["entries"]:
            assert {regime: list(params) for regime, params in entry["derived"].items()} == {"poor": list(SWEEP_PARAMS)}
            assert {"mu_dt", "sigma_sqrtdt"} <= entry["split"]["poor"].keys()

    def test_manifest_lists_outputs_and_run_id(self, tmp_path):
        cfg = tmp_path / "gbm.cfg"
        write(cfg, "model = gbm\nn_users = 50\nhorizon_days = 5\ns0_law = point\ns0_value = 1e6\nmu = 0.01\nsigma = 0.05\n")
        rc = main(["simulate", str(cfg), "g", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        manifest = json.loads((tmp_path / "g.manifest.json").read_text())
        assert manifest["run_id"]
        assert str(tmp_path / "g.panel.csv") in manifest["outputs"]
        assert manifest["seed"] == 0

    def test_manifests_record_the_seed_that_drove_the_run(self, tmp_path):
        cfg = tmp_path / "two.cfg"
        write(cfg, self.TWO_REGIME_CFG.replace("n_users = 60000", "n_users = 3000"))
        snapdir = tmp_path / "snaps"
        assert main(["simulate", str(cfg), "run", "--out", str(snapdir), "--quiet"]) == 0
        binning = ["--bins", "20", "--min-count", "20", "--out", str(tmp_path), "--quiet"]
        assert main(["estimate", str(snapdir / "run.panel.csv"), "est", *binning]) == 0
        assert main(["sweep", str(snapdir), "--t0", "2000-01-01", "--dts", "28", *binning]) == 0
        seeds = {
            name: json.loads(path.read_text())["seed"]
            for name, path in [
                ("simulate", snapdir / "run.manifest.json"),
                ("estimate", tmp_path / "est.manifest.json"),
                ("sweep", tmp_path / "sweep.manifest.json"),
            ]
        }
        assert seeds == {"simulate": 42, "estimate": None, "sweep": None}

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_seed_flag_only_where_randomness_is_drawn(self, tmp_path, capsys, command):
        assert main([command, str(tmp_path / "in"), "x", "--seed", "1", "--out", str(tmp_path / "out")]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_config_seed_writes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "gbm.cfg"
        write(cfg, "model = gbm\nn_users = 50\nhorizon_days = 5\ns0_law = point\ns0_value = 1e6\nseed = -1\n")
        rc = main(["simulate", str(cfg), "g", "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "seed must be non-negative" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_manifest_keys_and_run_id_pinned(self, tmp_path, monkeypatch):
        """The run id hashes command, parameter echo, input digests, seed and version as JSON."""
        monkeypatch.chdir(tmp_path)
        write("a_2016-01-23.csv", "user_id,balance\nalice,500000000\nbob,120000\ncarol,0\ndave,30000000\n")
        write("b_2016-02-20.csv", "user_id,balance\nalice,500000000\nbob,0\ndave,45000000\nerin,7000000\n")
        rc = main(["panel", "a_2016-01-23.csv", "b_2016-02-20.csv", "p.csv", "--quiet"])
        assert rc == 0
        manifest = json.loads(Path("p.manifest.json").read_text())
        assert set(manifest) == {
            "command", "parameters", "inputs", "seed", "version", "run_id", "outputs", "diagnostics", "duration_s",
        }
        assert manifest["run_id"] == "51e4f5d1a95ec7a3"
