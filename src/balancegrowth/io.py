"""File formats: snapshot/panel CSV, result JSON, sim config.

Snapshot CSV: header `user_id,balance`, balance as a decimal integer
of satoshi (`-?[0-9]+`), UTF-8, LF line endings. Panel CSV: header
`user_id,s0,s1,ds,group`. All writes are atomic (temp file + rename),
and each writer returns the SHA-256 of the bytes it wrote.
Every CSV goes through one reader and one writer: integers round-trip
exactly, and a real number is written as an integer when it is one.
Text cells, user ids included, are read as UTF-8 bytes (`S`) and
written from them as they are. Cells are never quoted: the writer
refuses a cell holding a comma, a quote, CR, LF or NUL, and the reader
refuses a quote or a NUL. Reads accept LF or CRLF line ends.

The reader parses an integer cell eight digits at a time, from up to
three 8-byte words that end at its last digit (`_int_cells`). It reads
the file's bytes straight into one buffer behind `_PAD` = 24 zero
bytes, so the third word of the first cell never starts before the
buffer, and ahead of `_TAIL` = 256 zero bytes: room for a missing last
LF, and for the text cells near the end, each gathered at its column's
widest width (`_text_cells` copies the end of a file whose widest cell
is wider still).
"""

import dataclasses
import datetime as dt
import hashlib
import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np

from .errors import ConfigError, MalformedInputError
from .panel import BalanceSnapshot, TransitionPanel, _blocks, _encode_utf8, _id_text
from .sim import DEFAULT_T0, SCHEME_EXACT, InitialLaw, RegimeParams, Schedule, SimConfig, _emit_days

SNAPSHOT_SCHEMA = [("user_id", "utf8"), ("balance", "int")]
PANEL_SCHEMA = [("user_id", "utf8"), ("s0", "real"), ("s1", "real"), ("ds", "real"), ("group", "utf8")]

# what a cell that does not parse must be; a 'finite' cell that parses to inf or NaN must be "a finite number"
_KIND_TEXT = {"int": "a decimal integer in the int64 range", "real": "a number", "finite": "a number"}
_INT_DIGITS = 19  # the most digits an int64 has
_PAD = 24  # zero bytes before the file's bytes: an integer cell's third word starts up to 24 bytes before its end
_TAIL = 256  # zero bytes after them: room for a missing last LF and for the text cells at the end of the file
_SCAN_BYTES = 1 << 18  # bytes searched for separators at once
_LANES = 0x0101010101010101  # one in each byte (lane) of a word
# a word's top n lanes, for n = 0 ... 8; in a little-endian word the lanes below are left of them
_KEEP = np.array([(1 << 64) - (1 << (64 - 8 * n)) for n in range(9)], dtype=np.uint64)
_FILL = ~_KEEP & np.uint64(ord("0") * _LANES)  # an ASCII 0 in each lane that `_KEEP` drops
# (mask, multiplier, shift) of each step of `_eight_digits`
_JOIN_STEPS = [
    (np.uint64(mask), np.uint64(base << shift | 1), np.uint64(shift))
    for mask, base, shift in (
        (0x0F0F0F0F0F0F0F0F, 10, 8),
        (0x00FF00FF00FF00FF, 100, 16),
        (0x0000FFFF0000FFFF, 10000, 32),
    )
]
_GROUP = 8  # digits per group when writing: 10**8 fits a uint32
_GROUP_BASE = np.uint64(10**_GROUP)
# a written digit is shown when the magnitude reaches its place (10**19 ... 10), the units digit always
_SHOWN_FROM = np.append(10 ** np.arange(_INT_DIGITS, 0, -1, dtype=np.uint64), np.uint64(0))
_INT_CELL = re.compile(rb"-?[0-9]+")

_DATE_RE = re.compile(r"(\d{4}-\d{2}-\d{2})")
# bytes a CSV file may not hold once CRLF line ends are read as LF
_STRAY_BYTES = {
    b'"': "quoted cells are not supported",
    b"\r": "carriage return not before a line feed",
    b"\0": "NUL byte",
}


def _atomic_write(path, chunks) -> str:
    """Write byte chunks (bytes or contiguous arrays) to `path` via a temp file in the same
    directory, then rename; returns the SHA-256 hex digest of the bytes written, so no
    output is read back to be hashed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    digest = hashlib.sha256()
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                digest.update(chunk)
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return digest.hexdigest()


def _format_cells(values: np.ndarray) -> list:
    if values.dtype.kind == "f":
        return [
            str(int(v)) if v.is_integer() and abs(v) < 2**63 else "" if v != v else repr(v)
            for v in values.tolist()
        ]
    return list(map(str, values.tolist()))


def _unsafe(cell) -> bool:
    """Whether `cell` (str or bytes) holds a character that no CSV cell may hold."""
    return any(char in cell for char in (b',"\r\n\0' if isinstance(cell, bytes) else ',"\r\n\0'))


def _refuse(path, name, cells):
    """Raise on the first of `cells` (str or bytes) that holds , " CR LF or NUL."""
    cell = next(filter(_unsafe, cells))
    shown = repr(cell.decode("utf-8", "backslashreplace") if isinstance(cell, bytes) else cell)
    raise MalformedInputError(f"{path}: column {name} holds {shown}; a cell may not hold , \" CR LF or NUL")


def _text_matrix(path, name, a: np.ndarray) -> np.ndarray:
    """One block of a non-integer column as its UTF-8 cells, left-aligned and NUL-padded in a
    (rows, width) `uint8` matrix; refused if a cell holds , " CR LF or NUL.

    `S` cells are their bytes and `U` cells are encoded once; any other
    cell is its `_format_cells` text, checked as text, since `S` would
    drop a trailing NUL.
    """
    if a.dtype.kind not in "SU":
        cells = _format_cells(a)
        if _unsafe("".join(cells)):
            _refuse(path, name, cells)
        a = np.array(cells, dtype=str)
    if a.dtype.kind == "U":
        a = _encode_utf8(a)
    a = np.ascontiguousarray(a)
    codes = a.view(np.uint8).reshape(a.size, a.dtype.itemsize)
    raw = codes.tobytes()  # each cell, then NUL up to the width
    if any(char in raw for char in b',"\r\n') or np.count_nonzero(codes) != np.strings.str_len(a).sum():
        _refuse(path, name, a.tolist())
    return codes


def _digit_matrix(a: np.ndarray) -> np.ndarray:
    """One block of an integer column as its decimal text, right-aligned and NUL-padded in a
    (rows, width) `uint8` matrix.

    The width is that of the block's widest magnitude, plus a sign column
    only when a value is negative. Each magnitude is split into groups of
    `_GROUP` digits, whose digits are taken by `uint32` division by 10;
    a digit above the first significant one is NUL.
    """
    negative = a < 0
    sign = int(negative.any())
    if a.dtype.kind == "u":
        magnitude = a.astype(np.uint64)
    else:  # abs(-2**63) is -2**63, whose uint64 view is 2**63
        magnitude = np.abs(a.astype(np.int64, copy=False)).view(np.uint64)
    width = len(str(int(magnitude.max(initial=0))))
    cells = np.empty((sign + width, a.size), dtype=np.uint8)  # one row per column of text
    rest = magnitude
    for stop in range(sign + width, sign, -_GROUP):  # each group of digits, lowest first; its units in row stop - 1
        if stop - _GROUP > sign:  # digits remain above this group
            above = rest // _GROUP_BASE
            group = (rest - above * _GROUP_BASE).astype(np.uint32)
            rest = above
        else:
            group = rest.astype(np.uint32)
        for row in range(stop - 1, max(stop - _GROUP, sign) - 1, -1):
            tens = group // 10
            cells[row] = group - tens * 10
            group = tens
    digits = cells[sign:]
    digits += ord("0")
    digits *= magnitude >= _SHOWN_FROM[-width:, None]
    if sign:
        cells[0] = np.where(negative, ord("-"), 0)
    return cells.T


def write_csv(path, columns: dict) -> str:
    """Write named, equal-length columns as CSV with LF endings; returns the file's SHA-256.

    Integer cells are their decimal text, and a byte-string (`S`) cell
    is UTF-8 text written as it is. A real cell is written as an integer
    when it is integral and below 2**63 in magnitude, as an empty cell
    when it is NaN, else as its shortest round-trip repr; any other cell
    is its `str`. Cells are never quoted, so a text cell holding a comma,
    a quote, CR, LF or NUL is an error; the file is then left as it was.

    Each chunk of rows is assembled as bytes: every column becomes a
    NUL-padded `uint8` matrix (integers by digit arithmetic), the
    matrices are laid side by side between commas and LFs, and the NULs
    are deleted. A written cell never holds NUL, so no text is lost.
    """
    arrays = [np.asarray(values) for values in columns.values()]
    n = len(arrays[0]) if arrays else 0

    def chunks():
        yield (",".join(columns) + "\n").encode("utf-8")
        for chunk in _blocks(n):
            cells = [
                _digit_matrix(block) if block.dtype.kind in "iu" else _text_matrix(path, name, block)
                for name, block in zip(columns, (a[chunk] for a in arrays))
            ]
            rows = np.empty((len(cells[0]), sum(c.shape[1] + 1 for c in cells)), dtype=np.uint8)
            at = 0
            for c in cells:
                rows[:, at : at + c.shape[1]] = c
                at += c.shape[1]
                rows[:, at] = ord(",")
                at += 1
            rows[:, -1] = ord("\n")
            yield rows[rows != 0]  # the bytes of each row, in order, without the padding

    return _atomic_write(path, chunks())


def _line_at(data, pos: int) -> int:
    return data.count(b"\n", 0, pos) + 1


def _padded_bytes(path) -> tuple[bytearray, int]:
    """The file's bytes, read straight into a zeroed buffer behind `_PAD` bytes and ahead of `_TAIL`,
    and the position in it where they end."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        data = bytearray(_PAD + size + _TAIL)
        with memoryview(data) as view:
            got = fh.readinto(view[_PAD : _PAD + size])
        rest = fh.read()
    if got != size or rest:  # the file changed size while read, or has none, as a pipe
        data[_PAD + got :] = rest + bytes(_TAIL)
    return data, _PAD + got + len(rest)


def _separators(buf: np.ndarray):
    """Positions of every comma and LF in `buf`, and whether each is an LF.

    The bytes are scanned one block of `_SCAN_BYTES` at a time, so no
    mask of the whole file is ever held.
    """
    is_sep, is_lf = np.empty(_SCAN_BYTES, dtype=bool), np.empty(_SCAN_BYTES, dtype=bool)
    parts = []
    for start in range(0, buf.size, _SCAN_BYTES):
        block = buf[start : start + _SCAN_BYTES]
        sep, lf = is_sep[: block.size], is_lf[: block.size]
        np.equal(block, ord(","), out=sep)
        sep |= np.equal(block, ord("\n"), out=lf)
        parts.append(np.flatnonzero(sep) + start)
    seps = np.concatenate(parts)
    return seps, buf[seps] == ord("\n")


def _check_utf8(path, data: bytearray, line_ends: np.ndarray):
    """Raise on the first line of `data` (each ending at its LF in `line_ends`) that is not UTF-8,
    decoding one block of lines at a time."""
    if data.isascii():
        return
    # LF is never inside a multi-byte sequence, so a block of whole lines decodes on its own
    view = memoryview(data)
    for rows in _blocks(line_ends.size):
        start = int(line_ends[rows.start - 1]) + 1 if rows.start else _PAD
        try:
            str(view[start : int(line_ends[rows][-1]) + 1], "utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedInputError(f"{path}:{_line_at(data, start + exc.start)}: not UTF-8 text") from None


def _text_cells(buf: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The cells `buf[start:stop]`, `starts` rising, as one `S` array.

    Each cell is gathered with the bytes after it up to the widest cell's
    width; only the cells narrower than that have those bytes zeroed.
    """
    size = stops - starts
    width = max(1, int(size.max(initial=0)))
    if starts.size and starts[-1] + width > buf.size:  # a wide cell near the end: gather from a copy with room
        base = int(starts[0])
        buf, starts = np.concatenate([buf[base:], np.zeros(width, dtype=np.uint8)]), starts - base
    windows = np.ndarray((buf.size - width + 1,), dtype=f"S{width}", buffer=buf, strides=(1,))
    out = windows[starts]  # each cell, then the bytes after it
    cells = out.view(np.uint8).reshape(starts.size, width)
    short = np.flatnonzero(size < width)
    inside = np.arange(width)
    for block in _blocks(short.size):
        rows = short[block]
        cells[rows] *= inside < size[rows, None]
    return out


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """The value of the eight ASCII digits in each little-endian `uint64` word, the first digit in
    its lowest byte: adjacent digits, then pairs, then fours are joined by one mask, multiply and
    shift each (Langdale & Lemire 2019). The words are overwritten with their values."""
    for mask, scale, shift in _JOIN_STEPS:
        words &= mask
        words *= scale
        words >>= shift
    return words


def _all_digits(words: np.ndarray) -> np.ndarray:
    """Whether every byte of each word is an ASCII digit: its high nibble is 3, and adding 6 leaves it 3.

    A byte of 0xFA or more carries into the byte above when 6 is added,
    but its own high nibble is F, so its word fails already.
    """
    high = np.uint64(0xF0 * _LANES)
    nibbles = words + np.uint64(0x06 * _LANES)
    nibbles &= high
    nibbles >>= np.uint64(4)
    nibbles |= words & high
    return nibbles == np.uint64(0x33 * _LANES)


def _int_cells(buf: np.ndarray, starts: np.ndarray, stops: np.ndarray):
    """int64 values of the cells `buf[start:stop]`, and a mask of the cells that are
    not `-?[0-9]+` in the int64 range; `buf` holds `_PAD` bytes before its first cell.

    Each cell is read right-aligned, as up to three little-endian words of
    eight bytes that end at its last digit. In each word the bytes left
    of the cell's digits (the sign, the cells before) are set to ASCII 0,
    so leading zeros are free; `_all_digits` checks the word and
    `_eight_digits` gives its value. A cell of more than `_INT_DIGITS`
    digits is checked on its own.
    """
    values = np.empty(starts.size, dtype=np.int64)
    bad = np.empty(starts.size, dtype=bool)
    longer = [np.empty(0, dtype=np.intp)]  # cells of more than `_INT_DIGITS` digits
    # every 8-byte word of `buf`, by the position of its first byte
    words = np.ndarray((buf.size - 7,), dtype="<u8", buffer=buf, strides=(1,))
    for block in _blocks(starts.size):
        ends = stops[block]
        neg = buf[starts[block]] == ord("-")
        n = ends - starts[block] - neg  # digits of each cell
        ok, magnitude = n >= 1, np.zeros(n.size, dtype=np.uint64)
        for k in range(-(-min(_INT_DIGITS, int(n.max())) // 8)):  # the words that hold a digit of some cell
            held = slice(None) if k == 0 else np.flatnonzero(n > 8 * k)  # the cells with a digit in word k
            inside = np.clip(n[held] - 8 * k, 0, 8)  # digits of each such cell in word k
            w = words[ends[held] - 8 * (k + 1)]
            w &= _KEEP[inside]
            w |= _FILL[inside]
            ok[held] &= _all_digits(w)
            magnitude[held] += _eight_digits(w) * np.uint64(10 ** (8 * k))  # below 10**19, so it never wraps
        bad[block] = ~ok | (magnitude > np.uint64(2**63 - 1) + neg)
        signed = magnitude.view(np.int64)
        np.negative(signed, out=signed, where=neg)  # -2**63 maps to itself
        values[block] = signed
        longer.append(np.flatnonzero(n > _INT_DIGITS) + block.start)
    for i in np.concatenate(longer).tolist():
        cell = buf[starts[i] : stops[i]].tobytes()
        ok = _INT_CELL.fullmatch(cell) is not None and -(2**63) <= int(cell) < 2**63
        bad[i] = not ok
        values[i] = int(cell) if ok else 0
    return values, bad


def _float_cells(buf: np.ndarray, starts: np.ndarray, stops: np.ndarray):
    """float64 values of the cells `buf[start:stop]`, parsed as `float` parses text, and a
    mask that flags the first cell `float` rejects."""
    values = np.empty(starts.size, dtype=np.float64)
    bad = np.zeros(starts.size, dtype=bool)
    for block in _blocks(starts.size):
        cells = _text_cells(buf, starts[block], stops[block])
        try:
            values[block] = cells.astype(np.float64)  # as `float` parses ASCII text
        except ValueError:  # a block with a cell that fails, or with non-ASCII digits: cell by cell
            for i, cell in enumerate(cells.tolist(), start=block.start):
                try:
                    values[i] = float(cell.decode("utf-8"))
                except ValueError:
                    bad[i] = True
                    return values, bad
    return values, bad


def _read_csv(path, schema, locate=None):
    """Read one array per (column, kind) pair of `schema`, each column converted as a whole.

    Kind 'utf8' keeps a text cell as its UTF-8 bytes (`S`), in an array
    that owns its memory and is read-only, so a snapshot can share it;
    'int' reads int64 from cells of the form `-?[0-9]+`; 'real' reads
    int64 when every cell is such an int64 (so integers stay exact), else
    float64 as `float` parses text; 'finite' reads as 'real' and refuses
    a cell that parses to an infinite or NaN float. The header must name
    exactly the schema's columns, unless `locate(names)` maps the stripped
    header (None if the file is empty) to a field index per column; rows
    may then carry extra fields. Lines end in LF or CRLF; blank lines are
    skipped; a quote, a NUL or a lone CR is an error, as no cell is ever
    quoted.
    Returns the arrays and a row-to-line function.

    The file is read straight into a zero-padded buffer and never decoded
    as a whole: line ends, field counts and every cell's bounds come from
    the byte positions of LF and comma, and each column is gathered from
    the bytes into one fixed-width block of rows at a time. When every
    line holds the header's k fields, as in every written file, the k-th
    separators are the line ends and row i's cells end at separators
    k(i + 1) to k(i + 2) - 1; only another file needs a field count and
    length per line.
    """
    data, end = _padded_bytes(path)
    if data.find(b"\r", _PAD, end) >= 0:
        data[_PAD:end] = data[_PAD:end].replace(b"\r\n", b"\n")
        end = len(data) - _TAIL
    for char, what in _STRAY_BYTES.items():
        pos = data.find(char, _PAD, end)
        if pos >= 0:
            raise MalformedInputError(f"{path}:{_line_at(data, pos)}: {what}")
    if end > _PAD and data[end - 1] != ord("\n"):  # a last line without its LF reads as if it had one
        data[end] = ord("\n")
        end += 1
    buf = np.frombuffer(data, dtype=np.uint8)
    seps, is_lf = _separators(buf)
    n_lines = int(np.count_nonzero(is_lf))
    k = int(np.argmax(is_lf)) + 1 if n_lines else 0  # fields in the header line
    # every line holds k fields; with k = 1 no line may be blank, as a blank line is skipped
    shaped = bool(
        n_lines
        and seps.size == k * n_lines
        and is_lf[k - 1 :: k].all()
        and (k > 1 or np.all(np.diff(seps, prepend=_PAD - 1) > 1))
    )
    line_ends = seps[k - 1 :: k] if shaped else seps[is_lf]
    _check_utf8(path, data, line_ends)

    names = None  # an empty file; a blank first line is an empty header
    if n_lines:
        head = data[_PAD : seps[k - 1]].decode("utf-8")
        names = [name.strip() for name in head.split(",")] if head else []
    if locate is None:
        expected = [name for name, _ in schema]
        if names != expected:
            raise MalformedInputError(f"{path}:1: expected header {','.join(expected)!r}")
        index = list(range(len(schema)))
    else:
        index = locate(names)
    width = max(index) + 1

    if shaped and (k == width or (k > width and locate is not None)):
        n_rows = n_lines - 1

        def field_ends(j):  # index in `seps` of the end of each row's field j
            return seps[k + j :: k][:n_rows]

        def line(i: int) -> int:
            return i + 2

    else:
        ends = np.flatnonzero(is_lf)  # index in `seps` of each line's LF
        fields = np.diff(ends, prepend=-1)
        length = np.diff(line_ends, prepend=_PAD - 1) - 1
        rows = np.flatnonzero(length[1:]) + 1  # 0-based line of each row
        got = fields[rows]
        bad = np.flatnonzero((got < width) | ((got > width) & (locate is None)))
        if bad.size:
            i = int(bad[0])
            raise MalformedInputError(f"{path}:{rows[i] + 1}: expected {width} fields, got {got[i]}")
        first = (np.cumsum(fields) - fields)[rows]  # index in `seps` of the end of each row's first field
        del ends, fields, length, got

        def field_ends(j):
            return seps[first + j]

        def line(i: int) -> int:
            return int(rows[i]) + 1

    del is_lf, line_ends
    # a column's cell bounds are freed before the next column's are taken
    arrays = [
        _column(path, name, kind, buf, field_ends(field - 1) + 1, field_ends(field), line)
        for (name, kind), field in zip(schema, index)
    ]
    return arrays, line


def _column(path, name: str, kind: str, buf: np.ndarray, starts: np.ndarray, stops: np.ndarray, line):
    """One column of `_read_csv`, of the cells `buf[start:stop]`, converted as its kind says."""
    if kind == "utf8":
        cells = _text_cells(buf, starts, stops)
        cells.flags.writeable = False
        return cells
    values, bad = _int_cells(buf, starts, stops)
    what = _KIND_TEXT[kind]
    if bad.any() and kind != "int":
        values, bad = _float_cells(buf, starts, stops)
        if kind == "finite" and not bad.any():  # an int64 column is finite
            what, bad = "a finite number", ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad))
        cell = buf[starts[i] : stops[i]].tobytes().decode("utf-8")
        raise MalformedInputError(f"{path}:{line(i)}: {name} must be {what}, got {cell!r}")
    return values


def _plain(obj):
    """JSON-ready copy: a record becomes its `to_dict()`, or else its fields; an array
    becomes a list, a numpy scalar its Python value and a date its ISO text; a non-finite
    float becomes None."""
    if dataclasses.is_dataclass(obj):
        obj = obj.to_dict() if hasattr(obj, "to_dict") else vars(obj)
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dt.date):
        return obj.isoformat()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def json_text(obj) -> str:
    return json.dumps(_plain(obj), indent=2, sort_keys=True) + "\n"


def write_json(path, obj) -> str:
    return _atomic_write(path, [json_text(obj).encode("utf-8")])


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def date_from_filename(path) -> dt.date | None:
    """Extract an ISO date embedded in the file name, if any; one that names no calendar day is refused."""
    match = _DATE_RE.search(Path(path).stem)
    try:
        return dt.date.fromisoformat(match.group(1)) if match else None
    except ValueError:
        raise MalformedInputError(f"{path}: file name holds {match.group(1)!r}, which is not a date") from None


def _built(path, line, make, **fields):
    """`make(**fields)`; an error about one input row is raised again with that row's `file:line`."""
    try:
        return make(**fields)
    except MalformedInputError as exc:
        if exc.row is None:
            raise
        raise MalformedInputError(f"{path}:{line(exc.row)}: {exc}") from None


def read_snapshot_csv(path, date: dt.date | None = None) -> BalanceSnapshot:
    """Load a snapshot CSV; the date comes from the argument or the file name."""
    date = date or date_from_filename(path)
    if date is None:
        raise MalformedInputError(f"{path}: no snapshot date given and none found in the file name")
    (ids, balances), line = _read_csv(path, SNAPSHOT_SCHEMA)
    return _built(path, line, BalanceSnapshot, date=date, user_ids=ids, balances=balances)


def write_snapshot_csv(path, snapshot: BalanceSnapshot) -> str:
    return write_csv(path, {"user_id": snapshot.user_ids, "balance": snapshot.balances})


def write_panel_csv(path, panel: TransitionPanel) -> str:
    columns = {"user_id": panel.user_ids, "s0": panel.s0, "s1": panel.s1, "ds": panel.ds, "group": panel.group}
    return write_csv(path, columns)


def read_panel_csv(path) -> TransitionPanel:
    """Load a panel CSV. Its user ids must differ; its ds and group cells are checked against s0 and s1.

    Balances are int64 when every s0 and s1 cell is an int64, so
    integer panels round-trip exactly; otherwise float64, and back to
    int64 when every balance is integral and below 2**63 in magnitude.
    """
    (ids, s0, s1, ds, groups), line = _read_csv(path, PANEL_SCHEMA)
    if s0.dtype != s1.dtype:
        s0, s1 = s0.astype(np.float64), s1.astype(np.float64)
    if s0.dtype == np.float64 and all(np.all((c == np.floor(c)) & (np.abs(c) < 2**63)) for c in (s0, s1)):
        s0, s1 = s0.astype(np.int64), s1.astype(np.int64)
    panel = _built(path, line, TransitionPanel, t0=None, dt_days=None, user_ids=ids, s0=s0, s1=s1)
    # beside a float ds cell, an exact int64 difference is compared rounded to float64
    bad = np.flatnonzero(ds != panel.ds)
    if bad.size:
        raise MalformedInputError(f"{path}:{line(int(bad[0]))}: ds does not equal s1 - s0")
    mismatch = np.flatnonzero(groups != panel.group)
    if mismatch.size:
        i = int(mismatch[0])
        raise MalformedInputError(f"{path}:{line(i)}: group label {_id_text(groups[i])} inconsistent with s0/ds")
    return panel


def read_values_csv(path) -> np.ndarray:
    """Load finite values for tail fitting: a snapshot CSV or any CSV with a `balance` column."""

    def locate(names):
        if names is None:
            raise MalformedInputError(f"{path}: empty file")
        if "balance" in names:
            return [names.index("balance")]
        if len(names) != 1:
            raise MalformedInputError(f"{path}:1: no `balance` column in header")
        try:
            float(names[0])
        except ValueError:
            return [0]
        raise MalformedInputError(f"{path}:1: expected a header line")

    (values,), _ = _read_csv(path, [("balance", "finite")], locate)
    return values.astype(np.float64)


# ---------------------------------------------------------------------------
# simulation config files


# each initial law, its constructor and the keys it takes
_LAWS = {
    "lognormal": (InitialLaw.lognormal, ("s0_m", "s0_v")),
    "pareto": (InitialLaw.pareto, ("s0_alpha", "s0_xmin")),
    "point": (InitialLaw.point, ("s0_value",)),
}
_COMMON_KEYS = {"model", "n_users", "seed", "t0_date", "step_days", "horizon_days", "emit_days", "s0_law"}
_COMMON_KEYS.update(*(keys for _, keys in _LAWS.values()))
_REGIME_KEYS = ("alpha_drift", "mu", "alpha_vol", "sigma")
_MODEL_KEYS = {
    "gbm": {"mu", "sigma"},
    "power": set(_REGIME_KEYS),
    "two_regime": {"s_star", "regime_mode", *(f"{side}_{key}" for side in ("poor", "wealthy") for key in _REGIME_KEYS)},
}


def _coefficient(raw: str):
    """A number, or a `day:value,day:value,...` schedule."""
    if ":" not in raw:
        return float(raw)
    pairs = [part.split(":") for part in raw.split(",")]
    return Schedule(days=tuple(float(day) for day, _ in pairs), values=tuple(float(value) for _, value in pairs))


_NUMBER = (float, "a number")
_COEFFICIENT = (_coefficient, "a number or a day:value,... schedule")
# how each key's value is read, and what a refusal says it expected; any other key is a process coefficient
_KINDS = {
    "t0_date": (dt.date.fromisoformat, "an ISO date"),
    "emit_days": (lambda raw: [int(day) for day in raw.split(",")], "a comma list of integer days"),
    **dict.fromkeys(("model", "s0_law", "regime_mode"), (str, "text")),
    **dict.fromkeys(("n_users", "seed", "step_days", "horizon_days"), (int, "an integer")),
    **dict.fromkeys(("s_star", "s0_m", "s0_v", "s0_alpha", "s0_xmin", "s0_value"), _NUMBER),
}


def _read(key: str, raw: str, model: str):
    """The value of one key, read as `_KINDS` says; a process coefficient of `gbm` is a number only."""
    read, expected = _KINDS.get(key, _NUMBER if model == "gbm" else _COEFFICIENT)
    try:
        return read(raw)
    except ValueError:
        raise ConfigError(f"expected {expected}, got {raw!r}", key=key) from None
    except ConfigError as exc:  # a schedule's own check
        raise ConfigError(str(exc), key=key) from None


def _regime(values: dict, prefix: str) -> RegimeParams:
    """The coefficients whose keys start with `prefix`; a refusal's key gets the prefix."""
    try:
        return RegimeParams(**{name: values[prefix + name] for name in _REGIME_KEYS if prefix + name in values})
    except ConfigError as exc:
        raise ConfigError(str(exc), key=prefix + exc.key) from None


def _sim_config(model: str, values: dict) -> tuple[SimConfig, list[int]]:
    """The config and its emit days from each key's read value; each refusal is a `ConfigError` naming its key."""
    law = values.get("s0_law", "lognormal")
    if law not in _LAWS:
        raise ConfigError(f"unknown law {law!r}", key="s0_law")
    make_law, law_keys = _LAWS[law]
    for key in ("n_users", "horizon_days", *law_keys):
        if key not in values:
            raise ConfigError(f"required for s0_law = {law}" if key in law_keys else "required", key=key)
    s0_law = make_law(*(values[key] for key in law_keys))
    prefixes = ("poor_", "wealthy_") if model == "two_regime" else ("",)
    regimes = {side: _regime(values, prefix) for side, prefix in zip(("poor", "wealthy"), prefixes)}
    horizon = values["horizon_days"]
    fields = {key: values[key] for key in ("step_days", "seed", "s_star", "regime_mode") if key in values}
    if model == "gbm":  # exact steps compose, so one step over the horizon is the gbm default
        fields = {"step_days": horizon, "scheme": SCHEME_EXACT, **fields}
    t0 = values.get("t0_date", DEFAULT_T0)
    sim = SimConfig(n_users=values["n_users"], s0_law=s0_law, horizon_days=horizon, t0=t0, **regimes, **fields)
    return sim, _emit_days(sim, values.get("emit_days", [0, horizon]))


def parse_sim_config(path) -> tuple[SimConfig, list[int]]:
    """Parse the flat key = value config file for the simulate command into its config and emit days.

    Each key is read as `_KINDS` says, and `SimConfig` checks the values. A refusal names the file,
    and the key (regime prefix included) with its line, if there is one.
    """
    entries = {}  # key: (line, raw value)
    # each byte that is not UTF-8 text is read as one of U+DC80..U+DCFF, which UTF-8 text never decodes to
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if any("\udc80" <= char <= "\udcff" for char in line):
                raise ConfigError(f"{path}:{lineno}: not UTF-8 text")
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            key, eq, raw = body.partition("=")
            key = key.strip()
            if not eq:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            if key in entries:
                raise ConfigError(f"{path}:{lineno}: config key {key!r}: given twice", key=key)
            entries[key] = (lineno, raw.strip())

    try:
        model = entries.get("model", (None, "two_regime"))[1]
        if model not in _MODEL_KEYS:
            raise ConfigError(f"unknown model {model!r}", key="model")
        values = {}
        for key, (_, raw) in entries.items():
            if key not in _COMMON_KEYS | _MODEL_KEYS[model]:
                raise ConfigError(f"unknown for model {model!r}", key=key)
            values[key] = _read(key, raw, model)
        return _sim_config(model, values)
    except ConfigError as exc:
        where = f"{path}:{entries[exc.key][0]}" if exc.key in entries else path
        raise ConfigError(f"{where}: config key {exc.key!r}: {exc}", key=exc.key) from None
