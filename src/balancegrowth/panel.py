"""Balance snapshots, transition panels, and scatter diagnostics.

A snapshot is a dated set of per-user balances in satoshi (1 bitcoin =
10^8 satoshi). Two snapshots joined over a horizon form a transition
panel of (s0, s1) rows, with ds = s1 - s0, which every downstream
estimator consumes.
"""

import datetime as dt
import math
import os
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from ._rng import substream
from .errors import HorizonError, InsufficientDataError, MalformedInputError

GROUP_ACTIVE = b"A"
GROUP_INACTIVE = b"B"
GROUP_NONE = b""
# ids checked at once, so the scratch memory of a check stays bounded
_ROWS_PER_BLOCK = 1 << 16
# rows per block of the Hopkins nearest-neighbour search, and queries whose block bounds are held at once
_NN_BLOCK = 512
_NN_QUERIES = 256


def _whole_int64(b) -> bool:
    """True when `b` equals an integer in the int64 range and is not a bool: a whole satoshi balance or day count."""
    try:
        i = int(b)
    except (TypeError, ValueError, OverflowError):
        return False
    return i == b and -(2**63) <= i < 2**63 and not isinstance(b, (bool, np.bool_))


def _word(ids: np.ndarray, offset: int = 0) -> np.ndarray:
    """Bytes `offset` to `offset + 8` of each UTF-8 id (`S`) as one big-endian `uint64`, NUL past the id's end.

    Among ids that agree on their first `offset` bytes, a smaller word
    means a smaller id, since the word orders as its bytes do.
    """
    ids = np.ascontiguousarray(ids)
    width = ids.dtype.itemsize
    if ids.size and width - offset >= 8:  # read in place, one unaligned big-endian word per id
        return np.ndarray((ids.size,), dtype=">u8", buffer=ids, offset=offset, strides=(width,)).astype(np.uint64)
    head = np.zeros((ids.size, 8), dtype=np.uint8)
    size = min(max(width - offset, 0), 8)
    head[:, :size] = ids.view(np.uint8).reshape(ids.size, width)[:, offset : offset + size]
    return head.view(">u8").ravel().astype(np.uint64)


def _id_order(ids: np.ndarray, key: np.ndarray | None = None) -> np.ndarray:
    """`np.argsort(ids, kind="stable")` of UTF-8 ids (`S`), the one sort of snapshot ids; `key` is
    `_word(ids)` when the caller has it.

    Ids sort on a narrower key first: the top bits of their first `_word`,
    packed above each row's index into one `uint64` that is sorted by
    value, so rows that tie on those bits stay in input order. Only runs
    of ids that tie on them are then sorted as whole strings.
    """
    if ids.size < 2:
        return np.argsort(ids, kind="stable")
    key = _word(ids) if key is None else key
    shift = np.uint64((ids.size - 1).bit_length())  # bits of a row index
    packed = key >> shift << shift
    packed |= np.arange(ids.size, dtype=np.uint64)
    packed.sort()
    order = (packed & ((np.uint64(1) << shift) - np.uint64(1))).astype(np.intp)
    packed >>= shift
    tie = packed[1:] == packed[:-1]
    del packed
    if tie.any():
        run = np.zeros(ids.size, dtype=bool)
        run[1:] = tie
        run[:-1] |= tie
        members = np.sort(order[run])  # in input order, so the sort below is stable over the whole array
        order[run] = members[np.argsort(ids[members], kind="stable")]
    return order


def _balance_column(values) -> np.ndarray:
    """`values` as an array; a list or tuple holding a bool becomes an object array, which the constructors
    refuse, where numpy would cast a bool among numbers to 0 or 1."""
    if isinstance(values, (list, tuple)) and any(isinstance(v, (bool, np.bool_)) for v in values):
        return np.asarray(values, dtype=object)
    return np.asarray(values)


def _id_text(user_id: bytes) -> str:
    """One id as text for a message."""
    return repr(user_id.decode("utf-8", "backslashreplace"))


def _check_rows(ids: np.ndarray, *balances: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Refuse misaligned columns, then the first row with a negative or non-finite balance, then the
    first whose id an earlier row holds (as `row`). Returns `_id_order(ids)` and the ids in that
    order, or None when the ids are strictly increasing, as in every written file."""
    if any(b.shape != ids.shape for b in balances):
        raise MalformedInputError("user_ids and balances must be 1-d and aligned")
    bad = np.flatnonzero(np.logical_or.reduce([~((b >= 0) & (b < np.inf)) for b in balances]))  # NaN fails too
    if bad.size:
        i = int(bad[0])
        row = [b[i] for b in balances]
        odd = [v for v in row if not np.isfinite(v)]
        raise MalformedInputError(f"balance {odd[0]} is not finite" if odd else f"negative balance {min(row)}", row=i)
    # ids rise strictly where their first words do, and elsewhere only where ids tied on it do
    key = _word(ids)
    step = np.flatnonzero(key[1:] <= key[:-1])
    if not step.size or np.all(key[step + 1] == key[step]) and np.all(ids[step + 1] > ids[step]):
        return None
    order = _id_order(ids, key)
    key = key[order]
    tied = np.flatnonzero(key[1:] == key[:-1])  # only ids that tie on their first word can be equal
    del key
    sorted_ids = ids[order]
    # the sort is stable: each run's first id is left out
    repeats = order[tied[sorted_ids[tied + 1] == sorted_ids[tied]] + 1]
    if repeats.size:
        i = int(repeats.min())
        raise MalformedInputError(f"duplicate user_id {_id_text(ids[i])}", row=i)
    return order, sorted_ids


def _encode_utf8(text: np.ndarray) -> np.ndarray:
    """A `U` array as UTF-8 byte strings (`S`) of the same shape, one block of rows at a time.

    An ASCII block is narrowed code by code, from `uint32` to `uint8`;
    any other block is encoded str by str, which is faster than
    `np.strings.encode`.
    """
    flat = np.ascontiguousarray(text).reshape(-1)
    width = flat.dtype.itemsize // 4
    codes = flat.view(np.uint32).reshape(flat.size, width)
    parts = [np.empty(0, dtype="S1")]
    for start in range(0, flat.size, _ROWS_PER_BLOCK):
        block = slice(start, start + _ROWS_PER_BLOCK)
        if codes[block].max() < 0x80:
            parts.append(codes[block].astype(np.uint8).view(f"S{width}").ravel())
        else:
            parts.append(np.array([u.encode("utf-8") for u in flat[block].tolist()], dtype=bytes))
    return (parts[-1] if len(parts) == 2 else np.concatenate(parts)).reshape(text.shape)


def _utf8_ids(ids) -> np.ndarray:
    """User ids as a 1-d array of UTF-8 byte strings (`S`), the one form ids take.

    Text (a `U` array or a sequence of str) is encoded into a new array;
    a contiguous `S` array is returned as it is. An id that is not UTF-8
    or that holds NUL is refused: `S` drops trailing NULs, so `"a\\0"`
    would merge with `"a"`. A sequence is checked for NUL before it
    becomes an array, an array on its bytes, one block of rows at a time.
    """
    if isinstance(ids, np.ndarray) and ids.dtype.kind == "U":
        ids = _encode_utf8(ids)
    if not isinstance(ids, np.ndarray):
        ids = [u.encode("utf-8") if isinstance(u, str) else u for u in ids]
        if not all(isinstance(u, bytes) for u in ids):
            raise MalformedInputError("user ids must be a 1-d array of text")
        if b"\0" in b"".join(ids):
            nul = next(u for u in ids if b"\0" in u)
            raise MalformedInputError(f"user id {_id_text(nul)} holds NUL")
        ids = np.array(ids, dtype=bytes)
    if ids.dtype.kind != "S" or ids.ndim != 1:
        raise MalformedInputError("user ids must be a 1-d array of text")
    ids = np.ascontiguousarray(ids)
    width = ids.dtype.itemsize
    for start in range(0, ids.size, _ROWS_PER_BLOCK):
        block = ids[start : start + _ROWS_PER_BLOCK]
        codes = block.view(np.uint8).reshape(block.size, width)
        # an id's length ends at its last byte that is not NUL, so an id holding NUL has fewer such bytes
        if np.count_nonzero(codes) != np.strings.str_len(block).sum():
            nul = np.argmax(np.count_nonzero(codes, axis=1) != np.strings.str_len(block))
            raise MalformedInputError(f"user id {_id_text(block[nul])} holds NUL")
        if codes.max(initial=0) >= 0x80:
            ended = np.zeros((block.size, width + 1), dtype=np.uint8)  # so no sequence runs into the next id
            ended[:, :width] = codes
            try:
                ended.tobytes().decode("utf-8")
            except UnicodeDecodeError as exc:
                bad = block[exc.start // (width + 1)]
                raise MalformedInputError(f"user ids are not UTF-8 text: {_id_text(bad)}") from None
    return ids


class _Checked:
    """A frozen dataclass's private constructor for columns the library has already checked."""

    @classmethod
    def _checked(cls, *values):
        """An instance from field values that already pass `__post_init__`'s checks, which are not run
        again: ids from a checked snapshot or panel or made by the simulator, and balances taken with them."""
        obj = object.__new__(cls)
        for f, value in zip(fields(cls), values, strict=True):
            object.__setattr__(obj, f.name, value)
        return obj


@dataclass(frozen=True)
class BalanceSnapshot(_Checked):
    """Per-user balances at one date, sorted by user id.

    Balances are non-negative integer satoshi; a balance held as a float
    or a Python object must be a finite whole number below 2^63. User
    ids are opaque, unique within the snapshot, and stored as UTF-8 byte
    strings (`S`) sorted as bytes, which is code-point order. Text ids
    are encoded once; an id holding NUL is refused. A read-only `S` array
    that owns its memory is stored as given, so snapshots can share it;
    any other `S` array is copied, so a snapshot never aliases an array
    the caller can write through.
    """

    date: dt.date
    user_ids: np.ndarray
    balances: np.ndarray

    def __post_init__(self):
        given = self.user_ids
        ids = _utf8_ids(given)
        bal = _balance_column(self.balances)
        bad = []
        if bal.dtype.kind == "O":
            bad = [b for b in bal.ravel().tolist() if not _whole_int64(b)]
            if not bad:
                bal = np.array([int(b) for b in bal.ravel().tolist()], dtype=np.int64).reshape(bal.shape)
        elif bal.dtype.kind == "f":
            bad = bal[~((np.abs(bal) < 2.0**63) & (bal == np.floor(bal)))]
        elif bal.dtype.kind == "u":
            bad = bal[bal >= 2**63]
        elif bal.dtype.kind != "i":  # text (parsed by the CSV reader, not here), bool, complex, dates
            bad = [repr(b) for b in bal.ravel()[:1].tolist()]  # every such balance is bad; name the first
        if len(bad):
            raise MalformedInputError(f"balance {bad[0]} is not a finite whole number of satoshi")
        bal = bal.astype(np.int64, copy=False)
        ordered = _check_rows(ids, bal)
        if ordered is None:
            # never alias an array the caller can write through; a read-only array that owns its memory is shared
            if ids is given and (ids.flags.writeable or ids.base is not None):
                ids = ids.copy()
            bal = bal.copy()
        else:
            order, ids = ordered
            bal = bal[order]
        object.__setattr__(self, "user_ids", ids)
        object.__setattr__(self, "balances", bal)

    @classmethod
    def from_records(cls, date: dt.date, records) -> "BalanceSnapshot":
        """Build from an iterable of (user_id, balance) pairs; str and bytes ids are kept as given, other ids
        become `str(id)`."""
        pairs = list(records)
        return cls(date, [u if isinstance(u, (str, bytes)) else str(u) for u, _ in pairs], [b for _, b in pairs])

    @property
    def n_users(self) -> int:
        return int(self.user_ids.size)


@dataclass(frozen=True)
class TransitionPanel(_Checked):
    """Joined snapshot pair: one row per user with (s0, s1) over the horizon.

    User ids are UTF-8 byte strings (`S`), as in `BalanceSnapshot`; text
    ids are encoded once. Ids are unique and balances finite and
    non-negative, as in a snapshot, but rows keep their order.
    `ds = s1 - s0` and the activity `group` are derived from s0 and s1 on
    first use, so they always agree.
    Group labels are `S1` bytes: b'A' for s0 > 0 and ds != 0 (traded), b'B' for
    s0 > 0 and ds == 0 (held), b'' for rows entering at s0 = 0. `dt_days` is
    None for panels loaded from CSV, where the horizon is not part of the format.
    """

    t0: dt.date | None
    dt_days: int | None
    user_ids: np.ndarray
    s0: np.ndarray
    s1: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.dt_days is not None and not (_whole_int64(self.dt_days) and self.dt_days > 0):
            raise HorizonError(f"dt_days must be a positive whole number of days, got {self.dt_days}")
        object.__setattr__(self, "user_ids", _utf8_ids(self.user_ids))
        for name in ("s0", "s1"):
            column = _balance_column(getattr(self, name))
            if column.dtype.kind not in "if":  # unsigned ds would wrap below zero
                raise MalformedInputError(f"{name} has dtype {column.dtype}; balances must be integers or floats")
            object.__setattr__(self, name, column)
        _check_rows(self.user_ids, self.s0, self.s1)

    @cached_property
    def ds(self) -> np.ndarray:
        return self.s1 - self.s0

    @cached_property
    def group(self) -> np.ndarray:
        return assign_groups(self.s0, self.ds)

    @property
    def n_rows(self) -> int:
        return int(self.user_ids.size)

    def take(self, mask: np.ndarray, meta: dict | None = None) -> "TransitionPanel":
        """Row subset with the same horizon metadata."""
        return TransitionPanel._checked(
            self.t0, self.dt_days, self.user_ids[mask], self.s0[mask], self.s1[mask], dict(meta or {})
        )


@dataclass(frozen=True)
class ScatterTaxonomy:
    """Counts of the structural lines in the (s0, ds) scatter.

    The four counts partition the panel: vertical (entered from 0,
    s0 == 0 with ds > 0), horizontal (ds == 0), diagonal (full sell-out,
    s1 == 0 with ds < 0), interior (everything else).
    """

    vertical: int
    horizontal: int
    diagonal: int
    interior: int

    @property
    def total(self) -> int:
        return self.vertical + self.horizontal + self.diagonal + self.interior

    def to_dict(self) -> dict:
        return {**vars(self), "total": self.total, "unit": "satoshi"}


@dataclass(frozen=True)
class HopkinsResult:
    """Clustering-tendency statistic and its p-value under the uniform null."""

    statistic: float
    p_value: float
    m: int
    n_points: int


def assign_groups(s0: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """Activity labels from the panel invariants."""
    return np.where(s0 > 0, np.where(ds != 0, GROUP_ACTIVE, GROUP_INACTIVE), GROUP_NONE)


def _place(ids0: np.ndarray, ids1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.searchsorted(ids0, ids1)` for two sorted id arrays of one width, and whether each later
    id is new, that is, not among the earlier ids.

    Every id lies between the smallest and the largest of the four end
    ids, so it starts with their common prefix. A later id is placed by
    its first `_word` after that prefix, when no two earlier ids share
    one; else by the ids themselves. Each later id is compared in full
    with the earlier id at its place. One that shares its word with that
    id but is not it is placed by one string compare: after that id when
    it is the larger.
    """
    if not (ids0.size and ids1.size):
        return np.zeros(ids1.size, dtype=np.intp), np.ones(ids1.size, dtype=bool)
    offset = len(os.path.commonprefix([ids0[0], ids0[-1], ids1[0], ids1[-1]]))
    key0 = _word(ids0, offset)
    if np.any(key0[1:] == key0[:-1]):
        at, tied = np.searchsorted(ids0, ids1), False
    else:
        key1 = _word(ids1, offset)
        at = np.searchsorted(key0, key1)
        tied = key0[np.minimum(at, ids0.size - 1)] == key1  # the word of the earlier id at its place
        del key1
    del key0  # the words go before the ids at each place are gathered
    held = ids0[np.minimum(at, ids0.size - 1)]
    new = held != ids1
    late = np.flatnonzero(new & tied)
    at[late] += ids1[late] > held[late]
    return at, new


def build_panel(snap0: BalanceSnapshot, snap1: BalanceSnapshot) -> TransitionPanel:
    """Join two snapshots into a transition panel.

    One row per user appearing in either snapshot; absentees carry
    balance 0 on the side they are missing from. Both id arrays are
    sorted, so the join places each later id among the earlier ids by
    binary search.
    """
    if snap1.date <= snap0.date:
        if snap1.date == snap0.date:
            raise HorizonError(f"snapshots share the date {snap0.date}; horizon is zero")
        raise HorizonError(f"second snapshot ({snap1.date}) predates the first ({snap0.date})")
    dt_days = (snap1.date - snap0.date).days
    if snap0.user_ids is snap1.user_ids:
        # the same users on both dates: no merge. Snapshots share only a read-only id array (see
        # `BalanceSnapshot`), so the panel shares it too; the writeable balances are copied.
        s0, s1 = snap0.balances.copy(), snap1.balances.copy()
        return TransitionPanel._checked(snap0.date, dt_days, snap0.user_ids, s0, s1, {})
    # one width for both, since `np.insert` would cut a later id to the earlier array's width
    width = max(snap0.user_ids.itemsize, snap1.user_ids.itemsize)
    ids0, ids1 = (snap.user_ids.astype(f"S{width}", copy=False) for snap in (snap0, snap1))
    at, new = _place(ids0, ids1)
    ids = np.insert(ids0, at[new], ids1[new])
    s0 = np.insert(snap0.balances, at[new], 0)
    s1 = np.zeros(ids.size, dtype=np.int64)
    at += np.cumsum(new)  # each later id moves up by the new ids before it
    at -= new
    s1[at] = snap1.balances
    return TransitionPanel._checked(snap0.date, dt_days, ids, s0, s1, {})


def filter_active(panel: TransitionPanel) -> TransitionPanel:
    """Keep only group-A rows (positive start, nonzero change).

    Removed-row counts land in the result's meta: 'removed_horizontal'
    for held balances (group B) and 'removed_zero_start' for rows that
    entered at s0 = 0.
    """
    zero_start = panel.s0 <= 0
    keep = panel.ds != 0
    keep &= ~zero_start  # group A: s0 > 0 and ds != 0
    removed_total = panel.n_rows - int(np.count_nonzero(keep))
    removed_zero_start = int(np.count_nonzero(zero_start))
    meta = {
        "removed_horizontal": removed_total - removed_zero_start,
        "removed_zero_start": removed_zero_start,
        "removed_total": removed_total,
    }
    return panel.take(keep, meta=meta)


def taxonomy(panel: TransitionPanel) -> ScatterTaxonomy:
    """Partition panel rows into the scatter-line classes."""
    s0, s1, ds = panel.s0, panel.s1, panel.ds
    vertical = (ds > 0) & (s0 == 0)
    horizontal = ds == 0
    diagonal = (ds < 0) & (s1 == 0)
    n_vert = int(np.count_nonzero(vertical))
    n_horiz = int(np.count_nonzero(horizontal))
    n_diag = int(np.count_nonzero(diagonal))
    return ScatterTaxonomy(
        vertical=n_vert,
        horizontal=n_horiz,
        diagonal=n_diag,
        interior=panel.n_rows - n_vert - n_horiz - n_diag,
    )


def _stirlerr(n: int) -> float:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n), the error of Stirling's formula, within 1e-14 for an integer n >= 1."""
    if n <= 15:
        return math.lgamma(n + 1) - (n + 0.5) * math.log(n) + n - 0.5 * math.log(2 * math.pi)
    nn = n * n  # the Stirling series to its fifth term: within 2e-16 from n = 16 on
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - (1 / 1188) / nn) / nn) / nn) / nn) / n


def _bd0(x: int, mean: float, dev: float) -> float:
    """x log(x / mean) + mean - x, the deviance term of a binomial count x about its mean, where dev = x - mean.

    Near the mean it is a series in v = dev / (x + mean), built from dev itself, so the
    rounding of `mean` does not enter."""
    if abs(dev) < 0.1 * (x + mean):
        v = dev / (x + mean)
        s = dev * v
        term = 2 * x * v
        v *= v
        j = 3
        while True:
            term *= v
            nxt = s + term / j
            if nxt == s:
                return s
            s, j = nxt, j + 2
    return x * math.log(x / mean) - dev


def _binom_pmf(k: int, n: int, num: int, den: int) -> float:
    """P(Binomial(n, p) = k) for p = num / den strictly between 0 and 1, by Loader's saddle-point form."""
    if k == 0:
        return math.exp(n * math.log1p(-num / den))
    # n p, n (1 - p) and k - n p, each rounded once from the exact fraction
    mean, dev = n * num / den, (k * den - n * num) / den
    lc = _stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(k, mean, dev) - _bd0(n - k, n * (den - num) / den, -dev)
    return math.exp(lc - 0.5 * (math.log(2 * math.pi) + math.log(k) + math.log1p(-k / n)))


def hopkins_pvalue(h: float, m: int) -> float:
    """One-sided p-value of a Hopkins statistic toward clustering (large H): P(Beta(m, m) > h).

    That is P(Binomial(2m - 1, h) <= m - 1). The term at the mode of that
    range comes from Loader's (2000) saddle-point form, as in R's `dbinom`;
    the others follow by the ratio of neighbouring terms, outward until they
    no longer count. Within 1e-12 relative of the exact value."""
    if h <= 0.0:
        return 1.0
    if h >= 1.0:
        return 0.0
    m = int(m)  # the sums below need Python's exact integers, not int64
    n = 2 * m - 1
    num, den = float(h).as_integer_ratio()
    odds = num / (den - num)  # h / (1 - h), rounded once
    top = min(int(2 * m * h), m - 1)
    terms = [_binom_pmf(top, n, num, den)]
    term = terms[0]
    for k in range(top, 0, -1):  # P(k - 1) = P(k) k / ((n - k + 1) odds)
        term *= k / ((n - k + 1) * odds)
        if term <= terms[0] * 2.0**-64:
            break
        terms.append(term)
    term = terms[0]
    for k in range(top, m - 1):  # P(k + 1) = P(k) (n - k) odds / (k + 1)
        term *= (n - k) * odds / (k + 1)
        if term <= terms[0] * 2.0**-64:
            break
        terms.append(term)
    return math.fsum(terms)


class _BlockIndex:
    """Exact nearest-neighbour search over points packed into blocks of `_NN_BLOCK` rows.

    Points are sorted by the first coordinate and cut into blocks, and
    each block keeps its bounding box. A query scans whole blocks in
    order of the lower bound its box gives, and stops at the first bound
    not below its best. Squared distances are summed in coordinate order,
    as cKDTree sums them for up to 3 coordinates; a bound is summed in
    the same order, so rounding never lifts it above a distance in its
    block.
    """

    def __init__(self, pts: np.ndarray):
        n, d = pts.shape
        n_blocks = -(-n // _NN_BLOCK)
        order = np.argsort(pts[:, 0])
        packed = pts[order]
        starts = np.arange(0, n, _NN_BLOCK)
        self.lo = np.minimum.reduceat(packed, starts, axis=0)
        self.hi = np.maximum.reduceat(packed, starts, axis=0)
        # coordinate k of row r of block b at [k, b, r]; the last block is padded with inf, which is never nearest
        blocks = np.full((d, n_blocks * _NN_BLOCK), np.inf)
        blocks[:, :n] = packed.T
        self.blocks = blocks.reshape(d, n_blocks, _NN_BLOCK)
        self.position = np.empty(n, dtype=np.intp)
        self.position[order] = np.arange(n)

    def nearest_sq(self, queries: np.ndarray, skip: np.ndarray | None = None) -> np.ndarray:
        """Squared distance from each query to its nearest point; query i passes over point `skip[i]`."""
        d, n_blocks, _ = self.blocks.shape
        best = np.full(len(queries), np.inf)
        for start in range(0, len(queries), _NN_QUERIES):
            q = queries[start : start + _NN_QUERIES]
            bound = 0.0
            for k in range(d):
                qk = q[:, k, None]
                gap = np.maximum(np.maximum(self.lo[:, k] - qk, qk - self.hi[:, k]), 0.0)
                bound = bound + gap * gap
            visit = np.argsort(bound, axis=1)
            bound = np.take_along_axis(bound, visit, axis=1)
            own = None if skip is None else self.position[skip[start : start + len(q)]]
            near = best[start : start + len(q)]
            rows = np.arange(len(q))
            for step in range(n_blocks):
                rows = rows[bound[rows, step] < near[rows]]
                if not rows.size:
                    break
                block = visit[rows, step]
                dist = 0.0
                for k in range(d):
                    diff = self.blocks[k, block] - q[rows, k, None]
                    dist = dist + diff * diff
                if own is not None:
                    hit = np.flatnonzero(own[rows] // _NN_BLOCK == block)
                    dist[hit, own[rows[hit]] % _NN_BLOCK] = np.inf
                near[rows] = np.minimum(near[rows], dist.min(axis=1))
        return best


def hopkins_test(points, m: int, seed: int) -> HopkinsResult:
    """Hopkins clustering-tendency statistic in [0, 1], plus its p-value under the uniform-data null.

    m data points are sampled without replacement and m uniform probes
    are drawn in the axis-aligned bounding box of the data. Distances
    enter through their d-th power (d = dimension), so the statistic is
    exactly Beta(m, m)-distributed under the uniform null. Values near
    0.5 indicate spatial randomness, values near 1 indicate clustering.
    A sampled point's own row is passed over; a duplicate of it is at
    distance 0. Points on another scale, such as log balances, are
    transformed by the caller.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] < 1:
        raise MalformedInputError("points must be a 2-d array of coordinates")
    if not np.all(np.isfinite(pts)):
        raise MalformedInputError("points must be finite")
    n, d = pts.shape
    if m < 1:
        raise InsufficientDataError("m must be at least 1")
    if n < 2 * m:
        raise InsufficientDataError(f"need at least 2*m = {2 * m} points, got {n}")
    rng = substream(seed)
    sample_idx = rng.choice(n, size=m, replace=False)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    probes = rng.uniform(lo, hi, size=(m, d))
    index = _BlockIndex(pts)
    u_dist = np.sqrt(index.nearest_sq(probes))
    w_dist = np.sqrt(index.nearest_sq(pts[sample_idx], skip=sample_idx))
    u_sum = float(np.sum(u_dist**d))
    w_sum = float(np.sum(w_dist**d))
    denom = u_sum + w_sum
    h = 1.0 if denom == 0.0 else u_sum / denom
    return HopkinsResult(statistic=h, p_value=hopkins_pvalue(h, m), m=m, n_points=n)
