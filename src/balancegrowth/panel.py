"""Balance snapshots, transition panels, and scatter diagnostics.

A snapshot is a dated set of per-user balances in satoshi (1 bitcoin =
10^8 satoshi). Two snapshots joined over a horizon form a transition
panel of (s0, s1) rows, with ds = s1 - s0, which every downstream
estimator consumes.
"""

import datetime as dt
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._rng import substream
from .errors import HorizonError, InsufficientDataError, MalformedInputError

GROUP_ACTIVE = "A"
GROUP_INACTIVE = "B"
GROUP_NONE = ""
# ids checked at once, so the scratch memory of a check stays bounded
_ROWS_PER_BLOCK = 1 << 16


def _whole_satoshi(b) -> bool:
    """True when `b` equals an integer in the int64 range."""
    try:
        i = int(b)
    except (TypeError, ValueError, OverflowError):
        return False
    return i == b and -(2**63) <= i < 2**63


def _id_order(ids: np.ndarray) -> np.ndarray:
    """`np.argsort(ids, kind="stable")` of UTF-8 ids (`S`), the one sort of snapshot ids.

    Ids sort on a narrower key first: their first 8 bytes as one
    big-endian integer, which orders as the bytes do. Only runs of ids
    that tie on it are then sorted as whole strings.
    """
    width = ids.dtype.itemsize
    if ids.size < 2:
        return np.argsort(ids, kind="stable")
    head = np.zeros((ids.size, 8), dtype=np.uint8)
    head[:, : min(width, 8)] = ids.view(np.uint8).reshape(ids.size, width)[:, :8]
    key = head.view(">u8").ravel().astype(np.uint64)
    del head
    order = np.argsort(key)  # keys that tie are resolved below, so stability is not needed here
    key = key[order]
    tie = key[1:] == key[:-1]
    if tie.any():
        run = np.zeros(ids.size, dtype=bool)
        run[1:] = tie
        run[:-1] |= tie
        members = np.sort(order[run])  # in input order, so the sort below is stable over the whole array
        order[run] = members[np.argsort(ids[members], kind="stable")]
    return order


def _id_text(user_id: bytes) -> str:
    """One id as text for a message."""
    return repr(user_id.decode("utf-8", "backslashreplace"))


def _check_rows(ids: np.ndarray, *balances: np.ndarray) -> np.ndarray | None:
    """Refuse misaligned columns, then the first row with a negative or non-finite balance, then the
    first whose id an earlier row holds (as `row`). Returns `_id_order(ids)`, or None when the ids
    are strictly increasing, as in every written file."""
    if any(b.shape != ids.shape for b in balances):
        raise MalformedInputError("user_ids and balances must be 1-d and aligned")
    bad = np.flatnonzero(np.logical_or.reduce([~((b >= 0) & (b < np.inf)) for b in balances]))  # NaN fails too
    if bad.size:
        i = int(bad[0])
        row = [b[i] for b in balances]
        odd = [v for v in row if not np.isfinite(v)]
        raise MalformedInputError(f"balance {odd[0]} is not finite" if odd else f"negative balance {min(row)}", row=i)
    if np.all(ids[1:] > ids[:-1]):
        return None
    order = _id_order(ids)
    sorted_ids = ids[order]
    repeats = order[1:][sorted_ids[1:] == sorted_ids[:-1]]  # the sort is stable: each run's first id is left out
    if repeats.size:
        i = int(repeats.min())
        raise MalformedInputError(f"duplicate user_id {_id_text(ids[i])}", row=i)
    return order


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
    codes = ids.view(np.uint8)
    for start in range(0, codes.size, _ROWS_PER_BLOCK * width):
        block = codes[start : start + _ROWS_PER_BLOCK * width]
        nul = (block[:-1] == 0) & (block[1:] != 0)
        nul[width - 1 :: width] = False  # a NUL before a byte of the same id, not of the next
        if nul.any():
            raise MalformedInputError(f"user id {_id_text(ids[(start + np.argmax(nul)) // width])} holds NUL")
        if block.max() >= 0x80:
            ended = np.zeros((block.size // width, width + 1), dtype=np.uint8)  # so no sequence runs into the next id
            ended[:, :width] = block.reshape(-1, width)
            try:
                ended.tobytes().decode("utf-8")
            except UnicodeDecodeError as exc:
                bad = ids[start // width + exc.start // (width + 1)]
                raise MalformedInputError(f"user ids are not UTF-8 text: {_id_text(bad)}") from None
    return ids


@dataclass(frozen=True)
class BalanceSnapshot:
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
        bal = np.asarray(self.balances)
        bad = []
        if bal.dtype.kind == "O":
            bad = [b for b in bal.ravel().tolist() if not _whole_satoshi(b)]
            if not bad:
                bal = np.array([int(b) for b in bal.ravel().tolist()], dtype=np.int64).reshape(bal.shape)
        elif bal.dtype.kind == "f":
            bad = bal[~((np.abs(bal) < 2.0**63) & (bal == np.floor(bal)))]
        elif bal.dtype.kind == "u":
            bad = bal[bal >= 2**63]
        elif bal.dtype.kind in "US":  # text is parsed by the CSV reader, not here
            bad = [repr(b) for b in bal.ravel()[:1].tolist()]  # every text balance is bad; name the first
        if len(bad):
            raise MalformedInputError(f"balance {bad[0]} is not a finite whole number of satoshi")
        bal = bal.astype(np.int64, copy=False)
        order = _check_rows(ids, bal)
        if order is None:
            # never alias an array the caller can write through; a read-only array that owns its memory is shared
            if ids is given and (ids.flags.writeable or ids.base is not None):
                ids = ids.copy()
            bal = bal.copy()
        else:
            ids, bal = ids[order], bal[order]
        object.__setattr__(self, "user_ids", ids)
        object.__setattr__(self, "balances", bal)

    @classmethod
    def from_records(cls, date: dt.date, records) -> "BalanceSnapshot":
        """Build from an iterable of (user_id, balance) pairs."""
        pairs = list(records)
        return cls(date, [str(u) for u, _ in pairs], [b for _, b in pairs])

    @property
    def n_users(self) -> int:
        return int(self.user_ids.size)


@dataclass(frozen=True)
class TransitionPanel:
    """Joined snapshot pair: one row per user with (s0, s1) over the horizon.

    User ids are UTF-8 byte strings (`S`), as in `BalanceSnapshot`; text
    ids are encoded once. Ids are unique and balances finite and
    non-negative, as in a snapshot, but rows keep their order.
    `ds = s1 - s0` and the activity `group` are derived from s0 and s1 on
    first use, so they always agree.
    Group labels: 'A' for s0 > 0 and ds != 0 (traded), 'B' for s0 > 0
    and ds == 0 (held), '' for rows entering at s0 = 0. `dt_days` is None
    for panels loaded from CSV, where the horizon is not part of the format.
    """

    t0: dt.date | None
    dt_days: int | None
    user_ids: np.ndarray
    s0: np.ndarray
    s1: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.dt_days is not None and self.dt_days <= 0:
            raise HorizonError(f"dt_days must be positive, got {self.dt_days}")
        object.__setattr__(self, "user_ids", _utf8_ids(self.user_ids))
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
        return TransitionPanel(
            self.t0, self.dt_days, self.user_ids[mask], self.s0[mask], self.s1[mask], dict(meta or {})
        )


@dataclass(frozen=True)
class ScatterTaxonomy:
    """Counts of the structural lines in the (s0, ds) scatter.

    The four counts partition the panel: vertical (entered from at most
    epsilon_v with ds > 0), horizontal (ds == 0), diagonal (full sell-out,
    s1 == 0 with ds < 0), interior (everything else).
    """

    vertical: int
    horizontal: int
    diagonal: int
    interior: int
    epsilon_v: float

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


def build_panel(snap0: BalanceSnapshot, snap1: BalanceSnapshot) -> TransitionPanel:
    """Join two snapshots into a transition panel.

    One row per user appearing in either snapshot; absentees carry
    balance 0 on the side they are missing from. The join is a sorted
    merge, so the result does not depend on how the user set might be
    partitioned for parallel construction.
    """
    if snap1.date <= snap0.date:
        if snap1.date == snap0.date:
            raise HorizonError(f"snapshots share the date {snap0.date}; horizon is zero")
        raise HorizonError(f"second snapshot ({snap1.date}) predates the first ({snap0.date})")
    # Both id arrays are sorted, so a stable sort of the two runs is one
    # merge; each input row then gets the integer code of its id. Sorting
    # in place rather than gathering by `order` keeps one copy of the ids.
    ids = np.concatenate([snap0.user_ids, snap1.user_ids])
    order = np.argsort(ids, kind="stable")
    ids.sort(kind="stable")
    first = np.ones(ids.size, dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    code = np.empty(ids.size, dtype=np.intp)
    code[order] = np.cumsum(first) - 1
    ids = ids[first]
    s0 = np.zeros(ids.size, dtype=np.int64)
    s1 = np.zeros(ids.size, dtype=np.int64)
    s0[code[: snap0.n_users]] = snap0.balances
    s1[code[snap0.n_users :]] = snap1.balances
    return TransitionPanel(t0=snap0.date, dt_days=(snap1.date - snap0.date).days, user_ids=ids, s0=s0, s1=s1)


def filter_active(panel: TransitionPanel) -> TransitionPanel:
    """Keep only group-A rows (positive start, nonzero change).

    Removed-row counts land in the result's meta: 'removed_horizontal'
    for held balances (group B) and 'removed_zero_start' for rows that
    entered at s0 = 0.
    """
    keep = panel.group == GROUP_ACTIVE
    zero_start = panel.s0 <= 0
    horizontal = (~zero_start) & (panel.ds == 0)
    meta = {
        "removed_horizontal": int(np.count_nonzero(horizontal)),
        "removed_zero_start": int(np.count_nonzero(zero_start)),
        "removed_total": int(np.count_nonzero(~keep)),
    }
    return panel.take(keep, meta=meta)


def taxonomy(panel: TransitionPanel, epsilon_v: float = 0) -> ScatterTaxonomy:
    """Partition panel rows into the scatter-line classes."""
    if epsilon_v < 0:
        raise ValueError("epsilon_v must be non-negative")
    s0, s1, ds = panel.s0, panel.s1, panel.ds
    vertical = (ds > 0) & (s0 <= epsilon_v)
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
        epsilon_v=float(epsilon_v),
    )


def hopkins_pvalue(h: float, m: int) -> float:
    """One-sided p-value of a Hopkins statistic toward clustering (large H)."""
    from scipy.special import betaincc  # loaded on first use: of the commands, only `panel --hopkins-m` needs it

    return float(betaincc(m, m, h))


def hopkins_test(points, m: int, seed: int, log_scale: bool = False) -> HopkinsResult:
    """Hopkins clustering-tendency statistic in [0, 1], plus its p-value under the uniform-data null.

    m data points are sampled without replacement and m uniform probes
    are drawn in the axis-aligned bounding box of the data. Distances
    enter through their d-th power (d = dimension), so the statistic is
    exactly Beta(m, m)-distributed under the uniform null. Values near
    0.5 indicate spatial randomness, values near 1 indicate clustering.

    `log_scale` applies sign(x)*log1p(|x|) per coordinate first, useful
    when raw satoshi scales span many decades.
    """
    # Imported here, not at module level: only `panel --hopkins-m` needs
    # scipy.spatial, and loading it would slow every CLI start-up.
    from scipy.spatial import cKDTree

    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] < 1:
        raise MalformedInputError("points must be a 2-d array of coordinates")
    if log_scale:
        pts = np.sign(pts) * np.log1p(np.abs(pts))
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
    tree = cKDTree(pts)
    u_dist, _ = tree.query(probes, k=1)
    # k=2: the sampled point matches itself at distance 0, keep the other.
    w_dist, _ = tree.query(pts[sample_idx], k=2)
    w_dist = w_dist[:, 1]
    u_sum = float(np.sum(u_dist**d))
    w_sum = float(np.sum(w_dist**d))
    denom = u_sum + w_sum
    h = 1.0 if denom == 0.0 else u_sum / denom
    return HopkinsResult(statistic=h, p_value=hopkins_pvalue(h, m), m=m, n_points=n)
