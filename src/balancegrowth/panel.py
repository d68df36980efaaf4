"""Balance snapshots, transition panels, and scatter diagnostics.

A snapshot is a dated set of per-user balances in satoshi (1 bitcoin =
10^8 satoshi). Two snapshots joined over a horizon form a transition
panel of (s0, s1, ds) rows, which every downstream estimator consumes.
"""

import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from ._rng import substream
from .errors import HorizonError, InsufficientDataError, MalformedInputError

GROUP_ACTIVE = "A"
GROUP_INACTIVE = "B"
GROUP_NONE = ""


def _whole_satoshi(b) -> bool:
    """True when `b` equals an integer in the int64 range."""
    try:
        i = int(b)
    except (TypeError, ValueError, OverflowError):
        return False
    return i == b and -(2**63) <= i < 2**63


@dataclass(frozen=True)
class BalanceSnapshot:
    """Per-user balances at one date, sorted by user id.

    Balances are non-negative integer satoshi; a balance held as a float
    or a Python object must be a finite whole number below 2^63. User
    ids are opaque strings, unique within the snapshot.
    """

    date: dt.date
    user_ids: np.ndarray
    balances: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.user_ids)
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
        if ids.shape != bal.shape or ids.ndim != 1:
            raise MalformedInputError("user_ids and balances must be 1-d and aligned")
        if ids.size:
            order = np.argsort(ids, kind="stable")
            ids = ids[order]
            bal = bal[order]
            if np.any(ids[1:] == ids[:-1]):
                dup = ids[1:][ids[1:] == ids[:-1]][0]
                raise MalformedInputError(f"duplicate user_id in snapshot: {dup!r}")
            if np.any(bal < 0):
                raise MalformedInputError("negative balance in snapshot")
        object.__setattr__(self, "user_ids", ids)
        object.__setattr__(self, "balances", bal)

    @classmethod
    def from_records(cls, date: dt.date, records) -> "BalanceSnapshot":
        """Build from an iterable of (user_id, balance) pairs."""
        pairs = list(records)
        ids = np.array([str(u) for u, _ in pairs])
        return cls(date, ids, [b for _, b in pairs])

    @property
    def n_users(self) -> int:
        return int(self.user_ids.size)


@dataclass(frozen=True)
class TransitionPanel:
    """Joined snapshot pair: one row per user with (s0, s1, ds) over the horizon.

    Group labels: 'A' for s0 > 0 and ds != 0 (traded), 'B' for s0 > 0 and
    ds == 0 (held), '' for rows entering at s0 = 0. `dt_days` is None for
    panels loaded from CSV, where the horizon is not part of the format.
    """

    t0: dt.date | None
    dt_days: int | None
    user_ids: np.ndarray
    s0: np.ndarray
    s1: np.ndarray
    ds: np.ndarray
    group: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.dt_days is not None and self.dt_days <= 0:
            raise HorizonError(f"dt_days must be positive, got {self.dt_days}")
        n = self.user_ids.size
        for name in ("s0", "s1", "ds", "group"):
            if getattr(self, name).shape != (n,):
                raise MalformedInputError(f"panel column {name} misaligned")
        if n and (np.any(self.s0 < 0) or np.any(self.s1 < 0)):
            raise MalformedInputError("panel balances must be non-negative")

    @property
    def n_rows(self) -> int:
        return int(self.user_ids.size)

    def take(self, mask: np.ndarray, meta: dict | None = None) -> "TransitionPanel":
        """Row subset with the same horizon metadata."""
        return TransitionPanel(
            t0=self.t0,
            dt_days=self.dt_days,
            user_ids=self.user_ids[mask],
            s0=self.s0[mask],
            s1=self.s1[mask],
            ds=self.ds[mask],
            group=self.group[mask],
            meta=dict(meta or {}),
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
    ds = s1 - s0
    return TransitionPanel(
        t0=snap0.date,
        dt_days=(snap1.date - snap0.date).days,
        user_ids=ids,
        s0=s0,
        s1=s1,
        ds=ds,
        group=assign_groups(s0, ds),
    )


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


def _prepare_points(points, log_scale: bool) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] < 1:
        raise MalformedInputError("points must be a 2-d array of coordinates")
    if log_scale:
        pts = np.sign(pts) * np.log1p(np.abs(pts))
    return pts


def hopkins(points, m: int, seed: int, log_scale: bool = False) -> float:
    """Hopkins clustering-tendency statistic in [0, 1].

    m data points are sampled without replacement and m uniform probes
    are drawn in the axis-aligned bounding box of the data. Distances
    enter through their d-th power (d = dimension), so the statistic is
    exactly Beta(m, m)-distributed under the uniform null. Values near
    0.5 indicate spatial randomness, values near 1 indicate clustering.

    `log_scale` applies sign(x)*log1p(|x|) per coordinate first, useful
    when raw satoshi scales span many decades.
    """
    return _hopkins(_prepare_points(points, log_scale), m, seed)


def _hopkins(pts: np.ndarray, m: int, seed: int) -> float:
    # Imported here, not at module level: only `panel --hopkins-m` needs
    # scipy.spatial, and loading it would slow every CLI start-up.
    from scipy.spatial import cKDTree

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
    if denom == 0.0:
        return 1.0
    return u_sum / denom


def hopkins_pvalue(h: float, m: int) -> float:
    """One-sided p-value of a Hopkins statistic toward clustering (large H)."""
    from scipy.special import betaincc  # loaded on first use: of the commands, only `panel --hopkins-m` needs it

    return float(betaincc(m, m, h))


def hopkins_test(points, m: int, seed: int, log_scale: bool = False) -> HopkinsResult:
    """Hopkins statistic plus its p-value under the uniform-data null."""
    pts = _prepare_points(points, log_scale)
    h = _hopkins(pts, m, seed)
    return HopkinsResult(statistic=h, p_value=hopkins_pvalue(h, m), m=m, n_points=pts.shape[0])
