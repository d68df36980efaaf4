import datetime as dt

import numpy as np
import pytest

from balancegrowth import BalanceSnapshot, TransitionPanel

D0 = dt.date(2016, 1, 23)
D28 = dt.date(2016, 2, 20)


def snapshot(date, records):
    return BalanceSnapshot.from_records(date, records)


def panel_from_rows(rows, t0=D0, dt_days=28):
    """Build a panel directly from (user_id, s0, s1) triples."""
    ids = np.array([r[0] for r in rows], dtype=str)
    s0 = np.array([r[1] for r in rows], dtype=np.float64)
    s1 = np.array([r[2] for r in rows], dtype=np.float64)
    order = np.argsort(ids)
    ids, s0, s1 = ids[order], s0[order], s1[order]
    return TransitionPanel(t0=t0, dt_days=dt_days, user_ids=ids, s0=s0, s1=s1)


@pytest.fixture
def rng():
    return np.random.default_rng(20160123)
