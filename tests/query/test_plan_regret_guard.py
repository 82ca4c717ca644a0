"""Plan regret, as an exact count: for every catalog query the planned
sweep scans at most 1.1x the edges of its better forced direction.

Paper §III-B makes each path's traversal direction a planning choice
made from data statistics.  The planner costs an ``and`` of atoms as a
join in executor order — a label an earlier atom binds caps the steps
that re-match it — and charges every edge frontier it expands, so the
``and``-composed queries (``berlin_q1``, ``bi_price``,
``bi_valid_offers``) sweep from their bound labels instead of fanning
out from a whole vertex type.  Edges scanned is the profile's exact
counter, so the gate does not drift with the machine the way timings
do.  Parameters are the ``inproc_analytic`` benchmark's values over
each query's own generator.
"""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from repro.obs import QueryOptions
from repro.workloads.berlin import COUNTRIES, QUERIES, berlin_database, generate_berlin

#: planned edges scanned may exceed the better forced direction by this
MAX_REGRET = 1.1

VALUES = {
    "Country1": COUNTRIES[0],
    "Country2": COUNTRIES[1],
    "Threshold": 1500,
    "Type1": "type2",
    "Day": dt.date(2010, 6, 1),
    "MinProp": 500,
}


def _edges_scanned(db, source, params, direction=None) -> int:
    results = db.execute(source, params, options=QueryOptions(direction=direction))
    return sum(r.profile.edges_scanned for r in results if r.profile is not None)


def _assert_no_regret(scale: int) -> None:
    db = berlin_database(scale=scale, seed=7)
    data = generate_berlin(scale, seed=7)
    report = []
    for name, spec in QUERIES.items():
        values = {**spec.params(np.random.default_rng(3), data), **VALUES}
        params = {k: v for k, v in values.items() if f"%{k}%" in spec.graql}
        planned = _edges_scanned(db, spec.graql, params)
        best = min(
            _edges_scanned(db, spec.graql, params, "forward"),
            _edges_scanned(db, spec.graql, params, "backward"),
        )
        if planned > MAX_REGRET * best:
            report.append(f"{name}: planned {planned} edges, best forced {best}")
    assert not report, f"Berlin {scale}: " + "; ".join(report)


def test_plan_regret_berlin_2k():
    _assert_no_regret(2000)


@pytest.mark.slow
def test_plan_regret_berlin_10k():
    _assert_no_regret(10_000)
