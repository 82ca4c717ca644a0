"""Work-count guard: the query path makes no ``np.unique``-family calls.

Set operations on vid/eid arrays go through :mod:`repro.storage.idsets`
(sort-based kernels) instead of ``np.unique`` / ``np.union1d`` /
``np.intersect1d`` / ``np.setdiff1d``, whose hash path is several times
slower on int64 arrays.  The guard counts calls, not time: it wraps the
four NumPy functions and runs the statements the ``inproc_analytic`` and
``inproc_point`` benchmark workloads issue (``benchmarks/perf``) on
Berlin, single-node and on a simulated cluster.
"""

from __future__ import annotations

import os
import sys
from collections import Counter

import numpy as np
import pytest

from repro import Server
from repro.workloads.berlin import berlin_database

PERF_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "benchmarks",
    "perf",
)
GUARDED = ("unique", "union1d", "intersect1d", "setdiff1d")
QUERY_PACKAGES = ("repro.query", "repro.graph", "repro.dist")
SCALE = 300


@pytest.fixture(scope="module")
def perf_workloads():
    sys.path.insert(0, PERF_DIR)
    try:
        import workloads
    finally:
        sys.path.remove(PERF_DIR)
    return workloads


@pytest.fixture
def numpy_set_calls(monkeypatch):
    """Calls into the guarded NumPy functions, by calling module."""
    calls: Counter = Counter()

    def wrap(name, fn):
        def counted(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.startswith(QUERY_PACKAGES):
                calls[(caller, name)] += 1
            return fn(*args, **kwargs)

        return counted

    for name in GUARDED:
        monkeypatch.setattr(np, name, wrap(name, getattr(np, name)))
    return calls


def _statements(perf_workloads):
    ops = perf_workloads.analytic_ops(seed=5)[: len(perf_workloads.ANALYTIC_QUERIES)]
    ops += perf_workloads.point_ops(seed=3, scale=SCALE, cold=False)[
        : 2 * len(perf_workloads.POINT_QUERIES)
    ]
    return [(op.name, op.source, op.params) for op in ops]


def test_single_node_statements_make_no_numpy_set_calls(perf_workloads, numpy_set_calls):
    with berlin_database(scale=SCALE, seed=7) as db:
        rows = 0
        for _name, source, params in _statements(perf_workloads):
            results = db.execute(source, params)
            rows += sum(r.table.num_rows for r in results if r.table is not None)
    assert rows > 0
    assert dict(numpy_set_calls) == {}


def test_cluster_statements_make_no_numpy_set_calls(perf_workloads, numpy_set_calls):
    with berlin_database(scale=SCALE, seed=7) as bd:
        server = Server(backend=bd.db, workers=3)
        for name, source, params in _statements(perf_workloads):
            if name in perf_workloads.POINT_QUERIES:
                server.submit("admin", source, params)
    assert dict(numpy_set_calls) == {}
