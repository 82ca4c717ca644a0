"""Work-count guard: a small ingest does batch-sized work, not graph-sized.

One 25-row ``ingest table Knows`` on the ``ingest_read_mix`` schema
(``benchmarks/perf``) refreshes the ``knows`` view, both CSR directions
and the catalog's degree statistics.  The guard counts NumPy calls made
from ``repro`` — no timing — and asserts that

* no ``np.insert`` runs (every sorted merge goes through
  :func:`~repro.storage.indexes.sorted_insert`);
* no ``cumsum`` / ``diff`` / ``bincount`` from ``repro.graph`` or
  ``repro.catalog`` reads (or, for ``bincount``, writes) an array as
  long as the vertex count;
* the same calls happen with 20k and with 200k edges already loaded.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from repro import Database

PERF_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "benchmarks",
    "perf",
)
GRAPH_SIZED = ("cumsum", "diff", "bincount")
COUNTED = ("insert", *GRAPH_SIZED, "concatenate", "repeat", "searchsorted",
           "argsort", "lexsort", "flatnonzero")
VIEW_PACKAGES = ("repro.graph", "repro.catalog")


@pytest.fixture(scope="module")
def wk():
    sys.path.insert(0, PERF_DIR)
    try:
        import workloads
    finally:
        sys.path.remove(PERF_DIR)
    return workloads


@contextmanager
def numpy_calls():
    """``(function, calling module, length of the first argument)`` of
    every call into the counted NumPy functions from ``repro``."""
    calls: Counter = Counter()

    def wrap(name, fn):
        def counted(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.startswith("repro"):
                first = args[0] if args else None
                size = len(first) if isinstance(first, np.ndarray) and first.ndim else 0
                # bincount's output is minlength long whatever its input
                size = max(size, kwargs.get("minlength", 0))
                calls[(name, caller, size)] += 1
            return fn(*args, **kwargs)

        return counted

    saved = {name: getattr(np, name) for name in COUNTED}
    try:
        for name, fn in saved.items():
            setattr(np, name, wrap(name, fn))
        yield calls
    finally:
        for name, fn in saved.items():
            setattr(np, name, fn)


def one_ingest(wk, tmp_path, num_edges: int) -> Counter:
    """Load the schema with *num_edges* edges, then count the calls of
    one 25-row ingest through the statement path."""
    rng = np.random.default_rng(29)
    n = wk.INGEST_PEOPLE
    db = Database()
    db.execute(wk.INGEST_DDL)
    db.ingest_rows("People", [(i, f"city{i % wk.INGEST_CITIES}", 20 + i % 60) for i in range(n)])
    src, dst = rng.integers(n, size=(2, num_edges + wk.INGEST_BATCH_ROWS)).tolist()
    db.ingest_rows("Knows", list(zip(src[:num_edges], dst[:num_edges])))
    db.execute(wk.INGEST_INDEX)
    path = tmp_path / f"batch{num_edges}.csv"
    path.write_text("".join(f"{s},{d}\n" for s, d in zip(src[num_edges:], dst[num_edges:])))
    with numpy_calls() as calls:
        (result,) = db.execute(f"ingest table Knows '{path}'")
    assert result.count == wk.INGEST_BATCH_ROWS
    assert db.catalog.edge("knows").num_edges == num_edges + wk.INGEST_BATCH_ROWS
    return calls


def test_a_small_ingest_does_no_graph_sized_work(wk, tmp_path):
    small = one_ingest(wk, tmp_path, 20_000)
    inserts = {k: v for k, v in small.items() if k[0] == "insert"}
    assert inserts == {}
    graph_sized = {
        k: v for k, v in small.items()
        if k[0] in GRAPH_SIZED and k[1].startswith(VIEW_PACKAGES) and k[2] >= wk.INGEST_PEOPLE
    }
    assert graph_sized == {}
    # the same calls on a graph ten times denser
    large = one_ingest(wk, tmp_path, 200_000)
    assert by_function(large) == by_function(small)


def by_function(calls: Counter) -> Counter:
    out: Counter = Counter()
    for (name, caller, _size), count in calls.items():
        out[(name, caller)] += count
    return out
