"""Work-count guard: key factorization sorts distinct values, not rows.

``group by``, ``distinct`` and ``order by`` factorize their keys with
:func:`repro.storage.relops.column_codes`, which hashes a varchar column
and sorts only its distinct values.  The guard counts, it does not time:
it wraps ``np.unique``, ``np.argsort``, ``np.lexsort`` and ``np.sort``
and, for every call made from ``repro.storage``, adds up the object
(varchar) elements passed and the distinct values among them.  Over the
five ``inproc_analytic`` benchmark scripts (``benchmarks/perf``) on
Berlin, the elements sorted per script must not exceed the distinct key
values — sorting every row of ``featureUse.feature`` (50k rows at the
benchmark's scale, 2,500 distinct) would.
"""

from __future__ import annotations

import os
import sys
from collections import Counter

import numpy as np
import pytest

from repro.workloads.berlin import berlin_database

PERF_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "benchmarks",
    "perf",
)
GUARDED = ("unique", "argsort", "lexsort", "sort")
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
def object_sort_work(monkeypatch):
    """``work["elements"]`` / ``work["distinct"]``: object elements that
    calls from ``repro.storage`` hand to the guarded functions, and the
    distinct values among them."""
    work: Counter = Counter()

    def wrap(name, fn):
        def counted(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.startswith("repro.storage") and args:
                keys = args[0] if name == "lexsort" else (args[0],)
                for key in keys:
                    if isinstance(key, np.ndarray) and key.dtype == np.dtype(object):
                        work["elements"] += len(key)
                        work["distinct"] += len(set(key.tolist()))
            return fn(*args, **kwargs)

        return counted

    for name in GUARDED:
        monkeypatch.setattr(np, name, wrap(name, getattr(np, name)))
    return work


def test_analytic_scripts_sort_only_distinct_keys(perf_workloads, object_sort_work):
    ops = perf_workloads.analytic_ops(seed=5)[: len(perf_workloads.ANALYTIC_QUERIES)]
    per_script = {}
    with berlin_database(scale=SCALE, seed=7) as db:
        for op in ops:
            object_sort_work.clear()
            results = db.execute(op.source, op.params)
            assert any(r.table is not None and r.table.num_rows for r in results)
            per_script[op.name] = dict(object_sort_work)
    # the varchar group keys are seen: the guard is not vacuous
    assert per_script["bi_features"]["distinct"] > 0
    assert per_script["bi_valid_offers"]["distinct"] > 0
    for name, work in per_script.items():
        assert work.get("elements", 0) <= work.get("distinct", 0), (name, work)
