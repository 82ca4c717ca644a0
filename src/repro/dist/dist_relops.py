"""Distributed relational operators: partial aggregate + hash shuffle.

The Table I subset on the simulated cluster uses the textbook two-phase
plan: every worker aggregates its row slice locally, the partial results
are shuffled by group-key hash (accounted messages), and each worker
merges the partials it owns.  ``count``/``sum`` merge by addition,
``min``/``max`` by the corresponding reduction, and ``avg`` merges as
(sum, count) pairs — the classic decomposable-aggregate treatment.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.dist.comm import Communicator
from repro.storage import relops
from repro.storage.relops import AggSpec
from repro.storage.table import Table


def _row_slices(num_rows: int, num_workers: int) -> list[np.ndarray]:
    """Round-robin row partition (keeps slices balanced for any skew)."""
    rows = np.arange(num_rows, dtype=np.int64)
    return [rows[w::num_workers] for w in range(num_workers)]


def dist_group_by_aggregate(
    table: Table,
    group_cols: Sequence[str],
    aggs: Sequence[AggSpec],
    comm: Communicator,
    result_name: str = "result",
) -> Table:
    """Two-phase distributed group-by over *comm.num_workers* workers."""
    n = comm.num_workers
    slices = _row_slices(table.num_rows, n)
    # phase 1: local partial aggregation
    partial_specs = relops.partial_aggregates(aggs)
    partial_tables = [
        relops.group_by_aggregate(table.take(s), list(group_cols), partial_specs)
        for s in slices
    ]
    # phase 2: shuffle partials by group-key hash.  Key codes must be
    # consistent across workers, so factorize over the concatenation and
    # split back per worker (a real system hashes the key values directly;
    # the routing outcome is identical).
    outboxes: list[list[object]] = [[None] * n for _ in range(n)]
    non_empty = [(w, pt) for w, pt in enumerate(partial_tables) if pt.num_rows]
    if non_empty:
        combined = relops.union_all([pt for _, pt in non_empty])
        codes = relops.factorize(combined, list(group_cols))
        dest_all = codes % n if group_cols else np.zeros(len(codes), dtype=np.int64)
        offset = 0
        for w, pt in non_empty:
            dest = dest_all[offset : offset + pt.num_rows]
            offset += pt.num_rows
            for d in range(n):
                rows = np.flatnonzero(dest == d)
                if len(rows):
                    outboxes[w][d] = pt.take(rows)
    inboxes = comm.alltoall(
        [
            [
                tuple(c.data for c in p.columns) if isinstance(p, Table) else None
                for p in row
            ]
            for row in outboxes
        ]
    )
    # phase 3: merge per destination worker
    merged_parts: list[Table] = []
    for d in range(n):
        shards = [
            outboxes[w][d]
            for w in range(n)
            if isinstance(outboxes[w][d], Table)
        ]
        _ = inboxes  # routing already accounted
        if not shards:
            continue
        merged_parts.append(
            relops.merge_aggregates(relops.union_all(shards), list(group_cols), aggs)
        )
    if not merged_parts:
        # empty input: fall back to the single-node result (count() rows)
        return relops.group_by_aggregate(table, list(group_cols), list(aggs), result_name)
    return relops.union_all(merged_parts, result_name)


def dist_filter_count(table: Table, condition, comm: Communicator) -> int:
    """Distributed selection cardinality (scan slices + gather counts)."""
    n = comm.num_workers
    counts = []
    for s in _row_slices(table.num_rows, n):
        shard = table.take(s)
        counts.append(np.int64(relops.filter_table(shard, condition).num_rows))
    comm.gather([np.asarray([c]) for c in counts])
    return int(sum(counts))
