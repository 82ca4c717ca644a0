"""Hash partitioning of the attributed graph across workers.

    "These challenges include the difficulty of partitioning graphs
    across nodes on a cluster ..." (Section I)

The baseline GEMS answer is hash partitioning: vertex *v* of any type is
owned by worker ``v % n``.  Each edge type is sharded twice — once by
source owner (that worker serves forward expansions) and once by target
owner (reverse expansions) — which is exactly the distributed realization
of the bidirectional edge index of Section III-B.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkerFailed
from repro.graph.edge_index import EdgeIndex
from repro.graph.graphdb import GraphDB
from repro.storage import idsets


class Partitioner:
    """Maps vertex ids to owning workers (per type, hash by id)."""

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.num_workers = num_workers

    def owner_of(self, vids: np.ndarray) -> np.ndarray:
        """Owning worker of each vid (vectorized)."""
        return vids % self.num_workers

    def local_vids(self, worker: int, num_vertices: int) -> np.ndarray:
        """All vids of a type owned by *worker*."""
        return np.arange(worker, num_vertices, self.num_workers, dtype=np.int64)

    def split_by_owner(self, vids: np.ndarray) -> list[np.ndarray]:
        """Partition an id array into per-owner buckets (sorted, unique)."""
        owners = self.owner_of(vids)
        return [
            idsets.unique(vids[owners == w]) for w in range(self.num_workers)
        ]


class Placement:
    """k-replica placement of logical partitions onto physical workers.

    Partition *p* (the ``vid % n`` bucket) is primarily served by worker
    *p*; its shard is additionally replicated on the next ``k - 1``
    workers ring-wise (chained declustering).  When a worker fail-stops,
    :meth:`serving` routes its partitions to the first live replica — no
    reshard, no rebuild — and messages between partitions that now share
    a physical worker become local (free) in the communicator.

    With ``replication=1`` (the default) this is the identity mapping and
    any worker loss makes its partitions unrecoverable (fatal
    :class:`~repro.errors.WorkerFailed` — the data lived only in that
    worker's DRAM).
    """

    def __init__(self, num_partitions: int, replication: int = 1) -> None:
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        if not 1 <= replication <= num_partitions:
            raise ValueError(
                f"replication must be in [1, {num_partitions}], got {replication}"
            )
        self.num_partitions = num_partitions
        self.replication = replication
        self.replica_map = [
            [(p + i) % num_partitions for i in range(replication)]
            for p in range(num_partitions)
        ]
        self.live: set[int] = set(range(num_partitions))

    def serving(self, partition: int) -> int:
        """Physical worker currently serving *partition* (first live replica)."""
        for w in self.replica_map[partition]:
            if w in self.live:
                return w
        raise WorkerFailed(
            f"partition {partition} lost: all {self.replication} replica(s) dead",
            partition=partition,
            retryable=False,
        )

    def fail(self, worker: int) -> None:
        """Mark *worker* fail-stopped; its partitions fail over on next use."""
        self.live.discard(worker)

    def is_live(self, worker: int) -> bool:
        return worker in self.live

    @property
    def num_failed(self) -> int:
        return self.num_partitions - len(self.live)

    def partitions_stored_by(self, worker: int) -> list[int]:
        """Partitions whose shard *worker* holds a copy of (primary or replica)."""
        return [
            p for p in range(self.num_partitions) if worker in self.replica_map[p]
        ]

    def restore_all(self) -> None:
        """Bring every worker back (a fresh placement epoch)."""
        self.live = set(range(self.num_partitions))

    def __repr__(self) -> str:
        return (
            f"Placement(partitions={self.num_partitions}, "
            f"k={self.replication}, live={len(self.live)})"
        )


class EdgeShard:
    """One worker's slice of one edge type, in both directions."""

    def __init__(
        self,
        edge_type_name: str,
        forward: EdgeIndex,
        reverse: EdgeIndex,
        forward_eids_local: np.ndarray,
        reverse_eids_local: np.ndarray,
    ) -> None:
        self.edge_type_name = edge_type_name
        #: CSR over *all* source vids but containing only locally-owned
        #: source rows' edges (other rows are empty)
        self.forward = forward
        self.reverse = reverse
        self.forward_eids_local = forward_eids_local
        self.reverse_eids_local = reverse_eids_local

    @property
    def num_forward_edges(self) -> int:
        return self.forward.num_edges

    def __repr__(self) -> str:
        return (
            f"EdgeShard({self.edge_type_name!r}, fwd={self.forward.num_edges}, "
            f"rev={self.reverse.num_edges})"
        )


def build_edge_shards(db: GraphDB, partitioner: Partitioner) -> list[dict[str, EdgeShard]]:
    """Shard every edge type across workers.

    Returns ``shards[worker][edge_type_name]``.  The forward shard of a
    worker holds edges whose *source* it owns; the reverse shard edges
    whose *target* it owns.  Shard CSRs are indexed by global vid, which
    keeps frontier arrays directly usable without translation.
    """
    n = partitioner.num_workers
    shards: list[dict[str, EdgeShard]] = [dict() for _ in range(n)]
    for name, et in db.edge_types.items():
        src_owner = partitioner.owner_of(et.src_vids)
        tgt_owner = partitioner.owner_of(et.tgt_vids)
        all_eids = np.arange(et.num_edges, dtype=np.int64)
        for w in range(n):
            fmask = src_owner == w
            rmask = tgt_owner == w
            forward = EdgeIndex(
                et.source.num_vertices,
                et.src_vids[fmask],
                et.tgt_vids[fmask],
                all_eids[fmask],
            )
            reverse = EdgeIndex(
                et.target.num_vertices,
                et.tgt_vids[rmask],
                et.src_vids[rmask],
                all_eids[rmask],
            )
            shards[w][name] = EdgeShard(
                name, forward, reverse, all_eids[fmask], all_eids[rmask]
            )
    return shards
