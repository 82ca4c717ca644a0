"""The simulated GEMS backend cluster: partitioning, messages, scaling.

Section III of the paper targets "a cluster of high-performance servers
with ample DRAM ... the database is primarily resident on the aggregated
memory of the compute nodes".  This example partitions a Berlin database
across 1..8 simulated workers and shows what the distributed executor
measures: message counts, bytes moved, supersteps, per-worker load
balance, and that results match the single-node engine exactly.  Each
cluster is the backend of a ``Server(workers=N)``: the server checks a
script once and ships each statement to the cluster as IR.

Run:  python examples/distributed_cluster.py [scale]
"""

import sys
import time

import numpy as np

from repro import Server
from repro.dist import Cluster
from repro.workloads.berlin import berlin_database

QUERY = """
select * from graph
PersonVtx (country = 'US')
<--reviewer-- ReviewVtx ( )
--reviewFor--> ProductVtx ( )
--producer--> ProducerVtx (country = 'DE')
into subgraph reviewChains
"""


def main(scale: int = 500) -> None:
    print(f"building Berlin database at scale {scale} ...")
    db = berlin_database(scale=scale, seed=7)
    print(db.db)

    # single-node reference
    t0 = time.perf_counter()
    ref = db.execute(QUERY)[0].subgraph
    t_local = time.perf_counter() - t0
    print(f"\nsingle-node: {ref.num_vertices} vertices, "
          f"{ref.num_edges} edges in {t_local * 1e3:.1f} ms")

    print(f"\n{'workers':>8} {'time ms':>9} {'messages':>9} {'KB moved':>9} "
          f"{'supersteps':>10} {'imbalance':>9} {'identical':>9}")
    for workers in (1, 2, 4, 8):
        server = Server(backend=db.db, workers=workers)
        cluster = server.cluster
        t0 = time.perf_counter()
        result = server.submit("admin", QUERY)[0].subgraph
        elapsed = (time.perf_counter() - t0) * 1e3
        stats = cluster.comm_stats()
        balance = cluster.edge_balance()
        identical = all(
            np.array_equal(ref.vertex_ids(t), result.vertex_ids(t))
            for t in set(ref.vertices) | set(result.vertices)
        )
        print(
            f"{workers:>8} {elapsed:>9.1f} {stats['messages']:>9} "
            f"{stats['bytes'] / 1024:>9.1f} {stats['supersteps']:>10} "
            f"{balance['imbalance']:>9.3f} {str(identical):>9}"
        )

    # memory-per-worker view: the paper's "aggregated memory" argument
    cluster = Cluster(db.db, 8, db.catalog)
    mem = cluster.memory_per_worker()
    print(
        f"\nedge-shard memory across 8 workers: total "
        f"{sum(mem) / 1024:.0f} KB, max per worker {max(mem) / 1024:.0f} KB "
        f"(aggregate capacity grows with the cluster)"
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 500)
