"""S3B-DIST — distributed execution on the simulated cluster.

Reports, per worker count: execution time, messages, bytes moved,
supersteps, and load imbalance for a 3-hop Berlin path query.  The shape
facts the paper's design argues for: partition-local work shrinks with
workers (aggregate-memory scaling) while communication grows with the cut.
"""

import pytest

from repro import Server
from repro.dist import Cluster

QUERY = (
    "select * from graph PersonVtx (country = 'US') <--reviewer-- "
    "ReviewVtx ( ) --reviewFor--> ProductVtx ( ) --producer--> "
    "ProducerVtx ( ) into subgraph {}"
)


@pytest.mark.parametrize("workers", [1, 2, 4, 8, 16])
def test_s3b_cluster_scaling(benchmark, berlin_bench_db, workers):
    server = Server(backend=berlin_bench_db.db, workers=workers)
    cluster = server.cluster

    counter = [0]

    def run():
        counter[0] += 1
        cluster.reset_stats()
        return server.submit("admin", QUERY.format(f"cs{workers}_{counter[0]}"))

    results = benchmark(run)
    stats = cluster.comm_stats()
    balance = cluster.edge_balance()
    mem = cluster.memory_per_worker()
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["messages"] = stats["messages"]
    benchmark.extra_info["kb_moved"] = round(stats["bytes"] / 1024, 1)
    benchmark.extra_info["supersteps"] = stats["supersteps"]
    benchmark.extra_info["imbalance"] = round(balance["imbalance"], 3)
    benchmark.extra_info["max_worker_memory_kb"] = round(max(mem) / 1024, 1)
    assert results[0].subgraph.num_vertices > 0


def test_s3b_memory_scales_down(benchmark, berlin_bench_db):
    """Aggregate-memory claim: the partitionable edge payload shrinks
    ~linearly with workers (CSR indptr is a fixed per-worker overhead of
    the global-vid shard layout and is reported separately)."""
    db = berlin_bench_db
    total, payload = {}, {}

    def run():
        for w in (1, 4, 16):
            cluster = Cluster(db.db, w, db.catalog)
            total[w] = max(cluster.memory_per_worker())
            payload[w] = max(cluster.memory_per_worker(payload_only=True))

    benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["total_kb"] = {w: round(v / 1024, 1) for w, v in total.items()}
    benchmark.extra_info["payload_kb"] = {w: round(v / 1024, 1) for w, v in payload.items()}
    assert total[4] < total[1] and total[16] < total[4]
    # payload partitions near-linearly
    assert payload[16] < payload[1] / 8
