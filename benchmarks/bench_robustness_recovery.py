"""ROBUST-1 — recovery overhead of the fault-tolerant cluster backend.

Measures, per (workers, injected fail-stop failures), the cost of
surviving faults relative to the failure-free run of the same 3-hop
Berlin path query: wall-clock time, total messages/bytes, and the
recovery-only share (retried supersteps' extra traffic, failovers,
backoff).  Replication is k=2, so any single failure — and the
non-adjacent double failure injected here — recovers without data loss;
the answer is asserted identical to the failure-free run every time.

Shape facts this reproduces (docs/RELIABILITY.md): recovery cost is one
re-run of the interrupted superstep (a fraction of total traffic, not a
full-query restart), and it shrinks relative to total work as the
cluster grows because the retried superstep is 1/(2·hops) of the
supersteps while failover only re-routes the dead worker's partitions.
"""

import pytest

from repro import Server
from repro.dist import Cluster, FaultInjector

QUERY = (
    "select * from graph PersonVtx (country = 'US') <--reviewer-- "
    "ReviewVtx ( ) --reviewFor--> ProductVtx ( ) --producer--> "
    "ProducerVtx ( ) into subgraph {}"
)

#: fail-stop schedules: 0, 1, or 2 non-adjacent kills (k=2 ring survives)
SCHEDULES = {0: {}, 1: {1: [0]}, 2: {1: [0], 3: [2]}}


def _canon(subgraph):
    return (
        {k: v.tolist() for k, v in subgraph.vertices.items()},
        {k: v.tolist() for k, v in subgraph.edges.items()},
    )


@pytest.mark.parametrize("workers", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("failures", [0, 1, 2])
def test_robustness_recovery_overhead(benchmark, berlin_bench_db, workers, failures):
    if failures > 0 and workers < 4:
        pytest.skip("failure runs need >= 4 workers for non-adjacent kills")
    db = berlin_bench_db
    baseline = None
    if failures:
        clean = Cluster(db.db, workers, db.catalog, replication=min(2, workers))
        baseline = _canon(
            clean.run_graph_select(
                _checked(db, QUERY.format(f"base{workers}_{failures}"))
            ).subgraph
        )

    counter = [0]

    def run():
        counter[0] += 1
        inj = FaultInjector(seed=7, kill_schedule=SCHEDULES[failures])
        cluster = Cluster(
            db.db, workers, db.catalog, replication=min(2, workers),
            fault_injector=inj, backoff_base_s=0.0,
        )
        result = cluster.run_graph_select(
            _checked(db, QUERY.format(f"r{workers}_{failures}_{counter[0]}"))
        )
        return result, cluster

    result, cluster = benchmark(run)
    stats = cluster.comm_stats()
    rec = result.recovery
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["failures"] = failures
    benchmark.extra_info["messages"] = stats["messages"]
    benchmark.extra_info["kb_moved"] = round(stats["bytes"] / 1024, 1)
    benchmark.extra_info["supersteps"] = stats["supersteps"]
    benchmark.extra_info["retries"] = rec["retries"]
    benchmark.extra_info["failovers"] = rec["failovers"]
    benchmark.extra_info["extra_messages"] = rec["extra_messages"]
    benchmark.extra_info["extra_kb"] = round(rec["extra_bytes"] / 1024, 1)
    assert result.subgraph.num_vertices > 0
    assert not result.degraded
    if failures:
        assert rec["failovers"] == failures
        # recovery re-runs supersteps, never the whole query: the extra
        # traffic stays below the failure-free total
        assert rec["extra_bytes"] <= stats["bytes"]
        assert baseline == _canon(result.subgraph)


def _checked(db, text):
    from repro.graql.parser import parse_statement
    from repro.graql.typecheck import check_statement

    return check_statement(parse_statement(text), db.catalog)


def test_robustness_degraded_fallback_cost(benchmark, berlin_bench_db):
    """Breaker-open path: every statement answered single-node. The
    benchmark shows degraded service costs zero cluster traffic and
    stays correct — availability traded for the scaling win."""
    server = Server(backend=berlin_bench_db.db, workers=8,
                    cluster_opts={"replication": 2})
    cluster = server.cluster
    cluster.breaker.state = "open"
    cluster.breaker.opened_at = float("inf")  # keep it open for the run

    counter = [0]

    def run():
        counter[0] += 1
        return server.submit("admin", QUERY.format(f"deg{counter[0]}"))[0]

    result = benchmark(run)
    assert result.degraded
    assert result.degraded_reason == "circuit breaker open"
    assert result.subgraph.num_vertices > 0
    benchmark.extra_info["degraded_statements"] = cluster.degraded_statements
    benchmark.extra_info["messages"] = cluster.comm_stats()["messages"]
    assert cluster.comm_stats()["messages"] == 0
