"""Property-based fault tolerance: determinism and oracle equivalence.

Two properties pin down the fault model (docs/RELIABILITY.md):

* **seeded determinism** — the same injector seed produces the same
  fault schedule, the same recovery actions, and therefore the same
  result and the same fault/recovery counters;
* **oracle equivalence** — with k=2 replication, any single injected
  fail-stop (plus probabilistic message drops) leaves every
  set-semantics distributed query returning exactly the single-node
  engine's answer.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import Server
from repro.dist import FaultInjector
from tests.conftest import random_graph_db

QUERIES = [
    "select * from graph V0 ( ) --e0--> V0 ( ) into subgraph {}",
    "select * from graph V0 (color = 'red') --e0--> V0 (weight > 3) "
    "into subgraph {}",
    "select * from graph V0 ( ) --e0--> V0 ( ) --cross0--> V1 ( ) "
    "into subgraph {}",
    "select * from graph V1 ( ) <--cross0-- V0 ( ) into subgraph {}",
]


def _canon(subgraph):
    return (
        {k: v.tolist() for k, v in subgraph.vertices.items()},
        {k: v.tolist() for k, v in subgraph.edges.items()},
    )


@given(
    seed=st.integers(min_value=0, max_value=2000),
    qidx=st.integers(min_value=0, max_value=len(QUERIES) - 1),
    workers=st.integers(min_value=2, max_value=6),
    victim=st.integers(min_value=0, max_value=5),
    kill_step=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=30, deadline=None)
def test_single_failure_equals_single_node_oracle(
    seed, qidx, workers, victim, kill_step
):
    db = random_graph_db(seed, num_vertices=30, num_edges=80)
    q = QUERIES[qidx]
    ref = db.execute(q.format("L"))[0].subgraph
    inj = FaultInjector(
        seed=seed, kill_schedule={kill_step: [victim % workers]}
    )
    server = Server(
        backend=db.db, workers=workers,
        cluster_opts={"replication": 2, "fault_injector": inj},
    )
    result = server.submit("admin", q.format("D"))[0]
    assert not result.degraded  # k=2 survives any single fail-stop
    assert _canon(ref) == _canon(result.subgraph)
    if inj.stats.kills:
        assert result.recovery["failovers"] == inj.stats.kills


@given(
    seed=st.integers(min_value=0, max_value=2000),
    qidx=st.integers(min_value=0, max_value=len(QUERIES) - 1),
    workers=st.integers(min_value=2, max_value=5),
)
@settings(max_examples=25, deadline=None)
def test_drops_and_delays_preserve_oracle_equality(seed, qidx, workers):
    db = random_graph_db(seed, num_vertices=25, num_edges=60)
    q = QUERIES[qidx]
    ref = db.execute(q.format("L"))[0].subgraph
    inj = FaultInjector(seed=seed, drop_prob=0.1, delay_prob=0.2)
    server = Server(
        backend=db.db, workers=workers,
        cluster_opts={"replication": 2, "fault_injector": inj, "max_retries": 50},
    )
    result = server.submit("admin", q.format("D"))[0]
    assert not result.degraded
    assert _canon(ref) == _canon(result.subgraph)


@given(
    seed=st.integers(min_value=0, max_value=2000),
    qidx=st.integers(min_value=0, max_value=len(QUERIES) - 1),
    workers=st.integers(min_value=2, max_value=5),
)
@settings(max_examples=20, deadline=None)
def test_same_seed_same_faults_same_result(seed, qidx, workers):
    db = random_graph_db(seed, num_vertices=25, num_edges=60)
    q = QUERIES[qidx]
    runs = []
    for tag in ("A", "B"):
        inj = FaultInjector(
            seed=seed, kill_prob=0.2, drop_prob=0.1, delay_prob=0.2,
            max_kills=1,
        )
        server = Server(
            backend=db.db, workers=workers,
            cluster_opts={"replication": 2, "fault_injector": inj, "max_retries": 50},
        )
        result = server.submit("admin", q.format(tag))[0]
        runs.append(
            (
                _canon(result.subgraph),
                inj.stats.snapshot(),
                result.recovery,
                server.cluster.comm_stats(),
            )
        )
    (sub_a, faults_a, rec_a, comm_a), (sub_b, faults_b, rec_b, comm_b) = runs
    assert sub_a == sub_b
    assert faults_a == faults_b
    assert rec_a == rec_b
    assert comm_a == comm_b
