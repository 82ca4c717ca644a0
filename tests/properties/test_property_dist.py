"""Property-based: distributed execution is exactly single-node execution."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import Server
from repro.dist.comm import Communicator
from repro.dist.dist_relops import dist_group_by_aggregate
from repro.dtypes import INTEGER, VarChar
from repro.storage import Schema, Table, relops
from repro.storage.relops import AggSpec

from tests.conftest import random_graph_db

QUERIES = [
    "select * from graph V0 ( ) --e0--> V0 ( ) into subgraph {}",
    "select * from graph V0 (color = 'red') --e0--> V0 (weight > 3) "
    "into subgraph {}",
    "select * from graph V0 ( ) --e0--> V0 ( ) --cross0--> V1 ( ) "
    "into subgraph {}",
    "select * from graph V1 ( ) <--cross0-- V0 ( ) into subgraph {}",
    "select * from graph V0 ( ) --[]--> [ ] into subgraph {}",
    # shapes only the shared sweep / statement path serves on the cluster:
    # and-composition with a set label defined in one atom and referenced
    # in the other (the refinement loop)
    "select * from graph V0 ( ) --e0--> def x: V0 (weight > 2) and "
    "x --cross0--> V1 (color = 'red') into subgraph {}",
    # a seeded anchor
    "select * from graph SG.V0 ( ) --e0--> V0 ( ) into subgraph {}",
    # a selective anchor over an indexed attribute
    "select * from graph V0 (color = 'red') --cross0--> V1 ( ) "
    "into subgraph {}",
    # an anchor matching nothing (dead frontier)
    "select * from graph V0 (weight > 99) --e0--> V0 ( ) --cross0--> V1 ( ) "
    "into subgraph {}",
]

SETUP = (
    "create index by_color on V0(color)\n"
    "select * from graph V0 (weight > 4) --e0--> V0 ( ) into subgraph SG"
)


@given(
    seed=st.integers(min_value=0, max_value=3000),
    qidx=st.integers(min_value=0, max_value=len(QUERIES) - 1),
    workers=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=80, deadline=None)
def test_cluster_equals_single_node(seed, qidx, workers):
    db = random_graph_db(seed, num_vertices=30, num_edges=80)
    db.execute(SETUP)
    q = QUERIES[qidx]
    ref = db.execute(q.format("L"))[0].subgraph
    server = Server(backend=db.db, workers=workers)
    result = server.submit("admin", q.format("D"))[0]
    assert result.profile.dist is not None  # swept on the cluster, no fallback
    assert ref == result.subgraph  # Subgraph equality: vertices and edges


SCHEMA = Schema.of(("g", VarChar(2)), ("n", INTEGER))

rows_st = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "d", None]),
        st.integers(min_value=-9, max_value=9),
    ),
    max_size=60,
)


@given(rows=rows_st, workers=st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_dist_groupby_equals_single_node(rows, workers):
    table = Table.from_rows("T", SCHEMA, rows)
    aggs = [
        AggSpec("count", None, "c"),
        AggSpec("sum", "n", "s"),
        AggSpec("min", "n", "lo"),
        AggSpec("max", "n", "hi"),
    ]
    ref = relops.group_by_aggregate(table, ["g"], aggs)
    got = dist_group_by_aggregate(table, ["g"], aggs, Communicator(workers))
    assert sorted(ref.to_rows(), key=repr) == sorted(got.to_rows(), key=repr)
