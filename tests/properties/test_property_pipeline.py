"""Property: pipelined fused execution is identical to sequential."""

import hypothesis.strategies as st
from hypothesis import given, settings

from tests.conftest import random_graph_db

TEMPLATES = [
    # (graph part, consumer part)
    (
        "select y.id as target from graph V0 (weight > {k}) --e0--> def y: "
        "V0 ( ) into table P",
        "select target, count(*) as n from table P group by target "
        "order by n desc, target asc",
    ),
    (
        "select a.id as src, y.id as dst from graph def a: V0 ( ) --e0--> "
        "def y: V0 (color = 'red') into table P",
        "select src, count(*) as n, min(dst) as lo, max(dst) as hi "
        "from table P group by src order by src asc",
    ),
    (
        "select y.weight as w from graph V0 ( ) --cross0--> def y: V1 ( ) "
        "into table P",
        "select count(*) as n, sum(w) as s, avg(w) as a from table P",
    ),
    (
        # a consumer where (k = 9 passes no path)
        "select a.id as src, y.weight as w from graph def a: V0 ( ) --e0--> "
        "def y: V0 ( ) into table P",
        "select src, count(*) as n, sum(w) as s from table P where w > {k} "
        "group by src order by src asc",
    ),
]


@given(
    seed=st.integers(min_value=0, max_value=2000),
    tidx=st.integers(min_value=0, max_value=len(TEMPLATES) - 1),
    k=st.integers(min_value=0, max_value=9),
    chunks=st.integers(min_value=1, max_value=9),
)
@settings(max_examples=50, deadline=None)
def test_pipelined_equals_sequential(seed, tidx, k, chunks):
    g, c = TEMPLATES[tidx]
    script_text = g.format(k=k) + "\n" + c.format(k=k)
    db1 = random_graph_db(seed, num_vertices=24, num_edges=60)
    ref = db1.query(script_text)
    db2 = random_graph_db(seed, num_vertices=24, num_edges=60)
    results, stats = db2.execute_pipelined(script_text, num_chunks=chunks)
    got = results[1].table
    def norm(rows):
        return [
            tuple(round(v, 9) if isinstance(v, float) else v for v in r)
            for r in rows
        ]

    assert norm(got.to_rows()) == norm(ref.to_rows()), (seed, tidx, k, chunks)
    # the intermediate table matches too (as a multiset)
    assert sorted(db2.table("P").to_rows()) == sorted(db1.table("P").to_rows())
