"""S3B1-PIPE — pipelined execution of dependent statements (III-B1).

    "Pipelined execution of dependent query statements can also be
    considered to reduce the amount of space needed to materialize
    intermediate results."

A broad graph-select -> aggregation pair executed sequentially (full
intermediate table) vs fused/chunked (the consumer's aggregate sees one
chunk of paths at a time).  The largest chunk drops by ~the chunk count
while results stay identical; the registered intermediate still holds
every path, so this does not yet bound the pair's space.
"""

import pytest

from repro.workloads.berlin import berlin_database

# broad on purpose: every review path in the database
PAIR = """
select y.id from graph
PersonVtx ( ) <--reviewer-- ReviewVtx ( ) --reviewFor--> def y: ProductVtx ( )
into table allReviews

select top 10 id, count(*) as n from table allReviews
group by id order by n desc, id asc
"""


def test_s3b1_sequential_pair(benchmark, berlin_bench_db):
    db = berlin_bench_db

    def run():
        return db.query(PAIR)

    table = benchmark(run)
    full_rows = db.table("allReviews").num_rows
    benchmark.extra_info["intermediate_rows"] = full_rows
    assert table.num_rows == 10


@pytest.mark.parametrize("chunks", [4, 16])
def test_s3b1_pipelined_pair(benchmark, chunks):
    db = berlin_database(scale=300, seed=42)

    def run():
        return db.execute_pipelined(PAIR, num_chunks=chunks)

    results, stats = benchmark(run)
    s = stats[0]
    benchmark.extra_info["chunks"] = s.chunks
    benchmark.extra_info["total_paths"] = s.total_paths
    benchmark.extra_info["peak_partial_rows"] = s.peak_partial_rows
    # the consumer's largest chunk is well below the full path count
    assert s.peak_partial_rows < s.total_paths
    assert results[1].table.num_rows == 10


def test_s3b1_pipelined_identical_results(benchmark):
    state = {}

    def run():
        db1 = berlin_database(scale=300, seed=42)
        state["ref"] = db1.query(PAIR)
        db2 = berlin_database(scale=300, seed=42)
        state["results"], state["stats"] = db2.execute_pipelined(PAIR, num_chunks=8)

    benchmark.pedantic(run, rounds=1, iterations=1)
    results, stats = state["results"], state["stats"]
    assert results[1].table.to_rows() == state["ref"].to_rows()
    # and the space shape: ~1/chunks of the total at a time
    s = stats[0]
    benchmark.extra_info["peak_rows"] = s.peak_partial_rows
    benchmark.extra_info["total_paths"] = s.total_paths
    assert s.peak_partial_rows <= s.total_paths / 2
