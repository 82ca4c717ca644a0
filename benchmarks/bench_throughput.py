"""THROUGHPUT — the paper's stated objective.

    "The principal intent is to minimize per query processing time and
    maximize throughput." (Section I)

A mixed workload drawn from the Berlin BI query catalog, executed
back-to-back: the benchmark reports queries/second for the in-memory
engine, plus a parameterized-reuse variant (same template, varying
parameters) that models the paper's "dynamic, just-in-time" query
environment.
"""

import numpy as np
import pytest

from repro.workloads.berlin import QUERIES, generate_berlin

#: templates cheap enough to run many times per round
MIX = ["berlin_q2", "fig9_type_match", "bi_reviewers", "bi_features"]


def test_throughput_mixed_workload(benchmark, berlin_bench_db, berlin_bench_data):
    db = berlin_bench_db
    rng = np.random.default_rng(17)
    # pre-draw parameters so the measured loop is pure query execution
    batch = []
    for i in range(12):
        name = MIX[i % len(MIX)]
        spec = QUERIES[name]
        batch.append((spec.graql, spec.params(rng, berlin_bench_data)))

    def run():
        out = 0
        for graql, params in batch:
            results = db.execute(graql, params)
            out += results[-1].count
        return out

    benchmark(run)
    benchmark.extra_info["queries_per_round"] = len(batch)
    benchmark.extra_info["note"] = "multiply OPS by queries_per_round for q/s"


def test_throughput_parameter_reuse(benchmark, berlin_bench_db):
    """One template, many parameter bindings (prepared-statement style)."""
    statement = berlin_bench_db.connect().prepare(QUERIES["berlin_q2"].graql)
    counter = [0]

    def run():
        counter[0] = (counter[0] + 1) % 50
        return statement.execute({"Product1": f"product{counter[0]}"})[-1]

    result = benchmark(run)
    assert result.table.num_rows <= 10
