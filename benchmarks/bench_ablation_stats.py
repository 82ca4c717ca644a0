"""ABL-STATS — what catalog statistics buy the planner (Section III-B).

    "further analysis can be performed with respect to dynamic properties
    of the data ... number of instances of vertex and edge types, as well
    as statistical properties of the degree distribution"

Compares the planner's direction decisions with full catalog statistics
against a statistics-stripped catalog (no per-attribute distinct counts):
on queries whose selectivity hides behind an equality filter on a
non-key attribute, the stats-less planner misjudges the cheap end.
"""

import copy

import pytest

from repro.graql.parser import parse_statement
from repro.graql.typecheck import check_statement
from repro.query.planner import plan_graph_select

# country is low-cardinality; id is unique: only statistics reveal that
# filtering ProducerVtx by id is far more selective than PersonVtx by country
QUERY = (
    "select * from graph PersonVtx (country = 'US') <--reviewer-- "
    "ReviewVtx ( ) --reviewFor--> ProductVtx ( ) --producer--> "
    "ProducerVtx (id = 'producer1') into subgraph g"
)


def strip_stats(catalog):
    bare = copy.deepcopy(catalog)
    for vm in bare.vertices.values():
        vm.distinct_counts = {}
        # the planner's selectivities come from the histogram column
        # stats: drop the collected ones and the source of new ones
        vm._stats_cache = {}
        vm._stats_provider = None
    return bare


def test_ablation_stats_direction_quality(benchmark, berlin_bench_db):
    catalog = berlin_bench_db.catalog
    checked = check_statement(parse_statement(QUERY), catalog)
    out = {}

    def run():
        out["with"] = plan_graph_select(checked, catalog)
        out["without"] = plan_graph_select(checked, strip_stats(catalog))

    benchmark.pedantic(run, rounds=1, iterations=1)
    with_stats = out["with"]
    without = out["without"]
    ap_with = next(iter(with_stats.atom_plans.values()))
    ap_without = next(iter(without.atom_plans.values()))
    # with statistics the unique-id end wins clearly
    assert ap_with.direction == "backward"
    # and the estimated gap is much larger than the stats-less guess
    gap_with = ap_with.cost_forward / max(ap_with.cost_backward, 1e-9)
    gap_without = ap_without.cost_forward / max(ap_without.cost_backward, 1e-9)
    assert gap_with > gap_without


def test_ablation_stats_planning_cost(benchmark, berlin_bench_db):
    catalog = berlin_bench_db.catalog
    checked = check_statement(parse_statement(QUERY), catalog)

    def run():
        return plan_graph_select(checked, catalog)

    plan = benchmark(run)
    ap = next(iter(plan.atom_plans.values()))
    benchmark.extra_info["direction"] = ap.direction
    benchmark.extra_info["cost_fwd"] = round(ap.cost_forward, 1)
    benchmark.extra_info["cost_bwd"] = round(ap.cost_backward, 1)
