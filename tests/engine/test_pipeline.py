"""Tests for pipelined pair execution (Section III-B1)."""

import pytest

from repro.engine.pipeline import find_fusable_pairs
from repro.graql.parser import parse_script
from repro.workloads.berlin import Q1_FIG7, Q2_FIG6, berlin_database
from tests.conftest import build_social_db

BROAD_PAIR = """
select y.id from graph
Person ( ) --follows--> def y: Person ( )
into table T1

select id, count(*) as n from table T1
group by id order by n desc, id asc
"""


class TestFusionDetection:
    def test_detects_adjacent_pair(self):
        script = parse_script(BROAD_PAIR)
        assert find_fusable_pairs(script) == {0: 1}

    def test_no_fusion_when_table_reused(self):
        script = parse_script(
            BROAD_PAIR + "\nselect * from table T1"
        )
        assert find_fusable_pairs(script) == {}

    def test_no_fusion_for_subgraph_output(self):
        script = parse_script(
            "select * from graph Person ( ) --follows--> Person ( ) "
            "into subgraph G\n"
            "select * from table People"
        )
        assert find_fusable_pairs(script) == {}

    def test_no_fusion_when_not_adjacent(self):
        script = parse_script(
            "select y.id from graph Person ( ) --follows--> def y: "
            "Person ( ) into table T1\n"
            "select * from table People\n"
            "select id, count(*) as n from table T1 group by id"
        )
        assert find_fusable_pairs(script) == {}


class TestFusedExecution:
    def test_identical_to_sequential(self):
        db1 = build_social_db()
        ref = db1.query(BROAD_PAIR)
        db2 = build_social_db()
        results, stats = db2.execute_pipelined(BROAD_PAIR, num_chunks=3)
        assert results[1].table.to_rows() == ref.to_rows()
        assert len(stats) == 1

    def test_chunking_bounds_peak(self):
        db = build_social_db()
        results, stats = db.execute_pipelined(BROAD_PAIR, num_chunks=6)
        s = stats[0]
        assert s.chunks > 1
        assert s.peak_partial_rows < s.total_paths
        assert s.total_paths == 8  # all follow edges

    def test_intermediate_table_still_registered(self):
        db = build_social_db()
        db.execute_pipelined(BROAD_PAIR, num_chunks=4)
        assert db.db.table("T1").num_rows == 8

    def test_berlin_q2_pipelined(self):
        db1 = berlin_database(scale=120, seed=5)
        ref = db1.query(Q2_FIG6, params={"Product1": "product7"})
        db2 = berlin_database(scale=120, seed=5)
        results, _ = db2.execute_pipelined(Q2_FIG6, params={"Product1": "product7"})
        assert results[1].table.to_rows() == ref.to_rows()

    def test_multi_atom_falls_back(self):
        """Fig. 7 (two atoms) is not fusable; results must still be right."""
        db1 = berlin_database(scale=120, seed=5)
        ref = db1.query(Q1_FIG7, params={"Country1": "US", "Country2": "DE"})
        db2 = berlin_database(scale=120, seed=5)
        results, stats = db2.execute_pipelined(
            Q1_FIG7, params={"Country1": "US", "Country2": "DE"}
        )
        assert results[1].table.to_rows() == ref.to_rows()
        assert stats == []  # fell back, no fusion

    def test_avg_aggregate_pipelined(self):
        db1 = build_social_db()
        script = """
        select y.age as a from graph
        Person ( ) --follows--> def y: Person ( )
        into table Ages

        select count(*) as n, avg(a) as meanAge, min(a) as lo, max(a) as hi
        from table Ages
        """
        ref = db1.query(script)
        db2 = build_social_db()
        results, stats = db2.execute_pipelined(script, num_chunks=3)
        assert results[1].table.to_rows() == pytest.approx(ref.to_rows()[0]) or (
            results[1].table.to_rows() == ref.to_rows()
        )
        assert stats and stats[0].chunks >= 1

    def test_empty_result_pipelined(self):
        db = build_social_db()
        script = """
        select y.id from graph
        Person (country = 'XX') --follows--> def y: Person ( )
        into table Nada

        select id, count(*) as n from table Nada group by id
        """
        results, _ = db.execute_pipelined(script)
        assert results[1].table.num_rows == 0


class TestDatabaseAPI:
    def test_execute_pipelined_entry_point(self):
        db = build_social_db()
        results, stats = db.execute_pipelined(BROAD_PAIR, num_chunks=4)
        assert results[-1].table.num_rows > 0
        assert stats[0].chunks >= 2
