"""Unit tests for multi-statement scheduling (Section III-B1)."""

import pytest

from repro.catalog import Catalog
from repro.engine.scheduler import build_schedule
from repro.graql.parser import parse_script
from tests.conftest import build_social_db


def waves_of(text, catalog=None):
    return build_schedule(parse_script(text), catalog).waves


class TestDependencies:
    def test_independent_selects_share_wave(self):
        waves = waves_of(
            """
            create table A(id integer)
            create table B(id integer)
            select * from table A into table RA
            select * from table B into table RB
            """
        )
        assert waves[0] == [0, 1]
        assert waves[1] == [2, 3]

    def test_read_after_write(self):
        waves = waves_of(
            """
            create table A(id integer)
            select * from table A into table R
            select * from table R into table R2
            """
        )
        assert waves == [[0], [1], [2]]

    def test_ingest_blocks_view_readers(self):
        waves = waves_of(
            """
            create table A(id integer)
            create vertex V(id) from table A
            ingest table A a.csv
            select * from graph V ( ) into subgraph G
            """
        )
        # the graph select reads view V, which ingest rebuilds
        level = {i: w for w, idx in enumerate(waves) for i in idx}
        assert level[3] > level[2]

    def test_unrelated_ingest_does_not_block(self):
        sched = build_schedule(
            parse_script(
                """
                create table A(id integer)
                create table B(id integer)
                create vertex VA(id) from table A
                ingest table B b.csv
                select * from graph VA ( ) into subgraph G
                """
            )
        )
        # the select depends on VA (stmt 2), not on the ingest of B (stmt 3)
        assert 2 in sched.deps[4]
        assert 3 not in sched.deps[4]

    def test_subgraph_seeding_dependency(self):
        waves = waves_of(
            """
            create table A(id integer)
            create vertex V(id) from table A
            select * from graph V ( ) into subgraph S
            select * from graph S.V ( ) into subgraph S2
            """
        )
        level = {i: w for w, idx in enumerate(waves) for i in idx}
        assert level[3] > level[2]

    def test_write_write_ordering(self):
        waves = waves_of(
            """
            create table A(id integer)
            select * from table A into table R
            select * from table A into table R
            """
        )
        level = {i: w for w, idx in enumerate(waves) for i in idx}
        assert level[2] > level[1]

    def test_edge_dependencies_through_vertices(self):
        waves = waves_of(
            """
            create table N(id integer)
            create table E(s integer, t integer)
            create vertex V(id) from table N
            create edge e with vertices (V as A, V as B) from table E
            where E.s = A.id and E.t = B.id
            ingest table E e.csv
            select * from graph V ( ) --e--> V ( ) into subgraph G
            """
        )
        level = {i: w for w, idx in enumerate(waves) for i in idx}
        assert level[5] > level[4]  # select after ingest rebuilds edge view


class TestScheduleProperties:
    def test_max_parallelism(self):
        sched = build_schedule(
            parse_script(
                "create table A(id integer)\n"
                "create table B(id integer)\n"
                "create table C(id integer)"
            )
        )
        assert sched.max_parallelism == 3
        assert sched.num_waves == 1

    def test_uses_existing_catalog(self, social_db):
        waves = waves_of(
            "ingest table People p.csv\n"
            "select * from graph Person ( ) into subgraph G",
            social_db.catalog,
        )
        level = {i: w for w, idx in enumerate(waves) for i in idx}
        # Person depends on People even though declared outside the script
        assert level[1] > level[0]


COUNTRY_SCRIPT = """
select y.id from graph Person (country = 'US') --follows-->
def y: Person ( ) into table A
select y.id from graph Person (country = 'DE') --follows-->
def y: Person ( ) into table B
select id, count(*) as n from table A group by id into table CA
select id, count(*) as n from table B group by id into table CB
"""


class TestCountryScript:
    def test_results_in_statement_order(self):
        db = build_social_db()
        results = db.execute(COUNTRY_SCRIPT)
        assert len(results) == 4
        assert db.table("CA").num_rows > 0
        for result, name in zip(results, ("A", "B", "CA", "CB")):
            assert sorted(result.table.to_rows()) == sorted(
                db.table(name).to_rows()
            )

    def test_schedule_has_parallel_wave(self):
        db = build_social_db()
        schedule = build_schedule(parse_script(COUNTRY_SCRIPT), db.catalog)
        assert schedule.max_parallelism >= 2
        assert schedule.waves == [[0, 1], [2, 3]]
