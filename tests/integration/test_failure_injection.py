"""Failure injection: errors must be contained and leave state intact."""

import pytest

from repro import Database
from repro.errors import (
    CatalogError,
    ExecutionError,
    GraQLError,
    IngestError,
    TypeCheckError,
)


class TestIngestAtomicity:
    def test_bad_row_leaves_table_and_views_untouched(self, tmp_path, social_db):
        path = tmp_path / "people.csv"
        path.write_text(
            "p7,Gail,US,30,1.0,2015-01-01\n"
            "p8,Hank,DE,notanint,2.0,2015-01-02\n"  # bad integer
        )
        rows_before = social_db.table("People").num_rows
        vertices_before = social_db.vertex_count("Person")
        with pytest.raises(IngestError, match="'age'"):
            social_db.execute(f"ingest table People '{path}'")
        assert social_db.table("People").num_rows == rows_before
        assert social_db.vertex_count("Person") == vertices_before

    def test_arity_error_reports_line_number(self, tmp_path, social_db):
        path = tmp_path / "bad.csv"
        path.write_text("p7,Gail,US,30,1.0,2015-01-01\np8,short\n")
        with pytest.raises(IngestError, match=":2"):
            social_db.execute(f"ingest table People '{path}'")

    def test_successful_ingest_rebuilds_everything(self, tmp_path, social_db):
        path = tmp_path / "follows.csv"
        path.write_text("p1,p4,3\n")
        edges_before = social_db.edge_count("follows")
        social_db.execute(f"ingest table Follows '{path}'")
        assert social_db.edge_count("follows") == edges_before + 1
        # the index is rebuilt too: the new edge is traversable
        t = social_db.query(
            "select y.id from graph Person (id = 'p1') --follows--> "
            "def y: Person (id = 'p4') into table NewEdge"
        )
        assert t.num_rows == 1


class TestStaticErrorsLeaveNoState:
    def test_failed_statement_registers_nothing(self, social_db):
        with pytest.raises(GraQLError):
            social_db.execute(
                "select y.id from graph Person (bogus = 1) --follows--> "
                "def y: Person ( ) into table ShouldNotExist"
            )
        assert not social_db.catalog.is_table("ShouldNotExist")

    def test_mid_script_failure_keeps_earlier_results(self, tmp_path, social_db):
        # statements execute in order; the first lands, the second fails
        # at run time (a static error would reject the whole script
        # before the first statement runs)
        bad = tmp_path / "bad.csv"
        bad.write_text("p8,short\n")
        with pytest.raises(GraQLError):
            social_db.execute(
                "select y.id from graph Person ( ) --follows--> def y: "
                "Person ( ) into table Ok1\n"
                f"ingest table People '{bad}'"
            )
        assert social_db.catalog.is_table("Ok1")

    def test_static_failure_keeps_no_earlier_results(self, social_db):
        with pytest.raises(GraQLError):
            social_db.execute(
                "select y.id from graph Person ( ) --follows--> def y: "
                "Person ( ) into table Ok1\n"
                "select * from table MissingTable"
            )
        assert not social_db.catalog.is_table("Ok1")


class TestRuntimeGuards:
    def test_binding_row_cap_surfaces_cleanly(self):
        import repro.query.bindings as b

        db = Database()
        db.execute(
            "create table N(id integer)\n"
            "create table E(s integer, t integer)\n"
            "create vertex V(id) from table N\n"
            "create edge e with vertices (V as A, V as B) from table E "
            "where E.s = A.id and E.t = B.id"
        )
        db.ingest_rows("N", [(i,) for i in range(20)])
        # complete bipartite-ish blowup
        db.ingest_rows(
            "E", [(i, j) for i in range(10) for j in range(10, 20)]
        )
        old = b.DEFAULT_MAX_ROWS
        b.DEFAULT_MAX_ROWS = 50
        try:
            with pytest.raises(ExecutionError, match="exceeded"):
                db.query(
                    "select y.id from graph V ( ) --e--> V ( ) <--e-- "
                    "def y: V ( ) into table Boom"
                )
        finally:
            b.DEFAULT_MAX_ROWS = old

    def test_unknown_seed_subgraph(self, social_db):
        with pytest.raises((TypeCheckError, CatalogError)):
            social_db.execute(
                "select * from graph nosuch.Person ( ) --follows--> "
                "Person ( ) into subgraph G"
            )

    def test_overwriting_base_table_via_into_rejected(self, social_db):
        with pytest.raises(CatalogError, match="base table"):
            social_db.execute(
                "select y.id from graph Person ( ) --follows--> def y: "
                "Person ( ) into table People"
            )

    def test_result_tables_are_overwritable(self, social_db):
        q = ("select y.id from graph Person ( ) --follows--> def y: "
             "Person ( ) into table Re")
        social_db.execute(q)
        social_db.execute(q)  # second run replaces, no error
        assert social_db.catalog.is_table("Re")

    def test_subgraphs_are_overwritable(self, social_db):
        q = ("select * from graph Person ( ) --follows--> Person ( ) "
             "into subgraph Rg")
        social_db.execute(q)
        social_db.execute(q)
        assert "Rg" in social_db.catalog.subgraphs


class TestParserRecovery:
    def test_error_positions_are_accurate(self, social_db):
        from repro.errors import ParseError

        try:
            social_db.execute("select from table People")
        except ParseError as e:
            assert e.line == 1
        else:
            pytest.fail("expected ParseError")

    def test_garbage_between_statements(self, social_db):
        from repro.errors import LexError, ParseError

        with pytest.raises((ParseError, LexError)):
            social_db.execute(
                "select * from table People\n@@@\nselect * from table People"
            )
