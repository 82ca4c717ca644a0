"""Unit tests for the GraQL parser covering every statement form."""

import pytest

from repro.dtypes import DATE, FLOAT, INTEGER, VarChar
from repro.errors import ParseError
from repro.graql.ast import (
    AggItem,
    AttrItem,
    CreateEdge,
    CreateTable,
    CreateVertex,
    DIR_IN,
    DIR_OUT,
    EdgeStep,
    GraphSelect,
    Ingest,
    LABEL_FOREACH,
    LABEL_SET,
    PathAnd,
    PathAtom,
    PathOr,
    RegexGroup,
    REGEX_COUNT,
    REGEX_PLUS,
    REGEX_STAR,
    StarItem,
    StepItem,
    TableSelect,
    VertexStep,
)
from repro.graql.parser import parse_script, parse_statement
from repro.storage.expr import BinOp, ColRef, Const, Param


class TestCreateTable:
    def test_basic(self):
        stmt = parse_statement(
            "create table T(id varchar(10), n integer, x float, d date)"
        )
        assert isinstance(stmt, CreateTable)
        assert stmt.schema.names() == ["id", "n", "x", "d"]
        assert stmt.schema.type_of("id") == VarChar(10)
        assert stmt.schema.type_of("n") is INTEGER
        assert stmt.schema.type_of("x") is FLOAT
        assert stmt.schema.type_of("d") is DATE

    def test_comments_inside(self):
        stmt = parse_statement(
            "create table T(\n  id varchar(10), // primary\n  n integer\n)"
        )
        assert len(stmt.schema) == 2

    def test_unknown_type(self):
        with pytest.raises(ParseError):
            parse_statement("create table T(id blob)")

    def test_missing_paren(self):
        with pytest.raises(ParseError):
            parse_statement("create table T id integer")


class TestCreateVertex:
    def test_basic(self):
        stmt = parse_statement("create vertex V(id) from table T")
        assert isinstance(stmt, CreateVertex)
        assert stmt.key_cols == ["id"] and stmt.table == "T"
        assert stmt.where is None

    def test_composite_key(self):
        stmt = parse_statement("create vertex V(a, b) from table T")
        assert stmt.key_cols == ["a", "b"]

    def test_with_where(self):
        stmt = parse_statement(
            "create vertex V(id) from table T where T.kind = 'x'"
        )
        assert isinstance(stmt.where, BinOp)


class TestCreateEdge:
    def test_paper_form(self):
        stmt = parse_statement(
            "create edge producer with vertices (ProductVtx, ProducerVtx) "
            "where ProductVtx.producer = ProducerVtx.id"
        )
        assert isinstance(stmt, CreateEdge)
        assert stmt.source.type_name == "ProductVtx"
        assert stmt.target.type_name == "ProducerVtx"
        assert stmt.from_tables == []

    def test_aliases(self):
        stmt = parse_statement(
            "create edge subclass with vertices (TypeVtx as A, TypeVtx as B) "
            "where A.subclassOf = B.id"
        )
        assert stmt.source.alias == "A" and stmt.target.alias == "B"
        assert stmt.source.ref_name == "A"

    def test_from_table(self):
        stmt = parse_statement(
            "create edge t with vertices (P, Q) from table R "
            "where R.p = P.id and R.q = Q.id"
        )
        assert stmt.from_tables == ["R"]

    def test_multiple_from_tables(self):
        stmt = parse_statement(
            "create edge t with vertices (P, Q) from table R, S where R.x = S.y"
        )
        assert stmt.from_tables == ["R", "S"]


class TestIngest:
    def test_bare_filename(self):
        stmt = parse_statement("ingest table Products products.csv")
        assert isinstance(stmt, Ingest)
        assert stmt.path == "products.csv"

    def test_path_with_directories(self):
        stmt = parse_statement("ingest table P data/sub/products.csv")
        assert stmt.path == "data/sub/products.csv"

    def test_quoted_path(self):
        stmt = parse_statement("ingest table P 'some dir/file.csv'")
        assert stmt.path == "some dir/file.csv"

    def test_next_statement_not_swallowed(self):
        script = parse_script(
            "ingest table P products.csv\ncreate table X(id integer)"
        )
        assert len(script) == 2
        assert script.statements[0].path == "products.csv"

    def test_path_starting_with_keyword(self):
        script = parse_script("ingest table A or.csv\ningest table B table/x.csv")
        assert [s.path for s in script.statements] == ["or.csv", "table/x.csv"]


class TestTableSelect:
    def test_full_form(self):
        stmt = parse_statement(
            "select top 10 id, count(*) as groupCount from table T1 "
            "where n > 3 group by id order by groupCount desc into table T2"
        )
        assert isinstance(stmt, TableSelect)
        assert stmt.top == 10
        assert stmt.group_by == ["id"]
        assert stmt.order_by[0].column == "groupCount"
        assert not stmt.order_by[0].ascending
        assert stmt.into.name == "T2"

    def test_star(self):
        stmt = parse_statement("select * from table T")
        assert isinstance(stmt.items[0], StarItem)

    def test_distinct(self):
        assert parse_statement("select distinct id from table T").distinct

    def test_aggregates(self):
        stmt = parse_statement(
            "select count(*), sum(n) as s, avg(x), min(d), max(d) from table T"
        )
        funcs = [i.func for i in stmt.items if isinstance(i, AggItem)]
        assert funcs == ["count", "sum", "avg", "min", "max"]

    def test_order_by_multiple(self):
        stmt = parse_statement("select a from table T order by a asc, b desc")
        assert [(k.column, k.ascending) for k in stmt.order_by] == [
            ("a", True),
            ("b", False),
        ]

    def test_aliases(self):
        stmt = parse_statement("select a as x, b from table T")
        assert stmt.items[0].alias == "x" and stmt.items[1].alias is None


class TestGraphSelect:
    def test_minimal_path(self):
        stmt = parse_statement(
            "select * from graph A ( ) --e--> B ( ) into subgraph G"
        )
        assert isinstance(stmt, GraphSelect)
        atom = stmt.pattern
        assert isinstance(atom, PathAtom)
        assert len(atom.steps) == 3
        assert atom.steps[1].direction == DIR_OUT

    def test_in_edge(self):
        stmt = parse_statement("select * from graph A ( ) <--e-- B ( ) into subgraph G")
        assert stmt.pattern.steps[1].direction == DIR_IN

    def test_empty_parens_mean_no_filter(self):
        stmt = parse_statement("select * from graph A ( ) --e--> B ( ) into subgraph G")
        assert stmt.pattern.steps[0].cond is None

    def test_conditions_and_params(self):
        stmt = parse_statement(
            "select * from graph A (id = %P% and n > 3) --e--> B ( ) into subgraph G"
        )
        cond = stmt.pattern.steps[0].cond
        assert isinstance(cond, BinOp) and cond.op == "and"

    def test_def_label(self):
        stmt = parse_statement(
            "select y.id from graph A ( ) --e--> def y: B ( ) into table T"
        )
        step = stmt.pattern.steps[2]
        assert step.label.kind == LABEL_SET and step.label.name == "y"

    def test_foreach_label(self):
        stmt = parse_statement(
            "select * from graph A ( ) --e--> foreach y: B ( ) into subgraph G"
        )
        assert stmt.pattern.steps[2].label.kind == LABEL_FOREACH

    def test_variant_steps(self):
        stmt = parse_statement(
            "select * from graph A (x = 1) <--[]-- [ ] into subgraph G"
        )
        assert stmt.pattern.steps[1].is_variant
        assert stmt.pattern.steps[2].is_variant

    def test_edge_condition(self):
        stmt = parse_statement(
            "select * from graph A ( ) --e(weight > 3)--> B ( ) into subgraph G"
        )
        assert stmt.pattern.steps[1].cond is not None

    def test_and_composition(self):
        stmt = parse_statement(
            "select T.id from graph A ( ) --e--> def y: B ( ) "
            "and (y --f--> T ( )) into table T1"
        )
        assert isinstance(stmt.pattern, PathAnd)
        right = stmt.pattern.right
        assert right.steps[0].name == "y"

    def test_or_composition(self):
        stmt = parse_statement(
            "select * from graph A ( ) --e--> B ( ) or (A ( ) --f--> C ( )) "
            "into subgraph G"
        )
        assert isinstance(stmt.pattern, PathOr)

    def test_seeded_step(self):
        stmt = parse_statement(
            "select * from graph resQ1.Vn (x > 1) --e--> B ( ) into subgraph G"
        )
        first = stmt.pattern.steps[0]
        assert first.seed == "resQ1" and first.name == "Vn"

    def test_regex_plus(self):
        stmt = parse_statement(
            "select * from graph A ( ) ( --[]--> [ ] )+ B ( ) into subgraph G"
        )
        group = stmt.pattern.steps[1]
        assert isinstance(group, RegexGroup)
        assert group.op == REGEX_PLUS and len(group.pairs) == 1

    def test_regex_star_and_count(self):
        s1 = parse_statement(
            "select * from graph A ( ) ( --e--> [ ] )* B ( ) into subgraph G"
        )
        assert s1.pattern.steps[1].op == REGEX_STAR
        s2 = parse_statement(
            "select * from graph A ( ) ( --e--> [ ] ){3} B ( ) into subgraph G"
        )
        assert s2.pattern.steps[1].op == REGEX_COUNT
        assert s2.pattern.steps[1].count == 3

    def test_regex_with_connector_arrows(self):
        # Fig. 10 shows "VertexA --> ( ... )+ --> VertexB"
        stmt = parse_statement(
            "select * from graph A ( ) --> ( --[]--> [ ] )+ --> B ( ) "
            "into subgraph G"
        )
        assert isinstance(stmt.pattern.steps[1], RegexGroup)

    def test_step_items(self):
        stmt = parse_statement(
            "select V0, Vn from graph V0 ( ) --e--> Vn ( ) into subgraph G"
        )
        assert all(isinstance(i, StepItem) for i in stmt.items)

    def test_attr_items_qualified(self):
        stmt = parse_statement(
            "select TypeVtx.id from graph A ( ) --e--> TypeVtx ( ) into table T"
        )
        item = stmt.items[0]
        assert isinstance(item, AttrItem)
        assert item.ref.qualifier == "TypeVtx" and item.ref.name == "id"

    def test_no_into_clause(self):
        stmt = parse_statement("select A.id from graph A ( ) --e--> B ( )")
        assert stmt.into is None

    def test_vertex_vertex_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("select * from graph A ( ) B ( ) into subgraph G")

    def test_top_on_graph_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("select top 5 * from graph A ( ) --e--> B ( )")


class TestScripts:
    def test_multi_statement_no_separator(self):
        script = parse_script(
            """
            create table T(id varchar(10))
            create vertex V(id) from table T
            select * from table T
            """
        )
        assert len(script) == 3

    def test_semicolons_tolerated(self):
        script = parse_script("select * from table T; select * from table U")
        assert len(script) == 2

    def test_empty_script(self):
        assert len(parse_script("")) == 0

    def test_comment_only(self):
        assert len(parse_script("// nothing here\n")) == 0

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_script("frobnicate the database")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("select * from table T extra junk")
