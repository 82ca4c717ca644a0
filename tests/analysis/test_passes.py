"""Unit tests for the individual lint passes."""

from __future__ import annotations

from repro.analysis.passes import (
    EXPANSION_THRESHOLD,
    blowup_pass,
    dead_statement_pass,
    label_pass,
    predicate_pass,
)
from repro.graql.parser import parse_script
from repro.graql.typecheck import check_script_collect


def codes(diags):
    return [d.code for d in diags]


class TestPredicatePass:
    def test_unsatisfiable_interval(self):
        script = parse_script(
            "select id from table People where age > 10 and age < 5"
        )
        (d,) = predicate_pass(script)
        assert d.code == "GQW101"
        assert d.span is not None and d.span.line == 1

    def test_unsatisfiable_on_graph_step(self):
        script = parse_script(
            "select * from graph Person (age > 99 and age < 1) "
            "--follows--> Person ( ) into subgraph G"
        )
        assert codes(predicate_pass(script)) == ["GQW101"]

    def test_tautology(self):
        script = parse_script("select id from table People where 1 = 1")
        (d,) = predicate_pass(script)
        assert d.code == "GQW102"

    def test_satisfiable_is_silent(self):
        script = parse_script(
            "select id from table People where age > 10 and age < 50"
        )
        assert predicate_pass(script) == []


class TestLabelPass:
    def test_unused_label(self):
        script = parse_script(
            "select B.id from graph Person ( ) --follows--> "
            "def B: Person ( ) --follows--> def C: Person ( ) into table T"
        )
        (d,) = label_pass(script)
        assert d.code == "GQW110"
        assert "'C'" in d.message

    def test_label_used_in_condition_is_live(self):
        script = parse_script(
            "select * from graph def a: Person ( ) --follows--> "
            "Person (age > a.age) into subgraph G"
        )
        assert label_pass(script) == []

    def test_label_rematched_by_later_step_is_live(self):
        script = parse_script(
            "select * from graph def x: Person ( ) --follows--> "
            "Person ( ) --follows--> x into subgraph G"
        )
        assert label_pass(script) == []

    def test_cross_statement_shadowing(self):
        script = parse_script(
            "select y.id from graph Person ( ) --follows--> def y: "
            "Person ( ) into table T1\n"
            "select y.id from graph Person ( ) --follows--> def y: "
            "Person ( ) into table T2"
        )
        out = label_pass(script)
        assert codes(out) == ["GQW111"]
        assert out[0].statement_index == 1


class TestDeadStatementPass:
    DEAD = (
        "select id from table People into table TT\n"
        "select name from table People into table TT\n"
        "select * from table TT"
    )

    def test_overwritten_unread_is_dead(self, social_db):
        out = dead_statement_pass(parse_script(self.DEAD), social_db.catalog)
        assert codes(out) == ["GQW120"]
        assert out[0].statement_index == 0

    def test_read_between_writes_is_live(self, social_db):
        script = parse_script(
            "select id from table People into table TT\n"
            "select * from table TT\n"
            "select name from table People into table TT"
        )
        assert dead_statement_pass(script, social_db.catalog) == []

    def test_final_result_is_live(self, social_db):
        script = parse_script("select id from table People into table TT")
        assert dead_statement_pass(script, social_db.catalog) == []


class TestBlowupPass:
    def _lint(self, db, source):
        script = parse_script(source)
        checked, errors, _ = check_script_collect(script, db.catalog)
        assert not errors
        return blowup_pass(script, catalog=db.catalog, checked=checked)

    def test_dense_unbounded_regex_warns(self, corpus_db):
        out = self._lint(
            corpus_db,
            "select * from graph Person ( ) ( --follows--> [ ] )+ "
            "Person ( ) into subgraph BG",
        )
        assert codes(out) == ["GQW130"]

    def test_sparse_unbounded_regex_is_silent(self, social_db):
        # the plain social graph's fanout is under the threshold
        assert EXPANSION_THRESHOLD > 8 / 6
        out = self._lint(
            social_db,
            "select * from graph Person ( ) ( --follows--> [ ] )+ "
            "Person ( ) into subgraph BG",
        )
        assert out == []

    def test_bounded_regex_is_silent(self, corpus_db):
        out = self._lint(
            corpus_db,
            "select * from graph Person ( ) ( --follows--> [ ] ){2} "
            "Person ( ) into subgraph BG",
        )
        assert out == []

    def test_high_fanout_variant_warns(self, corpus_db):
        out = self._lint(
            corpus_db,
            "select * from graph Hub ( ) --[]--> [ ] into subgraph HG",
        )
        assert codes(out) == ["GQW131"]

    def test_narrowed_variant_is_silent(self, social_db):
        # only two candidate targets (Person, City): under the threshold
        out = self._lint(
            social_db,
            "select * from graph Person ( ) --[]--> [ ] into subgraph HG",
        )
        assert out == []

