"""Tests for the public analysis API: ``Database.analyze`` and
:class:`AnalysisResult`, plus the position-threading contract for the
fail-fast exception path (ParseError / TypeCheckError carry line:col)."""

from __future__ import annotations

import json
import re

import pytest

from repro import AnalysisResult, Analyzer, Diagnostic
from repro.analysis.diagnostics import CODES, classify_error
from repro.errors import ParseError, TypeCheckError
from repro.graql.parser import parse_script
from repro.graql.typecheck import check_script

#: three distinct defects (plus a warning) in one script — the
#: acceptance scenario for `graql check`
DEFECTIVE = """\
select bogus from table People
select Person.id from graph Person ( ) --follows--> Person ( ) into table T
select id from table People where age > 10 and age < 5
select * from table Missing
"""


class TestDatabaseAnalyze:
    def test_clean_script(self, social_db):
        result = social_db.analyze("select id, name from table People")
        assert isinstance(result, AnalysisResult)
        assert result.ok and result.diagnostics == []
        assert result.exit_code() == 0
        assert result.exit_code(strict=True) == 0
        assert result.render_text("x.graql").endswith("clean")

    def test_reports_all_defects_in_one_run(self, social_db):
        result = social_db.analyze(DEFECTIVE)
        got = {d.code for d in result.errors}
        assert {"GQL013", "GQL015", "GQL010"} <= got
        assert "GQW101" in {d.code for d in result.warnings}
        # every diagnostic is positioned and statement-attributed
        for d in result.diagnostics:
            assert d.span is not None
            assert d.statement_index is not None
        assert result.exit_code() == 2

    def test_diagnostics_are_source_ordered(self, social_db):
        result = social_db.analyze(DEFECTIVE)
        stmts = [d.statement_index for d in result.diagnostics]
        assert stmts == sorted(stmts)

    def test_params_are_substituted(self, social_db):
        src = "select id from table People where age > %N%"
        assert not social_db.analyze(src, {"N": 21}).diagnostics
        (d,) = social_db.analyze(src).diagnostics
        assert d.code == "GQL020"

    def test_never_raises_on_garbage(self, social_db):
        result = social_db.analyze("se lect ~~~ from @")
        assert not result.ok
        assert result.errors[0].code in ("GQL001", "GQL002")

    def test_analysis_does_not_mutate_catalog(self, social_db):
        social_db.analyze("create table Scratch(id integer)")
        assert "Scratch" not in social_db.catalog.tables


class TestAnalysisResultRendering:
    def test_render_text_format(self, social_db):
        text = social_db.analyze(DEFECTIVE).render_text("q.graql")
        # "<file>: <line>:<col>: <severity>[<code>]: <message>"
        assert re.search(r"q\.graql: 1:8: error\[GQL013\]: ", text)
        assert re.search(r"help: ", text)  # fix-it hints included
        assert re.search(r"q\.graql: \d+ error\(s\), \d+ warning\(s\)", text)

    def test_to_json(self, social_db):
        payload = json.loads(social_db.analyze(DEFECTIVE).to_json("q.graql"))
        assert payload["source"] == "q.graql"
        assert payload["errors"] >= 3 and payload["warnings"] >= 1
        d = payload["diagnostics"][0]
        assert {"code", "severity", "message", "line", "column"} <= set(d)
        assert d["code"] in CODES


class TestAnalyzerConfig:
    def test_verify_ir_toggle(self, social_db):
        src = "select id, name from table People"
        assert Analyzer(social_db.catalog, verify_ir=False).analyze(src).ok
        assert Analyzer(social_db.catalog, verify_ir=True).analyze(src).ok


class TestDiagnosticModel:
    def test_unregistered_code_rejected(self):
        with pytest.raises(ValueError, match="unregistered"):
            Diagnostic("GQL999", "nope")

    def test_hint_defaults_from_registry(self):
        d = Diagnostic("GQL010", "unknown table 'X'")
        assert d.hint and "catalog" in d.hint

    def test_codes_are_partitioned_by_severity(self):
        for code, (severity, _title, _hint) in CODES.items():
            expected = "error" if code.startswith("GQL") else "warning"
            assert severity == expected

    def test_classifier_default(self):
        assert classify_error(TypeCheckError("some novel message")) == "GQL012"


class TestFailFastPositions:
    """Satellite contract: the *fail-fast* pipeline keeps raising the
    same exception types, now with line:col in the message."""

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as ei:
            parse_script("select\nfrom from table People")
        assert ei.value.line == 2
        assert re.search(r"\(line 2, column \d+\)", str(ei.value))

    def test_typecheck_error_carries_position(self, social_db):
        with pytest.raises(TypeCheckError) as ei:
            check_script(
                parse_script("select id from table People\n"
                             "select bogus from table People"),
                social_db.catalog,
            )
        assert ei.value.line == 2
        assert re.search(r"\(line 2, column \d+\)", str(ei.value))
