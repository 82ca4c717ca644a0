"""Robustness fuzzing: the front-end never crashes, it *rejects*.

For arbitrary generated statements (valid or not) checked against a real
catalog, static analysis must either succeed or raise a GraQLError — no
AssertionError, KeyError, TypeError or other internal leakage.  Same for
the parser over arbitrary printable text, and for execution of statements
that pass the checker.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import GraQLError
from repro.graql.lexer import tokenize
from repro.graql.parser import parse_script
from repro.graql.typecheck import check_statement

from tests.conftest import build_social_db
from tests.properties.strategies import statements

_db = build_social_db()
_catalog = _db.catalog


@given(statements)
@settings(max_examples=300, deadline=None)
def test_typecheck_never_crashes(stmt):
    try:
        check_statement(stmt, _catalog)
    except GraQLError:
        pass  # rejection is fine; crashes are not


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=200))
@settings(max_examples=300, deadline=None)
def test_parser_never_crashes_on_garbage(text):
    try:
        parse_script(text)
    except GraQLError:
        pass


@given(st.text(max_size=100))
@settings(max_examples=200, deadline=None)
def test_lexer_never_crashes(text):
    try:
        tokenize(text)
    except GraQLError:
        pass


@given(statements)
@settings(max_examples=150, deadline=None)
def test_checked_statements_execute_or_reject(stmt):
    """Anything the checker accepts must execute without internal errors."""
    from repro.query.executor import execute_checked

    db = build_social_db()
    try:
        checked = check_statement(stmt, db.catalog)
    except GraQLError:
        return
    # DDL statements may collide with existing names at execution; queries
    # may hit runtime guards — all must surface as GraQLError only
    try:
        execute_checked(db.db, db.catalog, checked)
    except GraQLError:
        pass
