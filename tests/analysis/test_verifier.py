"""IR verifier tests: corrupted bytes must die before the backend.

The verifier walks the stream with the decoder's grammar but validates
every field; these tests hand-corrupt real encodings (header, tags,
lengths, vocabulary, truncation) and check each raises a *positioned*
:class:`IRError` — and that :meth:`Server.submit` refuses to ship such a
stream to the backend.
"""

from __future__ import annotations

import pytest

from repro.analysis import IRVerifier, verify_statement_ir
from repro.engine.server import Server
from repro.errors import IRError
from repro.graql.ast import (
    EdgeStep,
    GraphSelect,
    IntoClause,
    PathAtom,
    StarItem,
    VertexStep,
)
from repro.graql.ir import encode_statement
from repro.graql.parser import parse_statement
from repro.storage.expr import BinOp, ColRef
from tests.conftest import SOCIAL_DDL

STATEMENTS = [
    "create table Fresh(id integer, name varchar(8))",
    "create vertex FreshV(id) from table People",
    "ingest table People 'people.csv'",
    "select id, name from table People where age > 21 order by name",
    "select * from graph Person (age > 30) --follows--> def y: Person ( ) "
    "into subgraph G",
    "select y.id from graph Person ( ) ( --follows--> [ ] ){2} "
    "def y: Person ( ) into table T",
]

GRAPH_Q = STATEMENTS[4]


def enc(source: str) -> bytes:
    return encode_statement(parse_statement(source))


class TestValidStreams:
    @pytest.mark.parametrize("source", STATEMENTS)
    def test_accepts_every_statement_kind(self, source, social_db):
        data = enc(source)
        verify_statement_ir(data)  # structural only
        verify_statement_ir(data, social_db.catalog)  # + name resolution

    def test_label_reference_resolves_within_pattern(self, social_db):
        # the final "x" is not a vertex type; it resolves against the
        # label the first step defined earlier in the same stream
        data = enc(
            "select * from graph def x: Person ( ) --follows--> Person ( ) "
            "--follows--> x into subgraph G"
        )
        verify_statement_ir(data, social_db.catalog)


class TestHeaderAndFraming:
    def test_bad_magic(self):
        data = b"XXXX" + enc(GRAPH_Q)[4:]
        with pytest.raises(IRError, match="magic") as ei:
            verify_statement_ir(data)
        assert ei.value.offset == 0
        assert ei.value.instruction == "header"

    def test_bad_version(self):
        data = bytearray(enc(GRAPH_Q))
        data[4] = 99
        with pytest.raises(IRError, match="version"):
            verify_statement_ir(bytes(data))

    def test_unknown_statement_tag(self):
        data = bytearray(enc(GRAPH_Q))
        data[5] = 0x7F
        with pytest.raises(IRError, match="statement tag") as ei:
            verify_statement_ir(bytes(data))
        assert ei.value.offset == 5

    def test_trailing_bytes_rejected(self):
        with pytest.raises(IRError, match="trailing"):
            verify_statement_ir(enc(GRAPH_Q) + b"\x00")

    @pytest.mark.parametrize("source", STATEMENTS)
    def test_every_truncation_rejected(self, source):
        """No proper prefix of a statement is a valid statement."""
        data = enc(source)
        for cut in range(len(data)):
            with pytest.raises(IRError):
                verify_statement_ir(data[:cut])

    def test_byte_flips_never_escape_as_other_exceptions(self, social_db):
        """Arbitrary single-byte corruption either still verifies or
        raises IRError — never an unhandled IndexError/UnicodeError/..."""
        data = enc(GRAPH_Q)
        caught = 0
        for i in range(len(data)):
            mutated = bytearray(data)
            mutated[i] ^= 0xFF
            try:
                verify_statement_ir(bytes(mutated), social_db.catalog)
            except IRError as e:
                caught += 1
                assert e.offset is not None
        assert caught > len(data) // 2  # the vast majority is detected


def _graph_select(steps) -> GraphSelect:
    return GraphSelect([StarItem()], PathAtom(steps), IntoClause("subgraph", "G"))


class TestSemanticChecks:
    def test_binop_arity(self):
        # the encoder happily writes a null operand; the verifier refuses
        stmt = _graph_select(
            [
                VertexStep(
                    "Person", cond=BinOp("=", ColRef(None, "age"), None)
                ),
                EdgeStep("follows", "out"),
                VertexStep("Person"),
            ]
        )
        with pytest.raises(IRError, match="missing operand"):
            verify_statement_ir(encode_statement(stmt))

    def test_invalid_edge_direction(self):
        # the AST constructor refuses bad directions, so corrupt the
        # length-prefixed "out" string in the encoded bytes instead
        data = enc(GRAPH_Q)
        needle = b"\x03\x00\x00\x00out"
        assert needle in data
        data = data.replace(needle, b"\x03\x00\x00\x00owt")
        with pytest.raises(IRError, match="direction"):
            verify_statement_ir(data)

    def test_unknown_vertex_type_against_catalog(self, social_db):
        stmt = _graph_select(
            [VertexStep("Nope"), EdgeStep("follows", "out"), VertexStep("Person")]
        )
        data = encode_statement(stmt)
        verify_statement_ir(data)  # structurally fine without a catalog
        with pytest.raises(IRError, match="unknown vertex type 'Nope'"):
            verify_statement_ir(data, social_db.catalog)

    def test_unknown_edge_type_against_catalog(self, social_db):
        stmt = _graph_select(
            [VertexStep("Person"), EdgeStep("admires", "out"), VertexStep("Person")]
        )
        with pytest.raises(IRError, match="unknown edge type 'admires'"):
            verify_statement_ir(encode_statement(stmt), social_db.catalog)

    def test_consecutive_vertex_steps_rejected(self):
        stmt = _graph_select([VertexStep("Person"), VertexStep("Person")])
        with pytest.raises(IRError, match="consecutive vertex steps"):
            verify_statement_ir(encode_statement(stmt))

    def test_pattern_must_end_with_vertex(self):
        stmt = _graph_select([VertexStep("Person"), EdgeStep("follows", "out")])
        with pytest.raises(IRError, match="end with a vertex"):
            verify_statement_ir(encode_statement(stmt))


class TestServerIntegration:
    def _server(self, workers=None) -> Server:
        s = Server(workers=workers)
        s.submit("admin", SOCIAL_DDL)
        return s

    def test_submit_rejects_corrupted_ir(self, monkeypatch):
        # binary IR is shipped to the backend cluster only
        s = self._server(workers=2)

        def corrupted(stmt):
            raw = bytearray(encode_statement(stmt))
            raw[5] = 0x7F  # clobber the statement tag
            return bytes(raw)

        monkeypatch.setattr("repro.engine.server.encode_statement", corrupted)
        shipped_before = s.ir_bytes_shipped
        with pytest.raises(IRError, match="statement tag"):
            s.submit(
                "admin",
                "select * from graph Person ( ) --follows--> Person ( ) "
                "into subgraph G",
            )
        # rejected before the backend saw a single byte
        assert s.ir_bytes_shipped == shipped_before
        assert "G" not in s.catalog.subgraphs

    def test_submit_still_executes_valid_ir(self):
        s = self._server()
        results = s.submit(
            "admin",
            "select * from graph Person ( ) --follows--> Person ( ) "
            "into subgraph G",
        )
        assert results[0].subgraph is not None
