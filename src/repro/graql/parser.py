"""Recursive-descent parser for GraQL.

The grammar (Section II of the paper):

.. code-block:: text

   script        := statement*
   statement     := create_table | create_vertex | create_edge
                  | ingest | select_stmt
   create_table  := CREATE TABLE ident '(' coldef (',' coldef)* ')'
   create_vertex := CREATE VERTEX ident '(' ident (',' ident)* ')'
                    FROM TABLE ident [WHERE expr]
   create_edge   := CREATE EDGE ident WITH VERTICES
                    '(' endpoint ',' endpoint ')'
                    [FROM TABLE ident (',' ident)*] [WHERE expr]
   endpoint      := ident [AS ident]
   ingest        := INGEST TABLE ident (string | bare-path)
   select_stmt   := SELECT [TOP number] [DISTINCT] items
                    FROM (GRAPH pattern | TABLE ident)
                    [WHERE expr] [GROUP BY idents] [ORDER BY keys]
                    [INTO (TABLE | SUBGRAPH) ident]
   pattern       := path ((AND | OR) path)*          (left associative)
   path          := ['('] vstep (estep vstep)* [')']
   vstep         := [label] [seed '.'] (ident ['(' [expr] ')'] | '[' ']')
   label         := (DEF | FOREACH) ident ':'
   estep         := DASHES ecore RARROW | LARROW ecore DASHES | regex
   ecore         := ident ['(' expr ')'] | '[' ']'
   regex         := [RARROW] '(' (estep vstep)+ ')' regex_op [RARROW]
   regex_op      := '*' | '+' | '{' number '}'

Expressions use standard precedence (or < and < not < comparison <
additive < multiplicative < unary), with ``is [not] null`` postfix.
Statement boundaries need no separator: every statement begins with
``create``, ``ingest`` or ``select``.
"""

from __future__ import annotations

from typing import Optional

from repro.dtypes import parse_type_name
from repro.errors import ParseError
from repro.graql import tokens as T
from repro.graql.ast import (
    AggItem,
    AttrItem,
    CreateEdge,
    CreateIndex,
    CreateTable,
    CreateVertex,
    DIR_IN,
    DIR_OUT,
    DropIndex,
    EdgeStep,
    GraphSelect,
    Ingest,
    IntoClause,
    INTO_SUBGRAPH,
    INTO_TABLE,
    Label,
    LABEL_FOREACH,
    LABEL_SET,
    OrderKey,
    PathAnd,
    PathAtom,
    PathOr,
    RegexGroup,
    REGEX_COUNT,
    REGEX_PLUS,
    REGEX_STAR,
    Script,
    SelectItem,
    StarItem,
    Statement,
    StepItem,
    TableSelect,
    VertexEndpoint,
    VertexStep,
)
from repro.graql.lexer import tokenize
from repro.graql.tokens import SourceSpan, Token
from repro.storage.expr import (
    BinOp,
    ColRef,
    Const,
    Expr,
    IsNull,
    Not,
    Param,
)
from repro.storage.schema import ColumnDef, Schema

_STATEMENT_STARTERS = ("create", "drop", "ingest", "select")
_AGG_FUNCS = ("count", "sum", "avg", "min", "max")


class Parser:
    """Token-stream parser producing :class:`~repro.graql.ast.Script`."""

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        i = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != T.EOF:
            self.pos += 1
        return tok

    def check(self, kind: str) -> bool:
        return self.peek().kind == kind

    def check_kw(self, word: str) -> bool:
        return self.peek().is_keyword(word)

    def match(self, kind: str) -> Optional[Token]:
        if self.check(kind):
            return self.advance()
        return None

    def match_kw(self, word: str) -> bool:
        if self.check_kw(word):
            self.advance()
            return True
        return False

    def expect(self, kind: str, what: str = "") -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {what or kind}, got {tok.kind} {tok.value!r}",
                tok.line,
                tok.column,
            )
        return self.advance()

    def expect_kw(self, word: str) -> Token:
        tok = self.peek()
        if not tok.is_keyword(word):
            raise ParseError(
                f"expected keyword '{word}', got {tok.kind} {tok.value!r}",
                tok.line,
                tok.column,
            )
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> str:
        tok = self.peek()
        if tok.kind != T.IDENT:
            raise ParseError(
                f"expected {what}, got {tok.kind} {tok.value!r}",
                tok.line,
                tok.column,
            )
        self.advance()
        return tok.value

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    def _spanned(self, node, tok: Token):
        """Attach *tok*'s position to an AST/expression node."""
        node.span = SourceSpan(tok.line, tok.column)
        return node

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def parse_script(self) -> Script:
        statements = []
        while not self.check(T.EOF):
            while self.match(T.SEMI):
                pass
            if self.check(T.EOF):
                break
            statements.append(self.parse_statement())
        return Script(statements)

    def parse_statement(self) -> Statement:
        tok = self.peek()
        if tok.is_keyword("create"):
            return self._spanned(self._parse_create(), tok)
        if tok.is_keyword("drop"):
            return self._spanned(self._parse_drop(), tok)
        if tok.is_keyword("ingest"):
            return self._spanned(self._parse_ingest(), tok)
        if tok.is_keyword("select"):
            return self._spanned(self._parse_select(), tok)
        raise self.error(
            f"expected statement (create/drop/ingest/select), got {tok.value!r}"
        )

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def _parse_create(self) -> Statement:
        self.expect_kw("create")
        if self.match_kw("table"):
            return self._parse_create_table()
        if self.match_kw("vertex"):
            return self._parse_create_vertex()
        if self.match_kw("edge"):
            return self._parse_create_edge()
        if self.match_kw("index"):
            return self._parse_create_index()
        raise self.error(
            "expected 'table', 'vertex', 'edge' or 'index' after 'create'"
        )

    def _parse_create_index(self) -> CreateIndex:
        name = self.expect_ident("index name")
        self.expect_kw("on")
        target = self.expect_ident("vertex or edge type name")
        self.expect(T.LPAREN)
        attrs = [self.expect_ident("attribute name")]
        while self.match(T.COMMA):
            attrs.append(self.expect_ident("attribute name"))
        self.expect(T.RPAREN)
        return CreateIndex(name, target, attrs)

    def _parse_drop(self) -> Statement:
        self.expect_kw("drop")
        self.expect_kw("index")
        return DropIndex(self.expect_ident("index name"))

    def _parse_create_table(self) -> CreateTable:
        name = self.expect_ident("table name")
        self.expect(T.LPAREN)
        cols: list[ColumnDef] = []
        while True:
            cname = self.expect_ident("column name")
            dtype = self._parse_type()
            cols.append(ColumnDef(cname, dtype))
            if not self.match(T.COMMA):
                break
        self.expect(T.RPAREN)
        return CreateTable(name, Schema(cols))

    def _parse_type(self):
        tok = self.peek()
        if tok.kind == T.IDENT:
            self.advance()
            word = tok.value
        else:
            raise self.error("expected a type name")
        if self.check(T.LPAREN):
            self.advance()
            num = self.expect(T.NUMBER, "varchar length")
            self.expect(T.RPAREN)
            word = f"{word}({int(num.value)})"
        try:
            return parse_type_name(word)
        except ValueError as e:
            raise ParseError(str(e), tok.line, tok.column) from None

    def _parse_create_vertex(self) -> CreateVertex:
        name = self.expect_ident("vertex type name")
        self.expect(T.LPAREN)
        keys = [self.expect_ident("key column")]
        while self.match(T.COMMA):
            keys.append(self.expect_ident("key column"))
        self.expect(T.RPAREN)
        self.expect_kw("from")
        self.expect_kw("table")
        table = self.expect_ident("table name")
        where = self._parse_expr() if self.match_kw("where") else None
        return CreateVertex(name, keys, table, where)

    def _parse_create_edge(self) -> CreateEdge:
        name = self.expect_ident("edge type name")
        self.expect_kw("with")
        self.expect_kw("vertices")
        self.expect(T.LPAREN)
        source = self._parse_endpoint()
        self.expect(T.COMMA)
        target = self._parse_endpoint()
        self.expect(T.RPAREN)
        from_tables: list[str] = []
        if self.check_kw("from"):
            self.advance()
            self.expect_kw("table")
            from_tables.append(self.expect_ident("table name"))
            while self.match(T.COMMA):
                from_tables.append(self.expect_ident("table name"))
        where = self._parse_expr() if self.match_kw("where") else None
        return CreateEdge(name, source, target, from_tables, where)

    def _parse_endpoint(self) -> VertexEndpoint:
        tname = self.expect_ident("vertex type name")
        alias = None
        if self.match_kw("as"):
            alias = self.expect_ident("endpoint alias")
        return VertexEndpoint(tname, alias)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _parse_ingest(self) -> Ingest:
        self.expect_kw("ingest")
        self.expect_kw("table")
        table = self.expect_ident("table name")
        tok = self.peek()
        if tok.kind == T.STRING:
            self.advance()
            return Ingest(table, tok.value)
        # Bare path like products.csv or data/products.csv: glue adjacent
        # tokens back together using source columns.
        path = self._parse_bare_path()
        return Ingest(table, path)

    def _parse_bare_path(self) -> str:
        parts: list[str] = []
        prev_end: Optional[tuple[int, int]] = None
        acceptable = (T.IDENT, T.KEYWORD, T.NUMBER, T.DOT, T.SLASH, T.MINUS)
        while True:
            tok = self.peek()
            if tok.kind not in acceptable:
                break
            spelling = (
                str(tok.value)
                if tok.kind in (T.IDENT, T.KEYWORD, T.NUMBER)
                else tok.kind
            )
            start = (tok.line, tok.column)
            if prev_end is not None and start != prev_end:
                break  # whitespace gap: path ended
            # a statement keyword that is NOT glued to the path starts a new
            # statement, but a glued one (e.g. "data/table.csv", or a path
            # that begins with one, "or.csv") is path text
            if tok.kind == T.KEYWORD and prev_end is None:
                nxt = self.peek(1)
                if (nxt.line, nxt.column) != (tok.line, tok.column + len(spelling)):
                    break
            parts.append(spelling)
            prev_end = (tok.line, tok.column + len(spelling))
            self.advance()
        if not parts:
            raise self.error("expected a file path after ingest table <name>")
        return "".join(parts)

    # ------------------------------------------------------------------
    # Select statements
    # ------------------------------------------------------------------
    def _parse_select(self) -> Statement:
        self.expect_kw("select")
        top = None
        if self.match_kw("top"):
            top = int(self.expect(T.NUMBER, "top count").value)
        distinct = self.match_kw("distinct")
        items = self._parse_select_items()
        self.expect_kw("from")
        if self.match_kw("graph"):
            if top is not None or distinct:
                raise self.error("top/distinct are not supported on graph selects")
            pattern = self._parse_pattern()
            into = self._parse_into(allow_subgraph=True)
            return GraphSelect(self._bind_graph_items(items), pattern, into)
        if self.match_kw("table"):
            source = self.expect_ident("table name")
            where = self._parse_expr() if self.match_kw("where") else None
            group_by: list[str] = []
            if self.check_kw("group"):
                self.advance()
                self.expect_kw("by")
                group_by.append(self.expect_ident("group-by column"))
                while self.match(T.COMMA):
                    group_by.append(self.expect_ident("group-by column"))
            order_by: list[OrderKey] = []
            if self.check_kw("order"):
                self.advance()
                self.expect_kw("by")
                order_by.append(self._parse_order_key())
                while self.match(T.COMMA):
                    order_by.append(self._parse_order_key())
            into = self._parse_into(allow_subgraph=False)
            return TableSelect(
                items, source, top, distinct, where, group_by, order_by, into
            )
        # Seeded first step like "resQ1.Vn" also appears after "from graph";
        # any other continuation is an error.
        raise self.error("expected 'graph' or 'table' after 'from'")

    def _parse_order_key(self) -> OrderKey:
        col = self.expect_ident("order-by column")
        ascending = True
        if self.match_kw("desc"):
            ascending = False
        else:
            self.match_kw("asc")
        return OrderKey(col, ascending)

    def _parse_into(self, allow_subgraph: bool) -> Optional[IntoClause]:
        if not self.check_kw("into"):
            return None
        self.advance()
        if self.match_kw("table"):
            return IntoClause(INTO_TABLE, self.expect_ident("result table name"))
        if self.match_kw("subgraph"):
            if not allow_subgraph:
                raise self.error("'into subgraph' is only valid for graph selects")
            return IntoClause(INTO_SUBGRAPH, self.expect_ident("result subgraph name"))
        raise self.error("expected 'table' or 'subgraph' after 'into'")

    def _parse_select_items(self) -> list[SelectItem]:
        if self.match(T.STAR):
            return [StarItem()]
        items: list[SelectItem] = [self._parse_select_item()]
        while self.match(T.COMMA):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> SelectItem:
        tok = self.peek()
        if tok.kind == T.KEYWORD and tok.value in _AGG_FUNCS:
            self.advance()
            self.expect(T.LPAREN)
            if self.match(T.STAR):
                arg = None
            else:
                arg = self.expect_ident("aggregate argument")
            self.expect(T.RPAREN)
            alias = self.expect_ident("alias") if self.match_kw("as") else None
            return self._spanned(AggItem(tok.value, arg, alias), tok)
        name = self.expect_ident("select item")
        qualifier = None
        if self.match(T.DOT):
            qualifier = name
            name = self.expect_ident("attribute name")
        alias = self.expect_ident("alias") if self.match_kw("as") else None
        return self._spanned(AttrItem(ColRef(qualifier, name), alias), tok)

    def _bind_graph_items(self, items: list[SelectItem]) -> list[SelectItem]:
        """In graph selects, a bare unqualified name selects a whole step
        (Fig. 11: ``select V0, Vn``), not an attribute."""
        out: list[SelectItem] = []
        for item in items:
            if (
                isinstance(item, AttrItem)
                and item.ref.qualifier is None
                and item.alias is None
            ):
                step = StepItem(item.ref.name)
                if getattr(item, "span", None) is not None:
                    step.span = item.span
                out.append(step)
            else:
                out.append(item)
        return out

    # ------------------------------------------------------------------
    # Path patterns
    # ------------------------------------------------------------------
    def _parse_pattern(self):
        left = self._parse_path_term()
        while True:
            if self.check_kw("and") :
                self.advance()
                right = self._parse_path_term()
                left = PathAnd(left, right)
            elif self.check_kw("or"):
                self.advance()
                right = self._parse_path_term()
                left = PathOr(left, right)
            else:
                return left

    def _parse_path_term(self) -> PathAtom:
        # optional parenthesized path: "(y --type--> TypeVtx)"
        if self.check(T.LPAREN):
            save = self.pos
            self.advance()
            try:
                atom = self._parse_path_atom()
                self.expect(T.RPAREN)
                return atom
            except ParseError:
                self.pos = save  # not a parenthesized path after all
        return self._parse_path_atom()

    def _parse_path_atom(self) -> PathAtom:
        steps: list = [self._parse_vertex_step()]
        while self._at_edge_start():
            edge = self._parse_edge_or_regex()
            steps.append(edge)
            steps.append(self._parse_vertex_step())
        return PathAtom(steps)

    def _at_edge_start(self) -> bool:
        k = self.peek().kind
        if k in (T.DASHES, T.LARROW):
            return True
        if k == T.RARROW:  # connector before a regex group (Fig. 10)
            return self.peek(1).kind == T.LPAREN
        if k == T.LPAREN:
            # possible inline regex group "( --[]--> [] )+"
            return self.peek(1).kind in (T.DASHES, T.LARROW)
        return False

    def _parse_vertex_step(self) -> VertexStep:
        start = self.peek()
        label = self._parse_label()
        # variant step "[ ]"
        if self.match(T.LBRACKET):
            self.expect(T.RBRACKET)
            return self._spanned(
                VertexStep(None, is_variant=True, label=label), start
            )
        name = self.expect_ident("vertex type or label name")
        seed = None
        if self.check(T.DOT) and self.peek(1).kind == T.IDENT:
            # seeded step: resQ1.Vn(cond)
            self.advance()
            seed = name
            name = self.expect_ident("vertex type name")
        cond = self._parse_step_condition()
        return self._spanned(
            VertexStep(name, is_variant=False, cond=cond, label=label, seed=seed),
            start,
        )

    def _parse_label(self) -> Optional[Label]:
        start = self.peek()
        if self.check_kw("def"):
            self.advance()
            name = self.expect_ident("label name")
            self.expect(T.COLON)
            return self._spanned(Label(LABEL_SET, name), start)
        if self.check_kw("foreach"):
            self.advance()
            name = self.expect_ident("label name")
            self.expect(T.COLON)
            return self._spanned(Label(LABEL_FOREACH, name), start)
        return None

    def _parse_step_condition(self) -> Optional[Expr]:
        """Optional '( expr )' or the empty filter '( )'."""
        if not self.check(T.LPAREN):
            return None
        # Do not swallow a following regex group "( --[]--> ...)" — that is
        # an edge-position construct, not a condition.
        if self.peek(1).kind in (T.DASHES, T.LARROW):
            return None
        self.advance()
        if self.match(T.RPAREN):
            return None  # "( )" means no filter (Section II-B)
        expr = self._parse_expr()
        self.expect(T.RPAREN)
        return expr

    def _parse_edge_or_regex(self):
        tok = self.peek()
        if tok.kind == T.RARROW:
            # connector arrow before a regex group
            self.advance()
            group = self._parse_regex_group()
            self.match(T.RARROW)  # optional trailing connector
            return group
        if tok.kind == T.LPAREN:
            group = self._parse_regex_group()
            self.match(T.RARROW)
            return group
        if tok.kind == T.DASHES:
            # --name(cond)--> outgoing
            self.advance()
            name, is_variant, cond, label = self._parse_edge_core()
            self.expect(T.RARROW, "'-->'")
            return self._spanned(EdgeStep(name, DIR_OUT, is_variant, cond, label), tok)
        if tok.kind == T.LARROW:
            # <--name(cond)-- incoming
            self.advance()
            name, is_variant, cond, label = self._parse_edge_core()
            self.expect(T.DASHES, "'--'")
            return self._spanned(EdgeStep(name, DIR_IN, is_variant, cond, label), tok)
        raise self.error("expected an edge step ('--', '<--' or regex group)")

    def _parse_edge_core(self):
        label = self._parse_label()
        if self.match(T.LBRACKET):
            self.expect(T.RBRACKET)
            return None, True, None, label
        name = self.expect_ident("edge type name")
        cond = None
        if self.check(T.LPAREN):
            self.advance()
            if not self.match(T.RPAREN):
                cond = self._parse_expr()
                self.expect(T.RPAREN)
        return name, False, cond, label

    def _parse_regex_group(self) -> RegexGroup:
        start = self.peek()
        self.expect(T.LPAREN)
        pairs: list[tuple[EdgeStep, VertexStep]] = []
        while not self.check(T.RPAREN):
            edge = self._parse_edge_or_regex()
            if isinstance(edge, RegexGroup):
                raise self.error("nested path regular expressions are not supported")
            vertex = self._parse_vertex_step()
            pairs.append((edge, vertex))
        self.expect(T.RPAREN)
        if not pairs:
            raise self.error("empty path regular expression group")
        if self.match(T.STAR):
            return self._spanned(RegexGroup(pairs, REGEX_STAR), start)
        if self.match(T.PLUS):
            return self._spanned(RegexGroup(pairs, REGEX_PLUS), start)
        if self.match(T.LBRACE):
            num = self.expect(T.NUMBER, "repetition count")
            self.expect(T.RBRACE)
            return self._spanned(RegexGroup(pairs, REGEX_COUNT, int(num.value)), start)
        raise self.error("expected '*', '+' or '{n}' after regex group")

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self.check_kw("or"):
            tok = self.advance()
            left = self._spanned(BinOp("or", left, self._parse_and()), tok)
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self.check_kw("and"):
            tok = self.advance()
            left = self._spanned(BinOp("and", left, self._parse_not()), tok)
        return left

    def _parse_not(self) -> Expr:
        if self.check_kw("not"):
            tok = self.advance()
            return self._spanned(Not(self._parse_not()), tok)
        return self._parse_comparison()

    def _parse_comparison(self) -> Expr:
        left = self._parse_additive()
        tok = self.peek()
        if tok.kind in (T.EQ, T.NE, T.BANG_NE, T.LT, T.LE, T.GT, T.GE):
            self.advance()
            op = "<>" if tok.kind == T.BANG_NE else tok.kind
            return self._spanned(BinOp(op, left, self._parse_additive()), tok)
        if tok.is_keyword("is"):
            self.advance()
            negated = self.match_kw("not")
            self.expect_kw("null")
            return self._spanned(IsNull(left, negated), tok)
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while self.peek().kind in (T.PLUS, T.MINUS):
            tok = self.advance()
            left = self._spanned(
                BinOp(tok.kind, left, self._parse_multiplicative()), tok
            )
        return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while self.peek().kind in (T.STAR, T.SLASH):
            tok = self.advance()
            left = self._spanned(BinOp(tok.kind, left, self._parse_unary()), tok)
        return left

    def _parse_unary(self) -> Expr:
        if self.check(T.MINUS):
            tok = self.advance()
            operand = self._parse_unary()
            if isinstance(operand, Const) and isinstance(operand.value, (int, float)):
                return self._spanned(Const(-operand.value), tok)
            return self._spanned(BinOp("-", Const(0), operand), tok)
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == T.NUMBER:
            self.advance()
            return self._spanned(Const(tok.value), tok)
        if tok.kind == T.STRING:
            self.advance()
            return self._spanned(Const(tok.value), tok)
        if tok.kind == T.PARAM:
            self.advance()
            return self._spanned(Param(tok.value), tok)
        if tok.is_keyword("true"):
            self.advance()
            return self._spanned(Const(True), tok)
        if tok.is_keyword("false"):
            self.advance()
            return self._spanned(Const(False), tok)
        if tok.kind == T.LPAREN:
            self.advance()
            expr = self._parse_expr()
            self.expect(T.RPAREN)
            return expr
        if tok.kind == T.IDENT:
            self.advance()
            if self.check(T.DOT) and self.peek(1).kind == T.IDENT:
                self.advance()
                attr = self.expect_ident("attribute name")
                return self._spanned(ColRef(tok.value, attr), tok)
            return self._spanned(ColRef(None, tok.value), tok)
        raise self.error(f"expected an expression, got {tok.kind} {tok.value!r}")


def parse_script(text: str) -> Script:
    """Parse a complete GraQL script."""
    return Parser(tokenize(text)).parse_script()


def parse_statement(text: str) -> Statement:
    """Parse exactly one GraQL statement."""
    parser = Parser(tokenize(text))
    stmt = parser.parse_statement()
    tok = parser.peek()
    if tok.kind != T.EOF:
        raise ParseError(
            f"trailing input after statement: {tok.value!r}", tok.line, tok.column
        )
    return stmt


def parse_expression(text: str) -> Expr:
    """Parse a standalone GraQL expression (tests / tooling)."""
    parser = Parser(tokenize(text))
    expr = parser._parse_expr()
    tok = parser.peek()
    if tok.kind != T.EOF:
        raise ParseError(
            f"trailing input after expression: {tok.value!r}", tok.line, tok.column
        )
    return expr
