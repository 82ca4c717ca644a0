"""Diagnostic model for the GraQL semantic analyzer.

Every problem the analyzer can report carries a *stable* code: ``GQL0xx``
for errors (the statement cannot execute) and ``GQW1xx`` for warnings
(the statement executes but is probably not what the author meant).
Codes are part of the tool contract — scripts and CI pipelines match on
them — so codes are never renumbered, only retired (docs/ANALYSIS.md).

Exceptions raised by the existing pipeline (lexer, parser, typechecker,
catalog, IR codec) are mapped onto codes by :func:`classify_error`, which
keys on stable message fragments; the raise sites themselves stay
untouched so fail-fast callers see identical behaviour.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import (
    CatalogError,
    GraQLError,
    IRError,
    LexError,
    ParseError,
    TypeCheckError,
)
from repro.graql.tokens import SourceSpan

ERROR = "error"
WARNING = "warning"

# ----------------------------------------------------------------------
# Code registry: code -> (severity, title, default fix-it hint or None)
# ----------------------------------------------------------------------

CODES: dict[str, tuple[str, str, Optional[str]]] = {
    # errors (GQL0xx)
    "GQL001": (ERROR, "syntax error", None),
    "GQL002": (ERROR, "invalid character", None),
    "GQL010": (ERROR, "unknown database object",
               "check the name against \\stats or Database.catalog"),
    "GQL011": (ERROR, "name already in use",
               "pick a fresh name; objects cannot be redefined"),
    "GQL012": (ERROR, "type mismatch", None),
    "GQL013": (ERROR, "unknown attribute or column",
               "check the declared schema of the table or view"),
    "GQL014": (ERROR, "unknown qualifier or step",
               "qualify with a step type name or a 'def'/'foreach' label"),
    "GQL015": (ERROR, "ambiguous reference",
               "label the intended step with 'def Name:'"),
    "GQL016": (ERROR, "invalid label definition",
               "labels must be unique and must not shadow database objects"),
    "GQL017": (ERROR, "ill-formed path pattern", None),
    "GQL018": (ERROR, "statically infeasible step",
               "no data can ever match; check edge endpoint types"),
    "GQL019": (ERROR, "invalid select item", None),
    "GQL020": (ERROR, "unsubstituted parameter",
               "bind it with --param Name=value or query(..., params={...})"),
    "GQL021": (ERROR, "aggregate misuse",
               "aggregate in a table select over a captured result table"),
    "GQL030": (ERROR, "invalid IR",
               "the compiled statement failed verification; recompile"),
    # warnings (GQW1xx)
    "GQW101": (WARNING, "unsatisfiable predicate",
               "the condition can never hold, so the step matches nothing"),
    "GQW102": (WARNING, "tautological predicate",
               "the condition always holds; drop it"),
    "GQW110": (WARNING, "unused label",
               "remove the label or reference it in a condition or select"),
    "GQW111": (WARNING, "label shadows earlier statement's label",
               "rename one of the labels to keep the script readable"),
    "GQW120": (WARNING, "dead statement",
               "its result is overwritten before anything reads it"),
    "GQW130": (WARNING, "unbounded traversal may blow up",
               "bound the repetition with {n} or add selective conditions"),
    "GQW131": (WARNING, "high-fanout variant step",
               "name the vertex type instead of using '[ ]'"),
}


def severity_of(code: str) -> str:
    return CODES[code][0]


def title_of(code: str) -> str:
    return CODES[code][1]


def default_hint(code: str) -> Optional[str]:
    return CODES[code][2]


class Diagnostic:
    """One analyzer finding: code, severity, message, position, hint.

    The class is registry-parameterized so other analyzers can reuse the
    rendering/serialization machinery with their own code space: the
    engine self-analyzer (:mod:`repro.devlint`) subclasses this with its
    ``GDL0xx`` registry while keeping the exact render and JSON shape.
    """

    __slots__ = ("code", "severity", "message", "span", "hint", "statement_index")

    #: code -> (severity, title, default hint); subclasses override
    REGISTRY: dict[str, tuple[str, str, Optional[str]]] = CODES

    def __init__(
        self,
        code: str,
        message: str,
        span: Optional[SourceSpan] = None,
        hint: Optional[str] = None,
        statement_index: Optional[int] = None,
    ) -> None:
        registry = type(self).REGISTRY
        if code not in registry:
            raise ValueError(f"unregistered diagnostic code {code!r}")
        self.code = code
        self.severity = registry[code][0]
        self.message = message
        self.span = span
        self.hint = hint if hint is not None else registry[code][2]
        self.statement_index = statement_index

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    @property
    def location(self) -> str:
        return str(self.span) if self.span is not None else "-"

    def render(self) -> str:
        out = f"{self.location}: {self.severity}[{self.code}]: {self.message}"
        if self.hint:
            out += f"\n    help: {self.hint}"
        return out

    def to_dict(self) -> dict[str, Any]:
        # the key set is pinned (tests/analysis/test_json_schema.py):
        # "hint" is always present — null when the code carries none —
        # so JSON consumers can rely on a stable schema
        d: dict[str, Any] = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "line": self.span.line if self.span else None,
            "column": self.span.column if self.span else None,
            "hint": self.hint,
        }
        if self.statement_index is not None:
            d["statement"] = self.statement_index
        return d

    def __repr__(self) -> str:
        return f"Diagnostic({self.code}, {self.location}, {self.message!r})"


# ----------------------------------------------------------------------
# Exception -> code classification
# ----------------------------------------------------------------------

#: ordered (message fragment, code) rules for TypeCheckError; first match
#: wins, so more specific fragments come first.  Fragments are stable
#: pieces of the raise-site messages in repro/graql/typecheck.py.
_TYPECHECK_RULES: list[tuple[str, str]] = [
    ("already in use", "GQL011"),
    ("unsubstituted parameters", "GQL020"),
    ("defined more than once", "GQL016"),
    ("shadows a database object", "GQL016"),
    ("foreach) labels on edge steps", "GQL016"),
    ("aggregates are not allowed in graph selects", "GQL021"),
    ("unknown aggregate", "GQL021"),
    ("(*) is not defined", "GQL021"),
    ("requires a numeric column", "GQL021"),
    ("must appear in group by", "GQL021"),
    ("combined with group by", "GQL021"),
    ("only valid in graph selects", "GQL019"),
    ("can only be selected", "GQL019"),
    ("cannot produce a subgraph", "GQL019"),
    ("must be qualified with a step", "GQL019"),
    ("ambiguous", "GQL015"),
    ("matches several", "GQL015"),
    ("unknown qualifier", "GQL014"),
    ("unknown step", "GQL014"),
    ("unknown relation", "GQL014"),
    ("no step with that type or label name", "GQL014"),
    ("unknown result subgraph", "GQL010"),
    ("unknown column", "GQL013"),
    ("no such column", "GQL013"),
    ("has no attribute", "GQL013"),
    ("has no column", "GQL013"),
    ("key column", "GQL013"),
    ("statically infeasible", "GQL018"),
    ("cannot leave a step", "GQL018"),
    ("cannot arrive at a step", "GQL018"),
    ("path query must", "GQL017"),
    ("'and' composition requires", "GQL017"),
    ("'or' composition unions", "GQL017"),
    ("unbounded path regular expressions", "GQL017"),
    ("not allowed on variant", "GQL017"),
    ("endpoints must be distinguishable", "GQL017"),
    ("condition is not boolean", "GQL012"),
    ("incompatible types", "GQL012"),
]


def classify_error(exc: GraQLError) -> str:
    """Map a pipeline exception onto its stable diagnostic code."""
    if exc.code is not None:
        return exc.code
    if isinstance(exc, LexError):
        return "GQL002"
    if isinstance(exc, ParseError):
        return "GQL001"
    if isinstance(exc, IRError):
        return "GQL030"
    if isinstance(exc, CatalogError):
        return "GQL010"
    if isinstance(exc, TypeCheckError):
        msg = str(exc)
        for fragment, code in _TYPECHECK_RULES:
            if fragment in msg:
                return code
        return "GQL012"
    return "GQL012"


def diagnostic_from_error(
    exc: GraQLError, statement_index: Optional[int] = None
) -> Diagnostic:
    """Wrap a pipeline exception as a :class:`Diagnostic`.

    Uses the position the typechecker attached via ``with_pos`` (or that
    lex/parse errors carry natively); messages keep their appended
    ``(line L, column C)`` suffix stripped since the span renders it.
    """
    code = classify_error(exc)
    line = getattr(exc, "line", 0) or 0
    column = getattr(exc, "column", 0) or 0
    span = SourceSpan(line, column) if line else None
    msg = str(exc)
    if line:
        suffix = f" (line {line}, column {column})"
        if msg.endswith(suffix):
            msg = msg[: -len(suffix)]
    return Diagnostic(code, msg, span, statement_index=statement_index)
