"""The multi-pass GraQL semantic analyzer (``graql check``).

Runs the full front-end pipeline in *collect-all* mode: lex + parse,
parameter substitution, catalog typechecking (accumulating every error
instead of failing on the first), the lint passes of
:mod:`repro.analysis.passes`, and finally IR verification of every
statement that checked clean.  The result is a flat, source-ordered list
of :class:`~repro.analysis.diagnostics.Diagnostic` with stable codes and
``line:col`` positions.

Entry points: :class:`Analyzer` here, ``Database.analyze`` for sessions,
``graql check`` / ``\\check`` for the CLI and REPL.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Optional

from repro.analysis.diagnostics import Diagnostic, diagnostic_from_error
from repro.analysis.passes import ALL_PASSES
from repro.analysis.verifier import IRVerifier
from repro.catalog import Catalog
from repro.errors import GraQLError, IRError
from repro.graql.ast import Script, span_of
from repro.graql.ir import encode_statement
from repro.graql.params import substitute_script
from repro.graql.parser import parse_script
from repro.graql.typecheck import check_script_collect


class AnalysisResult:
    """Everything one analyzer run found, plus rendering helpers."""

    __slots__ = ("diagnostics", "script", "checked")

    def __init__(
        self,
        diagnostics: list[Diagnostic],
        script: Optional[Script] = None,
        checked: Optional[list] = None,
    ) -> None:
        self.diagnostics = diagnostics
        self.script = script
        self.checked = checked

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if not d.is_error]

    @property
    def ok(self) -> bool:
        """True when the script has no errors (warnings allowed)."""
        return not self.errors

    def exit_code(self, strict: bool = False) -> int:
        """The ``graql check`` exit-code contract: 0 clean, 1 warnings
        under ``--strict``, 2 errors."""
        if self.errors:
            return 2
        if strict and self.warnings:
            return 1
        return 0

    def render_text(self, source_name: str = "<script>") -> str:
        lines = [f"{source_name}: {d.render()}" for d in self.diagnostics]
        ne, nw = len(self.errors), len(self.warnings)
        lines.append(
            f"{source_name}: {ne} error(s), {nw} warning(s)"
            if self.diagnostics
            else f"{source_name}: clean"
        )
        return "\n".join(lines)

    def to_json(self, source_name: str = "<script>") -> str:
        return json.dumps(
            {
                "source": source_name,
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "diagnostics": [d.to_dict() for d in self.diagnostics],
            },
            indent=2,
        )

    def __repr__(self) -> str:
        return (
            f"AnalysisResult(errors={len(self.errors)}, "
            f"warnings={len(self.warnings)})"
        )


def _sort_key(d: Diagnostic):
    stmt = d.statement_index if d.statement_index is not None else 1 << 30
    line = d.span.line if d.span is not None else 1 << 30
    col = d.span.column if d.span is not None else 0
    return (stmt, line, col, d.severity != "error", d.code)


class Analyzer:
    """Multi-pass static analyzer over a catalog snapshot.

    ``verify_ir=False`` skips the IR round-trip (the benchmark harness
    uses it to isolate pass overhead)."""

    def __init__(self, catalog: Catalog, verify_ir: bool = True) -> None:
        self.catalog = catalog
        self.verify_ir = verify_ir

    # ------------------------------------------------------------------
    def analyze(
        self,
        source: str,
        params: Optional[Mapping[str, Any]] = None,
    ) -> AnalysisResult:
        """Analyze a GraQL script; never raises for script defects."""
        try:
            script = parse_script(source)
        except GraQLError as e:
            return AnalysisResult([diagnostic_from_error(e)])
        if params:
            try:
                script = substitute_script(script, params)
            except GraQLError as e:
                return AnalysisResult([diagnostic_from_error(e)], script)
        return self.analyze_script(script)

    def analyze_script(self, script: Script) -> AnalysisResult:
        """Analyze an already-parsed script."""
        diags: list[Diagnostic] = []

        # collect-all typechecking: every error, not just the first;
        # the scratch catalog carries the script's own DDL so later
        # statements' names resolve during IR verification
        checked, errors, scratch = check_script_collect(script, self.catalog)
        for err in errors:
            diags.append(
                diagnostic_from_error(
                    err, statement_index=getattr(err, "statement_index", None)
                )
            )

        # lint passes (warnings only; skip nothing — passes are
        # defensive about partially-resolved statements)
        for pass_fn in ALL_PASSES:
            diags.extend(
                pass_fn(script, catalog=self.catalog, checked=checked)
            )

        # IR verification for statements that checked clean
        if self.verify_ir:
            clean = {
                i
                for i, r in enumerate(checked)
                if r is not None
            }
            erroring = {
                d.statement_index for d in diags if d.is_error
            }
            for i in sorted(clean - erroring):
                stmt = script.statements[i]
                try:
                    IRVerifier(scratch).verify(encode_statement(stmt))
                except IRError as e:
                    d = diagnostic_from_error(e, statement_index=i)
                    d.span = d.span or span_of(stmt)
                    diags.append(d)
        diags.sort(key=_sort_key)
        return AnalysisResult(diags, script, checked)
