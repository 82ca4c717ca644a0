"""Scalar expression trees and their vectorized evaluator.

GraQL conditions appear in three places: ``where`` clauses of vertex/edge
declarations (Figs 3-4), per-step filters of path queries (``country =
%Country1%``), and the relational subset's ``where``.  All three share this
expression representation; the parser builds these nodes directly.

Evaluation is *columnar*: an expression evaluates against an
:class:`Env` that resolves (qualifier, attribute) references to NumPy
arrays, and produces a full-length result array in one vectorized pass.
NULL semantics follow the pragmatic two-valued convention: any comparison
involving NULL is False, and arithmetic involving NULL yields NULL.

Static type inference (:func:`infer_type`) implements the Section III-A
checks: comparing incomparable kinds (e.g. a date against a float) raises
:class:`~repro.errors.TypeCheckError` without touching any data.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Iterator

import numpy as np

from repro.dtypes import (
    BOOLEAN,
    DATE,
    FLOAT,
    INTEGER,
    PARAM,
    DataType,
    VarChar,
    parse_date,
)
from repro.dtypes.datatypes import (
    KIND_BOOL,
    KIND_DATE,
    KIND_NUMERIC,
    KIND_PARAM,
    KIND_STRING,
    common_type,
)
from repro.dtypes.values import DATE_NULL, INT_NULL
from repro.errors import ExecutionError, TypeCheckError

COMPARISON_OPS = ("=", "<>", "!=", "<", "<=", ">", ">=")
ARITHMETIC_OPS = ("+", "-", "*", "/")
LOGICAL_OPS = ("and", "or")


class Expr:
    """Base class for expression nodes (immutable).

    The optional ``span`` slot records the source position the parser saw
    the node at (:class:`~repro.graql.tokens.SourceSpan`); it is metadata
    only and excluded from equality/hashing (subclass ``__slots__`` drive
    both, and none of them lists ``span``).
    """

    __slots__ = ("span",)

    def children(self) -> tuple["Expr", ...]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for c in self.children():
            yield from c.walk()

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return False
        return all(
            getattr(self, s) == getattr(other, s) for s in self.__slots__
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__,) + tuple(
            getattr(self, s) if not isinstance(getattr(self, s), list) else tuple(getattr(self, s))
            for s in self.__slots__
        ))


class Const(Expr):
    """A literal constant.  ``dtype`` is the literal's natural type."""

    __slots__ = ("value", "dtype")

    def __init__(self, value: Any, dtype: DataType | None = None) -> None:
        if dtype is None:
            if isinstance(value, bool):
                dtype = BOOLEAN
                value = int(value)
            elif isinstance(value, int):
                dtype = INTEGER
            elif isinstance(value, float):
                dtype = FLOAT
            elif isinstance(value, str):
                dtype = VarChar(max(1, len(value)))
            else:
                raise TypeError(f"unsupported literal: {value!r}")
        self.value = value
        self.dtype = dtype

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


class Param(Expr):
    """A ``%Name%`` query parameter, replaced before execution."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"Param(%{self.name}%)"


class ColRef(Expr):
    """A reference to an attribute, optionally qualified.

    ``ProductVtx.producer`` parses to ``ColRef("ProductVtx", "producer")``;
    a bare ``country`` inside a step filter parses to
    ``ColRef(None, "country")`` and is resolved against the step's own type.
    """

    __slots__ = ("qualifier", "name")

    def __init__(self, qualifier: str | None, name: str) -> None:
        self.qualifier = qualifier
        self.name = name

    def __repr__(self) -> str:
        q = f"{self.qualifier}." if self.qualifier else ""
        return f"ColRef({q}{self.name})"


class BinOp(Expr):
    """Binary operation: comparison, arithmetic, or logical."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        op = op.lower() if op.lower() in LOGICAL_OPS else op
        if op not in COMPARISON_OPS + ARITHMETIC_OPS + tuple(LOGICAL_OPS):
            raise ValueError(f"unknown operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"BinOp({self.left!r} {self.op} {self.right!r})"


class Not(Expr):
    """Logical negation."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expr) -> None:
        self.operand = operand

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"Not({self.operand!r})"


class IsNull(Expr):
    """``x is null`` / ``x is not null`` test."""

    __slots__ = ("operand", "negated")

    def __init__(self, operand: Expr, negated: bool = False) -> None:
        self.operand = operand
        self.negated = negated

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"IsNull({self.operand!r}, negated={self.negated})"


# ----------------------------------------------------------------------
# Tree utilities
# ----------------------------------------------------------------------

def col_refs(expr: Expr) -> list[ColRef]:
    """All column references in the tree, in traversal order."""
    return [n for n in expr.walk() if isinstance(n, ColRef)]


def params(expr: Expr) -> list[str]:
    """All parameter names in the tree."""
    return [n.name for n in expr.walk() if isinstance(n, Param)]


def _keep_span(src: Expr, dst: Expr) -> Expr:
    span = getattr(src, "span", None)
    if span is not None:
        dst.span = span
    return dst


def substitute_params(expr: Expr, values: dict[str, Any]) -> Expr:
    """Replace every ``Param`` with a ``Const`` from *values* (copying).

    Source spans survive the rewrite so diagnostics on substituted
    conditions still point at the original token positions.
    """
    if isinstance(expr, Param):
        if expr.name not in values:
            raise ExecutionError(f"unbound query parameter %{expr.name}%")
        v = values[expr.name]
        return _keep_span(expr, v if isinstance(v, Const) else Const(v))
    if isinstance(expr, BinOp):
        return _keep_span(expr, BinOp(
            expr.op,
            substitute_params(expr.left, values),
            substitute_params(expr.right, values),
        ))
    if isinstance(expr, Not):
        return _keep_span(expr, Not(substitute_params(expr.operand, values)))
    if isinstance(expr, IsNull):
        return _keep_span(
            expr, IsNull(substitute_params(expr.operand, values), expr.negated)
        )
    return expr


def conjuncts(expr: Expr | None) -> list[Expr]:
    """Split a condition into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinOp) and expr.op == "and":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def conjoin(exprs: list[Expr]) -> Expr | None:
    """Re-combine conjuncts into a single AND tree (None if empty)."""
    if not exprs:
        return None
    out = exprs[0]
    for e in exprs[1:]:
        out = BinOp("and", out, e)
    return out


# ----------------------------------------------------------------------
# Constant folding + interval analysis (static lint support)
# ----------------------------------------------------------------------
#
# These helpers power the GQW101/GQW102 unsatisfiable/tautological
# predicate lints (docs/ANALYSIS.md) and let the planner short-circuit
# statically-empty steps.  They are deliberately conservative: anything
# involving NULL semantics, non-literal operands or unknown columns
# degrades to "unknown" rather than guessing.

def const_fold(expr: Expr) -> Expr:
    """Fold literal subtrees of *expr* to constants (pure, span-keeping).

    ``1 + 2`` becomes ``Const(3)``; ``2 < 1`` becomes ``Const(False)``;
    ``false and x`` becomes ``Const(False)``; column references and
    parameters are left untouched.  Division by a literal zero is *not*
    folded (it surfaces at runtime instead of at fold time).
    """
    if isinstance(expr, Not):
        inner = const_fold(expr.operand)
        if isinstance(inner, Const) and inner.dtype.kind == KIND_BOOL:
            return _keep_span(expr, Const(not bool(inner.value)))
        return _keep_span(expr, Not(inner)) if inner is not expr.operand else expr
    if isinstance(expr, IsNull):
        inner = const_fold(expr.operand)
        if isinstance(inner, Const):
            # a literal is never NULL
            return _keep_span(expr, Const(bool(expr.negated)))
        return expr
    if not isinstance(expr, BinOp):
        return expr
    left = const_fold(expr.left)
    right = const_fold(expr.right)
    if expr.op in LOGICAL_OPS:
        lval = left.value if isinstance(left, Const) and left.dtype.kind == KIND_BOOL else None
        rval = right.value if isinstance(right, Const) and right.dtype.kind == KIND_BOOL else None
        if expr.op == "and":
            if lval == 0 or rval == 0:
                return _keep_span(expr, Const(False))
            if lval is not None and rval is not None:
                return _keep_span(expr, Const(True))
            if lval is not None:
                return right
            if rval is not None:
                return left
        else:  # or
            if (lval is not None and lval != 0) or (rval is not None and rval != 0):
                return _keep_span(expr, Const(True))
            if lval is not None and rval is not None:
                return _keep_span(expr, Const(False))
            if lval is not None:
                return right
            if rval is not None:
                return left
    if isinstance(left, Const) and isinstance(right, Const):
        folded = _fold_literal_binop(expr.op, left, right)
        if folded is not None:
            return _keep_span(expr, folded)
    if left is not expr.left or right is not expr.right:
        return _keep_span(expr, BinOp(expr.op, left, right))
    return expr


def _fold_literal_binop(op: str, left: Const, right: Const) -> Const | None:
    lv, rv = left.value, right.value
    lk, rk = left.dtype.kind, right.dtype.kind
    if op in COMPARISON_OPS:
        if lk != rk:
            return None  # let the typechecker report the mismatch
        if op == "=":
            return Const(lv == rv)
        if op in ("<>", "!="):
            return Const(lv != rv)
        try:
            if op == "<":
                return Const(lv < rv)
            if op == "<=":
                return Const(lv <= rv)
            if op == ">":
                return Const(lv > rv)
            return Const(lv >= rv)
        except TypeError:  # pragma: no cover - mixed uncomparable literals
            return None
    if op in ARITHMETIC_OPS:
        if lk != KIND_NUMERIC or rk != KIND_NUMERIC:
            return None
        if op == "+":
            return Const(lv + rv)
        if op == "-":
            return Const(lv - rv)
        if op == "*":
            return Const(lv * rv)
        if rv == 0:
            return None  # division by literal zero: leave for runtime
        return Const(lv / rv)
    return None


class Interval:
    """A closed/open numeric interval for one column (interval analysis)."""

    __slots__ = ("lo", "lo_open", "hi", "hi_open")

    def __init__(
        self,
        lo: float = float("-inf"),
        hi: float = float("inf"),
        lo_open: bool = False,
        hi_open: bool = False,
    ) -> None:
        self.lo = lo
        self.hi = hi
        self.lo_open = lo_open
        self.hi_open = hi_open

    def intersect(self, other: "Interval") -> "Interval":
        out = Interval(self.lo, self.hi, self.lo_open, self.hi_open)
        if other.lo > out.lo or (other.lo == out.lo and other.lo_open):
            out.lo, out.lo_open = other.lo, other.lo_open
        if other.hi < out.hi or (other.hi == out.hi and other.hi_open):
            out.hi, out.hi_open = other.hi, other.hi_open
        return out

    @property
    def empty(self) -> bool:
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and (self.lo_open or self.hi_open)

    def __repr__(self) -> str:
        lb = "(" if self.lo_open else "["
        rb = ")" if self.hi_open else "]"
        return f"Interval{lb}{self.lo}, {self.hi}{rb}"


def _comparison_interval(op: str, value: float) -> Interval:
    if op == "=":
        return Interval(value, value)
    if op == "<":
        return Interval(hi=value, hi_open=True)
    if op == "<=":
        return Interval(hi=value)
    if op == ">":
        return Interval(lo=value, lo_open=True)
    return Interval(lo=value)  # >=


def _column_comparisons(conj: Expr) -> tuple[str, str, float] | None:
    """``(column_key, op, literal)`` when *conj* compares a column with a
    numeric literal (normalized so the column is on the left)."""
    if not (isinstance(conj, BinOp) and conj.op in COMPARISON_OPS):
        return None
    flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>", "!=": "!="}
    left, right, op = conj.left, conj.right, conj.op
    if isinstance(left, Const) and isinstance(right, ColRef):
        left, right, op = right, left, flip[op]
    if not (isinstance(left, ColRef) and isinstance(right, Const)):
        return None
    if right.dtype.kind != KIND_NUMERIC:
        return None
    key = f"{left.qualifier}.{left.name}" if left.qualifier else left.name
    return key, op, float(right.value)


def predicate_feasibility(expr: Expr | None) -> bool | None:
    """Statically decide a predicate when possible.

    Returns ``False`` when the predicate can never hold (contradictory
    literal comparisons like ``x > 5 and x < 3``, equality conflicts like
    ``x = 1 and x = 2``, or a condition folding to literal false),
    ``True`` when it always holds (folds to literal true), and ``None``
    when undecidable from the expression alone.  Sound, not complete:
    ``None`` is always a safe answer and disjunctions are only decided
    by folding.
    """
    if expr is None:
        return True
    folded = const_fold(expr)
    if isinstance(folded, Const) and folded.dtype.kind == KIND_BOOL:
        return bool(folded.value)
    # interval analysis over the top-level conjunction
    intervals: dict[str, Interval] = {}
    equalities: dict[str, set] = {}
    disequalities: dict[str, set] = {}
    for conj in conjuncts(folded):
        cmp = _column_comparisons(conj)
        if cmp is not None:
            key, op, value = cmp
            if op in ("<>", "!="):
                disequalities.setdefault(key, set()).add(value)
                continue
            iv = intervals.get(key, Interval()).intersect(
                _comparison_interval(op, value)
            )
            intervals[key] = iv
            if iv.empty:
                return False
            continue
        # string/bool equality conflicts: x = 'a' and x = 'b'
        if (
            isinstance(conj, BinOp)
            and conj.op == "="
            and isinstance(conj.left, ColRef)
            and isinstance(conj.right, Const)
        ):
            key = (
                f"{conj.left.qualifier}.{conj.left.name}"
                if conj.left.qualifier
                else conj.left.name
            )
            seen = equalities.setdefault(key, set())
            seen.add(conj.right.value)
            if len(seen) > 1:
                return False
    # point interval excluded by a disequality: x = 5 and x <> 5
    for key, iv in intervals.items():
        if (
            not iv.lo_open
            and not iv.hi_open
            and iv.lo == iv.hi
            and iv.lo in disequalities.get(key, ())
        ):
            return False
    return None


# ----------------------------------------------------------------------
# Static type inference (Section III-A)
# ----------------------------------------------------------------------

TypeResolver = Callable[[str | None, str], DataType]

#: when set, :func:`infer_type` gives unbound ``%Param%`` placeholders the
#: wildcard :data:`~repro.dtypes.PARAM` type instead of raising — used by
#: prepared statements, which typecheck once before any values are bound
_DEFER_PARAMS: ContextVar[bool] = ContextVar("graql_defer_params", default=False)


@contextmanager
def deferred_params() -> Iterator[None]:
    """Typecheck with unbound ``%Param%`` placeholders allowed.

    Inside the context, an unsubstituted parameter infers to the wildcard
    ``PARAM`` type, which unifies with every comparability class; the
    concrete Section III-A check is re-run at execution time once the
    parameter values are bound.  This is what lets
    :meth:`~repro.serve.Connection.prepare` parse and typecheck a script
    exactly once and re-execute it with fresh parameters.
    """
    token = _DEFER_PARAMS.set(True)
    try:
        yield
    finally:
        _DEFER_PARAMS.reset(token)


def infer_type(expr: Expr, resolve: TypeResolver) -> DataType:
    """Infer the type of *expr*, raising ``TypeCheckError`` on misuse.

    *resolve* maps a (qualifier, attribute) pair to the attribute's
    declared type; it raises ``TypeCheckError`` for unknown names.
    String literals are admissible wherever a date is expected (date
    literals are written as quoted strings).
    """
    if isinstance(expr, Const):
        return expr.dtype
    if isinstance(expr, Param):
        if _DEFER_PARAMS.get():
            return PARAM
        raise TypeCheckError(
            f"parameter %{expr.name}% not substituted before type checking"
        )
    if isinstance(expr, ColRef):
        return resolve(expr.qualifier, expr.name)
    if isinstance(expr, Not):
        t = infer_type(expr.operand, resolve)
        if t.kind not in (KIND_BOOL, KIND_PARAM):
            raise TypeCheckError(f"'not' requires a boolean, got {t.ddl()}")
        return BOOLEAN
    if isinstance(expr, IsNull):
        infer_type(expr.operand, resolve)
        return BOOLEAN
    assert isinstance(expr, BinOp)
    lt = infer_type(expr.left, resolve)
    rt = infer_type(expr.right, resolve)
    if expr.op in LOGICAL_OPS:
        if lt.kind not in (KIND_BOOL, KIND_PARAM) or rt.kind not in (
            KIND_BOOL,
            KIND_PARAM,
        ):
            raise TypeCheckError(
                f"'{expr.op}' requires boolean operands, got "
                f"{lt.ddl()} and {rt.ddl()}"
            )
        return BOOLEAN
    # date literals arrive as strings: allow string<->date pairing when one
    # side is a string *literal*
    lt, rt = _coerce_date_literal_types(expr, lt, rt)
    if expr.op in COMPARISON_OPS:
        if lt.kind != rt.kind and KIND_PARAM not in (lt.kind, rt.kind):
            raise TypeCheckError(
                f"cannot compare {lt.ddl()} with {rt.ddl()} "
                f"(operator '{expr.op}')"
            )
        return BOOLEAN
    # arithmetic; a deferred parameter operand is re-checked once bound
    if KIND_PARAM in (lt.kind, rt.kind):
        other = rt if lt.kind == KIND_PARAM else lt
        if other.kind not in (KIND_NUMERIC, KIND_PARAM):
            raise TypeCheckError(
                f"arithmetic '{expr.op}' requires numeric operands, got "
                f"{lt.ddl()} and {rt.ddl()}"
            )
        return FLOAT if expr.op == "/" else (other if other.kind == KIND_NUMERIC else PARAM)
    if lt.kind != KIND_NUMERIC or rt.kind != KIND_NUMERIC:
        raise TypeCheckError(
            f"arithmetic '{expr.op}' requires numeric operands, got "
            f"{lt.ddl()} and {rt.ddl()}"
        )
    if expr.op == "/":
        return FLOAT
    return common_type(lt, rt)


def _coerce_date_literal_types(
    expr: BinOp, lt: DataType, rt: DataType
) -> tuple[DataType, DataType]:
    if lt.kind == KIND_DATE and rt.kind == KIND_STRING and isinstance(expr.right, Const):
        try:
            parse_date(expr.right.value)
        except ValueError:
            raise TypeCheckError(
                f"cannot compare date with non-date string {expr.right.value!r}"
            ) from None
        return lt, DATE
    if rt.kind == KIND_DATE and lt.kind == KIND_STRING and isinstance(expr.left, Const):
        try:
            parse_date(expr.left.value)
        except ValueError:
            raise TypeCheckError(
                f"cannot compare date with non-date string {expr.left.value!r}"
            ) from None
        return DATE, rt
    return lt, rt


# ----------------------------------------------------------------------
# Vectorized evaluation
# ----------------------------------------------------------------------

class Env:
    """Resolution environment for evaluation.

    Subclasses (or instances built with :meth:`from_table`) provide
    ``resolve(qualifier, name) -> (np.ndarray, DataType)`` plus the row
    count ``nrows``; all returned arrays must have ``nrows`` elements.
    """

    def __init__(
        self,
        resolver: Callable[[str | None, str], tuple[np.ndarray, DataType]],
        nrows: int,
    ) -> None:
        self._resolver = resolver
        self.nrows = nrows

    def resolve(self, qualifier: str | None, name: str) -> tuple[np.ndarray, DataType]:
        return self._resolver(qualifier, name)

    @classmethod
    def from_table(cls, table) -> "Env":
        """Environment over a single table; qualifier must be absent or
        match the table name."""

        def resolver(qualifier: str | None, name: str):
            if qualifier is not None and qualifier != table.name:
                raise ExecutionError(
                    f"unknown qualifier {qualifier!r} (table is {table.name!r})"
                )
            col = table.column(name)
            return col.data, col.dtype

        return cls(resolver, table.num_rows)

    @classmethod
    def from_columns(cls, mapping: dict[tuple[str | None, str], tuple[np.ndarray, DataType]], nrows: int) -> "Env":
        def resolver(qualifier: str | None, name: str):
            try:
                return mapping[(qualifier, name)]
            except KeyError:
                raise ExecutionError(
                    f"cannot resolve attribute "
                    f"{qualifier + '.' if qualifier else ''}{name}"
                ) from None

        return cls(resolver, nrows)


def _null_mask_of(arr: np.ndarray, dtype: DataType) -> np.ndarray:
    if arr.dtype == np.dtype(object):
        return np.equal(arr, None)
    if arr.dtype == np.float64:
        return np.isnan(arr)
    if dtype.kind == KIND_DATE:
        return arr == DATE_NULL
    if dtype.kind == KIND_BOOL:
        return arr == -1
    return arr == INT_NULL


#: the null mask of a value no column fed (a literal is never NULL)
_NO_NULLS = np.False_

_COMPARATORS: dict[str, Callable[[Any, Any], Any]] = {
    "=": np.equal,
    "<>": np.not_equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def _eval(expr: Expr, env: Env) -> tuple[np.ndarray, DataType, np.ndarray]:
    """Evaluate to (values, dtype, null_mask).

    A constant stays a 0-d array rather than ``env.nrows`` copies of the
    literal; every operator broadcasts, so a result (or null mask) has
    ``nrows`` elements exactly when a column fed it — :func:`_full`
    widens the others at the top.
    """
    if isinstance(expr, Const):
        value = np.asarray(expr.value, dtype=expr.dtype.numpy_dtype)
        return value, expr.dtype, _NO_NULLS
    if isinstance(expr, Param):
        raise ExecutionError(f"unbound parameter %{expr.name}% at evaluation")
    if isinstance(expr, ColRef):
        arr, dtype = env.resolve(expr.qualifier, expr.name)
        return arr, dtype, _null_mask_of(arr, dtype)
    if isinstance(expr, Not):
        v, t, nm = _eval(expr.operand, env)
        return np.logical_not(v), BOOLEAN, nm
    if isinstance(expr, IsNull):
        _, _, nm = _eval(expr.operand, env)
        out = np.logical_not(nm) if expr.negated else nm
        return out, BOOLEAN, _NO_NULLS
    assert isinstance(expr, BinOp)
    lv, lt, lnull = _eval(expr.left, env)
    rv, rt, rnull = _eval(expr.right, env)
    if expr.op in LOGICAL_OPS:
        combine = np.logical_and if expr.op == "and" else np.logical_or
        return combine(lv, rv), BOOLEAN, _NO_NULLS
    # date-literal coercion: string constant compared against date column
    lv, lt, rv, rt = _coerce_date_values(lv, lt, rv, rt)
    nulls = np.logical_or(lnull, rnull)
    if expr.op in COMPARISON_OPS:
        if lv.dtype == np.dtype(object) or rv.dtype == np.dtype(object):
            # varchar: compare the str objects as they are; a NULL reads
            # as "" so ordering never meets None, and its row is masked
            lv, rv = _fill_null_str(lv, lnull), _fill_null_str(rv, rnull)
        out = np.asarray(_COMPARATORS[expr.op](lv, rv), dtype=bool)
        if nulls.any():
            out[nulls] = False
        return out, BOOLEAN, _NO_NULLS
    # arithmetic
    out_t = FLOAT if (expr.op == "/" or lt == FLOAT or rt == FLOAT) else INTEGER
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = lv.astype(np.float64) if out_t == FLOAT else lv.astype(np.int64)
        b = rv.astype(np.float64) if out_t == FLOAT else rv.astype(np.int64)
        if expr.op == "+":
            out = a + b
        elif expr.op == "-":
            out = a - b
        elif expr.op == "*":
            out = a * b
        else:
            out = a.astype(np.float64) / b.astype(np.float64)
    if out_t == FLOAT:
        out = np.asarray(out, dtype=np.float64)
        if nulls.any():
            out[nulls] = np.nan
        return out, FLOAT, _NO_NULLS
    out = np.asarray(out, dtype=np.int64)
    if nulls.any():
        out[nulls] = INT_NULL
    return out, INTEGER, nulls


def _fill_null_str(v: np.ndarray, nulls: np.ndarray) -> np.ndarray:
    """*v* with its NULLs (None) replaced by "" — a copy only if any."""
    if not nulls.any():
        return v
    v = v.copy()
    v[nulls] = ""
    return v


def _coerce_date_values(lv, lt, rv, rt):
    """A string operand compared with a date becomes date ordinals.

    A literal (0-d) is parsed once; a varchar column row by row.
    """
    if lt.kind == KIND_DATE and rt.kind == KIND_STRING:
        return lv, lt, _parse_dates(rv), DATE
    if rt.kind == KIND_DATE and lt.kind == KIND_STRING:
        return _parse_dates(lv), DATE, rv, rt
    return lv, lt, rv, rt


def _parse_dates(v: np.ndarray) -> np.ndarray:
    if v.ndim == 0:  # a literal, never NULL
        return np.asarray(parse_date(v.item()), dtype=np.int64)
    return np.array(
        [DATE_NULL if t is None else parse_date(t) for t in v], dtype=np.int64
    )


def _full(v: np.ndarray, n: int) -> np.ndarray:
    """*v* as an *n*-element array (a 0-d result came from literals only)."""
    v = np.asarray(v)
    return v if v.ndim else np.full(n, v, dtype=v.dtype)


def evaluate(expr: Expr, env: Env) -> np.ndarray:
    """Evaluate *expr* to a value array of length ``env.nrows``."""
    v, _, _ = _eval(expr, env)
    return _full(v, env.nrows)


def evaluate_predicate(expr: Expr | None, env: Env) -> np.ndarray:
    """Evaluate a condition to a boolean mask (None = all True)."""
    if expr is None:
        return np.ones(env.nrows, dtype=bool)
    v, t, _ = _eval(expr, env)
    if t.kind != KIND_BOOL:
        raise ExecutionError(
            f"condition does not evaluate to a boolean (got {t.ddl()})"
        )
    return _full(v, env.nrows).astype(bool)


def evaluate_scalar(expr: Expr) -> Any:
    """Evaluate a constant expression (no column refs) to a Python value."""
    v, _, nm = _eval(expr, Env.from_columns({}, 1))
    if np.asarray(nm).any():
        return None
    v = _full(v, 1)[0]
    return v.item() if isinstance(v, np.generic) else v
