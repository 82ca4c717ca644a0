"""Vectorized relational operators — the Table I operation set.

The paper's relational subset (Table I) comprises: select (selection +
projection), order by, group by, distinct, count/avg/min/max/sum, top n,
and ``as`` aliasing.  Edge-view construction (Eq. 2) additionally needs
equi-joins.  All operators here work on whole columns with NumPy kernels:

* predicates -> boolean masks (``repro.storage.expr``),
* grouping and distinct -> key *factorization* (:func:`column_codes`, the
  one kernel every key factorization in ``repro.storage`` goes through:
  dense int64 codes in value order, NULL its own lowest group), then
  ``bincount`` / ``minimum.at`` reductions,
* joins -> factorize both sides to shared codes, sort one side, and expand
  match ranges with ``searchsorted`` + ``repeat`` (no Python row loops),
* ordering -> stable ``lexsort`` over per-key rank codes so ascending /
  descending mixes are exact.

A varchar column is factorized by hashing: one C-level dict pass maps
every row to the first row holding its value, and only the distinct
values are sorted — never the Python strings of every row.

Row-index arrays (int64) are the currency between operators; data columns
are gathered once at the end.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.dtypes import FLOAT, INTEGER, DataType
from repro.dtypes.datatypes import KIND_NUMERIC
from repro.errors import ExecutionError
from repro.storage import idsets
from repro.storage.column import Column
from repro.storage.expr import Env, Expr, evaluate_predicate
from repro.storage.schema import ColumnDef, Schema
from repro.storage.table import Table

AGGREGATE_FUNCS = ("count", "sum", "avg", "min", "max")


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------

def filter_table(table: Table, condition: Expr | None) -> Table:
    """``where`` — keep rows satisfying *condition* (None keeps all)."""
    if condition is None:
        return table
    mask = evaluate_predicate(condition, Env.from_table(table))
    return table.filter(mask)


# ----------------------------------------------------------------------
# Key factorization (shared machinery for distinct / group by / join)
# ----------------------------------------------------------------------

def _sorted_codes(values: np.ndarray) -> np.ndarray:
    """Dense codes of a NULL-free sortable array: ``codes[i]`` is the rank
    of row *i*'s value among the distinct values (``np.unique``'s
    ``return_inverse``), from one argsort and one run-boundary pass."""
    order = np.argsort(values)
    ranked = values[order]
    head = np.empty(len(values), dtype=bool)
    head[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
    codes = np.empty(len(values), dtype=np.int64)
    codes[order] = np.cumsum(head) - 1
    return codes


def _object_codes(data: np.ndarray) -> np.ndarray:
    """Value-ordered codes of an object (varchar) array, NULL (None) first.

    Rows are hashed, not sorted: ``seen.setdefault`` maps each row to the
    first row holding its value in one C-level pass, and only the distinct
    values are argsorted.
    """
    n = len(data)
    seen: dict = {}
    first = np.fromiter(map(seen.setdefault, data, range(n)), np.int64, n)
    null_row = seen.pop(None, None)
    distinct = np.fromiter(seen, object, len(seen))
    rank = np.empty(len(seen), dtype=np.int64)
    rank[np.argsort(distinct)] = np.arange(len(seen)) + (null_row is not None)
    by_row = np.empty(n, dtype=np.int64)
    by_row[np.fromiter(seen.values(), np.int64, len(seen))] = rank
    if null_row is not None:
        by_row[null_row] = 0
    return by_row[first]


def _null_first_codes(data: np.ndarray, nulls: np.ndarray) -> np.ndarray:
    """:func:`_sorted_codes` of the non-NULL rows, shifted past code 0
    when there are NULLs, which take it."""
    if not nulls.any():
        return _sorted_codes(data)
    codes = np.zeros(len(data), dtype=np.int64)
    codes[~nulls] = _sorted_codes(data[~nulls]) + 1
    return codes


def column_codes(col: Column) -> np.ndarray:
    """Dense int64 codes for one column, following the order of its values.

    NULL is a group of its own with the lowest code (0): never merged with
    ``''``, ``-inf`` or any other real value.  Varchar columns are hashed
    (see :func:`_object_codes`); numeric, date and boolean columns take
    the sort path with their NULLs set aside.
    """
    if col.data.dtype == np.dtype(object):
        return _object_codes(col.data)
    return _null_first_codes(col.data, col.null_mask())


def factorize(table: Table, key_names: Sequence[str]) -> np.ndarray:
    """Combine one or more key columns into group codes.

    Equal rows (on the keys) share a code, and codes follow the key order
    (first key major).  Codes are *not* dense across the combination —
    callers densify them (see :func:`group_rows`).
    """
    if not key_names:
        return np.zeros(table.num_rows, dtype=np.int64)
    codes = column_codes(table.column(key_names[0]))
    for name in key_names[1:]:
        c = column_codes(table.column(name))
        codes = codes * (int(c.max(initial=-1)) + 1) + c
    return codes


def group_rows(table: Table, key_names: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group rows on the keys.

    Returns ``(group_ids, first_row_index, inverse)`` where ``inverse[i]``
    is the group of row *i*, ``first_row_index[g]`` is the first row of
    group *g*, and ``group_ids`` is ``arange(ngroups)``.  Groups follow the
    order of the key values, NULL first.

    One key's codes are dense already; several keys' combined codes are
    made dense by one more :func:`_sorted_codes` pass.  No rows are sorted
    to find ``first``: ``minimum.at`` keeps each group's smallest row.
    """
    codes = factorize(table, key_names)
    if len(key_names) > 1:
        codes = _sorted_codes(codes)
    ngroups = int(codes.max(initial=-1)) + 1
    first = np.full(ngroups, len(codes), dtype=np.int64)
    np.minimum.at(first, codes, np.arange(len(codes)))
    return np.arange(ngroups), first, codes


# ----------------------------------------------------------------------
# Distinct
# ----------------------------------------------------------------------

def distinct(table: Table, subset: Sequence[str] | None = None) -> Table:
    """``distinct`` — drop duplicate rows (first occurrence wins)."""
    keys = list(subset) if subset else table.schema.names()
    if table.num_rows == 0:
        return table
    _, first, _ = group_rows(table, keys)
    return table.take(np.sort(first))


# ----------------------------------------------------------------------
# Ordering / top n
# ----------------------------------------------------------------------

def order_by(table: Table, keys: Sequence[tuple[str, bool]]) -> Table:
    """``order by`` — *keys* is [(column, ascending)], major key first.

    Stable: ties preserve input order.  Descending works for every kind by
    sorting on negated rank codes.  NULL ranks below every value: first
    ascending, last descending.
    """
    if table.num_rows == 0 or not keys:
        return table
    rank_arrays = []
    for name, ascending in keys:
        codes = column_codes(table.column(name))
        rank_arrays.append(codes if ascending else -codes)
    # lexsort's last key is primary
    order = np.lexsort(tuple(reversed(rank_arrays)))
    return table.take(order)


def top_n(table: Table, n: int) -> Table:
    """``top n`` — the first *n* rows in current order."""
    if n < 0:
        raise ExecutionError(f"top n requires n >= 0, got {n}")
    return table.head(n)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

class AggSpec:
    """One aggregate in a select list: ``count(*) as groupCount``."""

    __slots__ = ("func", "arg", "alias")

    def __init__(self, func: str, arg: str | None, alias: str) -> None:
        func = func.lower()
        if func not in AGGREGATE_FUNCS:
            raise ExecutionError(f"unknown aggregate function {func!r}")
        self.func = func
        self.arg = arg  # None means '*'
        self.alias = alias

    def result_type(self, table: Table) -> DataType:
        if self.func == "count":
            return INTEGER
        if self.arg is None:
            raise ExecutionError(f"{self.func}(*) is not defined")
        t = table.schema.type_of(self.arg)
        if self.func in ("sum", "avg"):
            if t.kind != KIND_NUMERIC:
                raise ExecutionError(
                    f"{self.func}() requires a numeric column, got {t.ddl()}"
                )
            return FLOAT if (self.func == "avg" or t == FLOAT) else INTEGER
        return t  # min/max keep the column type

    def __repr__(self) -> str:
        return f"AggSpec({self.func}({self.arg or '*'}) as {self.alias})"


def _agg_values(spec: AggSpec, table: Table, inv: np.ndarray, ngroups: int) -> np.ndarray:
    if spec.func == "count":
        if spec.arg is None:
            return np.bincount(inv, minlength=ngroups).astype(np.int64)
        nm = table.column(spec.arg).null_mask()
        return np.bincount(inv[~nm], minlength=ngroups).astype(np.int64)
    col = table.column(spec.arg)
    nm = col.null_mask()
    valid = ~nm
    vinv = inv[valid]
    if spec.func in ("sum", "avg"):
        vals = col.data[valid].astype(np.float64)
        sums = np.bincount(vinv, weights=vals, minlength=ngroups)
        if spec.func == "sum":
            if spec.result_type(table) == INTEGER:
                return sums.astype(np.int64)
            return sums
        counts = np.bincount(vinv, minlength=ngroups)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    # min / max
    if col.data.dtype == np.dtype(object):
        # string min/max: sort by (group, value); min = first row of each
        # group run, max = last
        out = np.empty(ngroups, dtype=object)
        order = np.lexsort((column_codes(col)[valid], vinv))
        gs = vinv[order]
        ks = col.data[valid][order]
        if len(gs):
            starts = np.flatnonzero(np.r_[True, gs[1:] != gs[:-1]])
            pick = starts if spec.func == "min" else np.r_[starts[1:], len(gs)] - 1
            out[gs[pick]] = ks[pick]
        return out
    vals = col.data[valid]
    init = np.iinfo(np.int64).max if vals.dtype == np.int64 else np.inf
    if spec.func == "max":
        init = np.iinfo(np.int64).min + 1 if vals.dtype == np.int64 else -np.inf
    out = np.full(ngroups, init, dtype=vals.dtype)
    if spec.func == "min":
        np.minimum.at(out, vinv, vals)
    else:
        np.maximum.at(out, vinv, vals)
    # groups with no valid rows -> NULL sentinel
    present = np.zeros(ngroups, dtype=bool)
    present[vinv] = True
    if vals.dtype == np.float64:
        out[~present] = np.nan
    else:
        out[~present] = table.schema.type_of(spec.arg).null_value
    return out


def group_by_aggregate(
    table: Table,
    group_cols: Sequence[str],
    aggs: Sequence[AggSpec],
    result_name: str = "result",
) -> Table:
    """``group by`` + aggregate list -> one row per group.

    With no group columns, the whole table forms a single group (standard
    SQL aggregate-query behaviour), including for an empty input when every
    aggregate is a count.
    """
    if group_cols:
        _, first, inv = group_rows(table, group_cols)
        ngroups = len(first)
    else:
        first = np.zeros(min(1, table.num_rows), dtype=np.int64)
        inv = np.zeros(table.num_rows, dtype=np.int64)
        ngroups = 1
    out_defs: list[ColumnDef] = []
    out_cols: list[Column] = []
    for g in group_cols:
        dtype = table.schema.type_of(g)
        out_defs.append(ColumnDef(g, dtype))
        out_cols.append(table.column(g).take(first))
    for spec in aggs:
        dtype = spec.result_type(table)
        vals = _agg_values(spec, table, inv, ngroups)
        out_defs.append(ColumnDef(spec.alias, dtype))
        out_cols.append(Column(dtype, np.asarray(vals)))
    return Table(result_name, Schema(out_defs), out_cols)


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------

def _shared_codes(lcols: Sequence[Column], rcols: Sequence[Column]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Encode both sides' key tuples with one shared code space.

    Returns (lcodes, rcodes, lvalid, rvalid); NULL keys are invalid and
    never join.
    """
    nl = len(lcols[0]) if lcols else 0
    nr = len(rcols[0]) if rcols else 0
    lcodes = np.zeros(nl, dtype=np.int64)
    rcodes = np.zeros(nr, dtype=np.int64)
    lvalid = np.ones(nl, dtype=bool)
    rvalid = np.ones(nr, dtype=bool)
    for lc, rc in zip(lcols, rcols):
        lnull, rnull = lc.null_mask(), rc.null_mask()
        both = np.concatenate([lc.data, rc.data])
        if both.dtype == np.dtype(object):
            inv = _object_codes(both)
        else:
            inv = _null_first_codes(both, np.concatenate([lnull, rnull]))
        k = int(inv.max(initial=-1)) + 1
        lcodes = lcodes * k + inv[:nl]
        rcodes = rcodes * k + inv[nl:]
        lvalid &= ~lnull
        rvalid &= ~rnull
    return lcodes, rcodes, lvalid, rvalid


def join_indices(
    left: Table,
    right: Table,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
) -> tuple[np.ndarray, np.ndarray]:
    """Inner equi-join: all matching (left_row, right_row) index pairs.

    Fully vectorized: shared-code factorization, stable sort of the right
    side, ``searchsorted`` range lookup, and ``repeat``-based expansion.
    """
    if len(left_keys) != len(right_keys) or not left_keys:
        raise ExecutionError("join requires equal, non-empty key lists")
    lcols = [left.column(k) for k in left_keys]
    rcols = [right.column(k) for k in right_keys]
    lcodes, rcodes, lvalid, rvalid = _shared_codes(lcols, rcols)
    lidx = np.flatnonzero(lvalid)
    ridx = np.flatnonzero(rvalid)
    lc = lcodes[lidx]
    rc = rcodes[ridx]
    order = np.argsort(rc, kind="stable")
    rs = rc[order]
    lo = np.searchsorted(rs, lc, side="left")
    hi = np.searchsorted(rs, lc, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    li_rep = np.repeat(np.arange(len(lc)), counts)
    starts = np.repeat(lo, counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    ri_sorted = order[starts + offsets]
    return lidx[li_rep], ridx[ri_sorted]


def join_tables(
    left: Table,
    right: Table,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    left_prefix: str = "",
    right_prefix: str = "",
    name: str = "join",
) -> Table:
    """Inner equi-join materialized as a table.

    Column-name collisions between the sides must be resolved by prefixes;
    a collision without prefixes raises.
    """
    li, ri = join_indices(left, right, left_keys, right_keys)
    defs: list[ColumnDef] = []
    cols: list[Column] = []
    for cdef, col in zip(left.schema, left.columns):
        defs.append(ColumnDef(left_prefix + cdef.name, cdef.dtype))
        cols.append(col.take(li))
    for cdef, col in zip(right.schema, right.columns):
        defs.append(ColumnDef(right_prefix + cdef.name, cdef.dtype))
        cols.append(col.take(ri))
    return Table(name, Schema(defs), cols)


def semi_join_mask(
    left: Table,
    right: Table,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
) -> np.ndarray:
    """Boolean mask over *left* rows having at least one match in *right*."""
    lcols = [left.column(k) for k in left_keys]
    rcols = [right.column(k) for k in right_keys]
    lcodes, rcodes, lvalid, rvalid = _shared_codes(lcols, rcols)
    mask = np.zeros(left.num_rows, dtype=bool)
    mask[lvalid] = idsets.in_sorted(lcodes[lvalid], idsets.unique(rcodes[rvalid]))
    return mask


def union_all(tables: Sequence[Table], name: str = "union") -> Table:
    """Concatenate same-schema tables."""
    if not tables:
        raise ExecutionError("union of zero tables")
    out = tables[0]
    for t in tables[1:]:
        out = out.concat(t)
    return Table(name, out.schema, out.columns)
