"""The vectorized query kernels against the code they replaced.

* every id-set kernel (:mod:`repro.storage.idsets`) equals its NumPy
  counterpart in dtype and values, on empty, singleton, all-duplicate,
  already-sorted, arbitrary and 20k-element arrays;
* the expression evaluator equals the per-row implementation it replaced,
  which is kept below verbatim as the reference (``_ref_eval``);
* a date literal is parsed once per evaluation, not once per row — a call
  count, not a timing.
"""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtypes import BOOLEAN, DATE, FLOAT, INTEGER, VarChar, parse_date
from repro.dtypes.datatypes import KIND_DATE, KIND_STRING
from repro.dtypes.values import DATE_NULL, INT_NULL
from repro.storage import Schema, Table, idsets
from repro.storage import expr as expr_mod
from repro.storage.column import Column
from repro.storage.expr import (
    ARITHMETIC_OPS,
    BinOp,
    ColRef,
    Const,
    Env,
    IsNull,
    Not,
    _eval,
    evaluate_predicate,
    infer_type,
)

# ----------------------------------------------------------------------
# id-set kernels == NumPy
# ----------------------------------------------------------------------


INT64 = np.iinfo(np.int64)


def _arr(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


def _big(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 30_000, 20_000)


id_arrays = st.one_of(
    st.just(_arr([])),
    st.integers(-5, 5).map(lambda v: _arr([v])),
    st.tuples(st.integers(-3, 3), st.integers(2, 40)).map(
        lambda t: np.full(t[1], t[0], dtype=np.int64)
    ),
    st.lists(st.integers(-40, 40), max_size=50).map(lambda v: _arr(sorted(set(v)))),
    st.lists(st.integers(-40, 40), max_size=50).map(_arr),
    # sparse: membership takes the binary-search path, not the bitmap
    st.lists(st.integers(INT64.min, INT64.max), max_size=20).map(_arr),
    st.integers(0, 2**16).map(_big),
    st.integers(0, 2**16).map(lambda s: np.unique(_big(s))),
)


def _same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


class TestIdSetKernels:
    @settings(max_examples=150, deadline=None)
    @given(id_arrays)
    def test_unique(self, a):
        _same(idsets.unique(a), np.unique(a))

    @settings(max_examples=150, deadline=None)
    @given(id_arrays, id_arrays)
    def test_binary_ops(self, a, b):
        _same(idsets.union(a, b), np.union1d(a, b))
        _same(idsets.intersect(a, b), np.intersect1d(a, b))
        _same(idsets.difference(a, b), np.setdiff1d(a, b))

    @settings(max_examples=150, deadline=None)
    @given(id_arrays, id_arrays)
    def test_in_sorted(self, values, b):
        got = idsets.in_sorted(values, np.sort(b))
        _same(got, np.isin(values, b))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_in_sorted_branches(self, data):
        """Each branch of the bitmap-or-binary-search rule equals
        ``np.isin``: ids off the set's ends, negative ids, empty and
        one-element sets, unsorted values with repeats."""
        branch = data.draw(st.sampled_from(("bitmap", "small", "sparse")))
        base = data.draw(st.integers(-(10**6), 10**6))
        stride = data.draw(st.integers(1, 4))
        members = data.draw(st.lists(st.integers(0, 300), max_size=40, unique=True))
        s = base + stride * _arr(sorted(members))
        if branch == "sparse":
            s = np.unique(np.concatenate((_arr([base]), s, _arr([base + 10**9]))))
        picks = data.draw(
            st.lists(st.integers(-20, 4 * 300 + 20), min_size=1, max_size=60)
        )
        values = base + _arr(picks)
        if branch != "small":
            values = np.tile(values, -(-idsets._BITMAP_MIN_INPUT // len(values)))
        shuffle = np.random.default_rng(data.draw(st.integers(0, 99)))
        values = values[shuffle.permutation(len(values))]
        size = len(values) + len(s)
        if len(s):
            span = int(s[-1]) - int(s[0]) + 1
            bitmap = size >= idsets._BITMAP_MIN_INPUT and (
                span <= idsets._BITMAP_SPAN_RATIO * size
            )
            assert bitmap == (branch == "bitmap")
        _same(idsets.in_sorted(values, s), np.isin(values, s))

    def test_results_hold_the_invariant(self):
        a, b = _big(1), _big(2)
        for out in (
            idsets.unique(a),
            idsets.union(a, b),
            idsets.intersect(a, b),
            idsets.difference(a, b),
        ):
            assert bool((out[1:] > out[:-1]).all())


# ----------------------------------------------------------------------
# The reference: the per-row evaluator the kernels replaced, verbatim
# ----------------------------------------------------------------------


def _ref_null_mask_of(arr, dtype):
    if arr.dtype == np.dtype(object):
        return np.array([v is None for v in arr], dtype=bool)
    if arr.dtype == np.float64:
        return np.isnan(arr)
    if dtype.kind == KIND_DATE:
        return arr == DATE_NULL
    if dtype.kind == "bool":
        return arr == -1
    return arr == INT_NULL


def _ref_broadcast_const(value, dtype, n):
    if dtype.numpy_dtype == np.dtype(object):
        arr = np.empty(n, dtype=object)
        arr[:] = value
        return arr
    return np.full(n, value, dtype=dtype.numpy_dtype)


def _ref_eval(expr, env):
    n = env.nrows
    if isinstance(expr, Const):
        arr = _ref_broadcast_const(expr.value, expr.dtype, n)
        return arr, expr.dtype, np.zeros(n, dtype=bool)
    if isinstance(expr, ColRef):
        arr, dtype = env.resolve(expr.qualifier, expr.name)
        return arr, dtype, _ref_null_mask_of(arr, dtype)
    if isinstance(expr, Not):
        v, t, nm = _ref_eval(expr.operand, env)
        return ~v.astype(bool), BOOLEAN, nm
    if isinstance(expr, IsNull):
        _, _, nm = _ref_eval(expr.operand, env)
        out = ~nm if expr.negated else nm
        return out, BOOLEAN, np.zeros(n, dtype=bool)
    lv, lt, lnull = _ref_eval(expr.left, env)
    rv, rt, rnull = _ref_eval(expr.right, env)
    if expr.op in ("and", "or"):
        lb = lv.astype(bool)
        rb = rv.astype(bool)
        out = (lb & rb) if expr.op == "and" else (lb | rb)
        return out, BOOLEAN, np.zeros(n, dtype=bool)
    lv, lt, rv, rt = _ref_coerce_date_values(lv, lt, rv, rt)
    nulls = lnull | rnull
    if expr.op not in ARITHMETIC_OPS:
        out = _ref_compare(expr.op, lv, rv)
        out[nulls] = False
        return out, BOOLEAN, np.zeros(n, dtype=bool)
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
        out = out.astype(np.float64)
        out[nulls] = np.nan
        return out, FLOAT, np.zeros(n, dtype=bool)
    out = out.astype(np.int64)
    out[nulls] = INT_NULL
    return out, INTEGER, nulls


def _ref_coerce_date_values(lv, lt, rv, rt):
    if lt.kind == KIND_DATE and rt.kind == KIND_STRING:
        rv = np.array(
            [DATE_NULL if v is None else parse_date(v) for v in rv], dtype=np.int64
        )
        rt = DATE
    elif rt.kind == KIND_DATE and lt.kind == KIND_STRING:
        lv = np.array(
            [DATE_NULL if v is None else parse_date(v) for v in lv], dtype=np.int64
        )
        lt = DATE
    return lv, lt, rv, rt


def _ref_compare(op, lv, rv):
    if lv.dtype == np.dtype(object) or rv.dtype == np.dtype(object):
        ls = np.array(["" if v is None else str(v) for v in lv], dtype=object)
        rs = np.array(["" if v is None else str(v) for v in rv], dtype=object)
        lv, rv = ls, rs
    if op == "=":
        return np.asarray(lv == rv, dtype=bool)
    if op in ("<>", "!="):
        return np.asarray(lv != rv, dtype=bool)
    if op == "<":
        return np.asarray(lv < rv, dtype=bool)
    if op == "<=":
        return np.asarray(lv <= rv, dtype=bool)
    if op == ">":
        return np.asarray(lv > rv, dtype=bool)
    return np.asarray(lv >= rv, dtype=bool)


# ----------------------------------------------------------------------
# New evaluator == reference
# ----------------------------------------------------------------------

DAY0 = dt.date(2016, 1, 1).toordinal()
SCHEMA = Schema.of(
    ("s1", VarChar(4)),
    ("s2", VarChar(4)),
    ("d", DATE),
    ("ds", VarChar(10)),
    ("n", INTEGER),
    ("x", FLOAT),
)
OPS = ("=", "<>", "!=", "<", "<=", ">", ">=")

strings = st.sampled_from(["", "a", "ab", "b", "ba", "z", None])
day_offsets = st.integers(-3, 3)
rows = st.tuples(
    strings,
    strings,
    st.one_of(st.just(DATE_NULL), day_offsets.map(lambda k: DAY0 + k)),
    st.one_of(st.none(), day_offsets.map(lambda k: dt.date.fromordinal(DAY0 + k).isoformat())),
    st.one_of(st.just(INT_NULL), st.integers(-3, 3)),
    st.one_of(st.just(float("nan")), st.sampled_from([-1.5, 0.0, 2.0])),
)
tables = st.lists(rows, max_size=25).map(lambda r: Table.from_rows("T", SCHEMA, r))

S1, S2, D, DS, N, X = (ColRef(None, c) for c in ("s1", "s2", "d", "ds", "n", "x"))
date_literals = day_offsets.map(
    lambda k: Const(dt.date.fromordinal(DAY0 + k).strftime("%Y-%m-%d"))
) | st.just(Const("2016/01/02"))


def _both_orders(left, right):
    return st.sampled_from(OPS).flatmap(
        lambda op: st.sampled_from([BinOp(op, left, right), BinOp(op, right, left)])
    )


comparisons = st.one_of(
    _both_orders(S1, S2),
    strings.filter(lambda v: v is not None).flatmap(lambda v: _both_orders(S1, Const(v))),
    date_literals.flatmap(lambda c: _both_orders(D, c)),
    _both_orders(D, DS),
    st.integers(-3, 3).flatmap(lambda v: _both_orders(N, Const(v))),
    st.sampled_from([-1.5, 0.0, 2.0]).flatmap(lambda v: _both_orders(X, Const(v))),
    st.sampled_from(ARITHMETIC_OPS).flatmap(
        lambda op: _both_orders(BinOp(op, N, Const(2)), X)
    ),
)
predicates = st.recursive(
    comparisons
    | st.builds(IsNull, st.sampled_from([S1, D, N, X, Const("a")]), st.booleans()),
    lambda inner: st.builds(Not, inner)
    | st.builds(BinOp, st.sampled_from(["and", "or"]), inner, inner),
    max_leaves=4,
)


def _assert_same_array(got, want):
    got = np.broadcast_to(got, want.shape)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=want.dtype.kind == "f")


class TestEvaluatorEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(tables, predicates)
    def test_eval_equals_per_row_reference(self, table, expr):
        env = Env.from_table(table)
        want_v, want_t, want_nm = _ref_eval(expr, env)
        got_v, got_t, got_nm = _eval(expr, env)
        assert got_t == want_t
        _assert_same_array(got_v, want_v)
        _assert_same_array(got_nm, want_nm)
        _assert_same_array(evaluate_predicate(expr, env), want_v.astype(bool))

    @settings(max_examples=100, deadline=None)
    @given(tables, st.sampled_from(ARITHMETIC_OPS), st.sampled_from([N, X, Const(3)]))
    def test_arithmetic_values(self, table, op, right):
        env = Env.from_table(table)
        expr = BinOp(op, N, right)
        want_v, want_t, want_nm = _ref_eval(expr, env)
        got_v, got_t, got_nm = _eval(expr, env)
        assert got_t == want_t
        _assert_same_array(got_v, want_v)
        _assert_same_array(got_nm, want_nm)


class TestColumnKernels:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(strings, max_size=30))
    def test_varchar_null_mask_and_sort_key(self, values):
        col = Column.from_values(VarChar(4), values)
        want_nm = np.array([v is None for v in values], dtype=bool)
        want_key = np.array(["" if v is None else str(v) for v in values], dtype=object)
        _assert_same_array(col.null_mask(), want_nm)
        _assert_same_array(col.sort_key(), want_key)


# ----------------------------------------------------------------------
# Work-count guard: a date literal is parsed once, not once per row
# ----------------------------------------------------------------------


@pytest.fixture
def parse_date_calls(monkeypatch):
    calls = []

    def counting(text):
        calls.append(text)
        return parse_date(text)

    monkeypatch.setattr(expr_mod, "parse_date", counting)
    return calls


def _dates_table(n: int) -> Table:
    days = DAY0 + np.arange(n) % 700
    days[::97] = DATE_NULL
    return Table("Offers", Schema.of(("validFrom", DATE)), [Column(DATE, days)])


class TestDateLiteralParsedOnce:
    N = 20_000

    @pytest.mark.parametrize("text", ["validFrom <= '2016-06-01'", "'2016-06-01' >= validFrom"])
    def test_check_and_evaluate_parse_at_most_twice(self, parse_date_calls, text):
        from repro.graql.parser import parse_expression

        table = _dates_table(self.N)
        cond = parse_expression(text)
        infer_type(cond, lambda q, name: table.column(name).dtype)
        mask = evaluate_predicate(cond, Env.from_table(table))
        assert len(parse_date_calls) <= 2
        cutoff = dt.date(2016, 6, 1).toordinal()
        days = table.column("validFrom").data
        assert np.array_equal(mask, (days <= cutoff) & (days != DATE_NULL))
