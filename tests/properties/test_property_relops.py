"""Property-based tests: relational-operator algebraic laws, and the
key-factorization kernel against the ``np.unique`` code it replaced.

``column_codes`` must equal ``np.unique(sort_key(), return_inverse=True)``
and ``group_by_aggregate`` / ``distinct`` / ``order_by`` / string
``min``/``max`` must equal the ``np.unique``-based implementation kept
below verbatim as the reference (``_ref_*``), on every input where a NULL
does not collide with a real value (``''`` for varchar, ``-inf`` for
float) — the one case where the two are meant to differ.
"""

import datetime as dt

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.dtypes import DATE, FLOAT, INTEGER, VarChar
from repro.dtypes.values import DATE_NULL, INT_NULL
from repro.graql.parser import parse_expression
from repro.storage import ColumnDef, Schema, Table, relops
from repro.storage.column import Column
from repro.storage.expr import BinOp, ColRef, Const
from repro.storage.relops import AggSpec

SCHEMA = Schema.of(("g", VarChar(2)), ("n", INTEGER), ("m", INTEGER))

rows_st = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", None]),
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=-5, max_value=5),
    ),
    max_size=40,
)


def table_of(rows) -> Table:
    return Table.from_rows("T", SCHEMA, rows)


ints = st.integers(min_value=-5, max_value=5)


@given(rows_st, ints, ints)
@settings(max_examples=80, deadline=None)
def test_filter_conjunction_equals_sequential(rows, a, b):
    t = table_of(rows)
    c1 = BinOp(">", ColRef(None, "n"), Const(a))
    c2 = BinOp("<", ColRef(None, "m"), Const(b))
    both = relops.filter_table(t, BinOp("and", c1, c2))
    seq = relops.filter_table(relops.filter_table(t, c1), c2)
    assert both.to_rows() == seq.to_rows()


@given(rows_st, ints)
@settings(max_examples=80, deadline=None)
def test_filter_commutes(rows, a):
    t = table_of(rows)
    c1 = BinOp(">", ColRef(None, "n"), Const(a))
    c2 = BinOp("=", ColRef(None, "g"), Const("a"))
    ab = relops.filter_table(relops.filter_table(t, c1), c2)
    ba = relops.filter_table(relops.filter_table(t, c2), c1)
    assert ab.to_rows() == ba.to_rows()


@given(rows_st)
@settings(max_examples=80, deadline=None)
def test_distinct_idempotent(rows):
    t = table_of(rows)
    once = relops.distinct(t)
    twice = relops.distinct(once)
    assert once.to_rows() == twice.to_rows()


@given(rows_st)
@settings(max_examples=80, deadline=None)
def test_distinct_is_set_of_rows(rows):
    t = table_of(rows)
    assert sorted(
        relops.distinct(t).to_rows(), key=repr
    ) == sorted(set(t.to_rows()), key=repr)


@given(rows_st)
@settings(max_examples=80, deadline=None)
def test_order_by_is_permutation(rows):
    t = table_of(rows)
    out = relops.order_by(t, [("n", True), ("m", False)])
    assert sorted(out.to_rows(), key=repr) == sorted(t.to_rows(), key=repr)


@given(rows_st)
@settings(max_examples=80, deadline=None)
def test_order_by_sorted(rows):
    t = table_of(rows)
    out = relops.order_by(t, [("n", True)])
    ns = [r[1] for r in out.to_rows()]
    assert ns == sorted(ns)


@given(rows_st, st.integers(min_value=0, max_value=50))
@settings(max_examples=80, deadline=None)
def test_top_n_is_prefix(rows, n):
    t = table_of(rows)
    out = relops.top_n(t, n)
    assert out.to_rows() == t.to_rows()[:n]


@given(rows_st)
@settings(max_examples=80, deadline=None)
def test_group_counts_sum_to_rows(rows):
    t = table_of(rows)
    g = relops.group_by_aggregate(t, ["g"], [AggSpec("count", None, "c")])
    if t.num_rows:
        assert sum(r[1] for r in g.to_rows()) == t.num_rows
    else:
        assert g.num_rows == 0  # SQL: GROUP BY on empty input yields no rows


@given(rows_st)
@settings(max_examples=80, deadline=None)
def test_group_sums_match_python(rows):
    t = table_of(rows)
    g = relops.group_by_aggregate(t, ["g"], [AggSpec("sum", "n", "s")])
    expected: dict = {}
    for grp, n, _ in rows:
        expected[grp] = expected.get(grp, 0) + n
    got = dict(g.to_rows())
    assert got == expected


@given(rows_st)
@settings(max_examples=80, deadline=None)
def test_min_max_bound_each_group(rows):
    t = table_of(rows)
    g = relops.group_by_aggregate(
        t, ["g"], [AggSpec("min", "n", "lo"), AggSpec("max", "n", "hi")]
    )
    for grp, lo, hi in g.to_rows():
        vals = [r[1] for r in rows if r[0] == grp]
        assert lo == min(vals) and hi == max(vals)


@given(rows_st, rows_st)
@settings(max_examples=60, deadline=None)
def test_join_matches_bruteforce(lrows, rrows):
    lt = table_of(lrows)
    rt = table_of(rrows)
    li, ri = relops.join_indices(lt, rt, ["g", "n"], ["g", "n"])
    got = sorted(zip(li.tolist(), ri.tolist()))
    expected = sorted(
        (i, j)
        for i, (lg, ln, _) in enumerate(lrows)
        for j, (rg, rn, _) in enumerate(rrows)
        if lg is not None and lg == rg and ln == rn
    )
    assert got == expected


@given(rows_st)
@settings(max_examples=60, deadline=None)
def test_join_symmetry(rows):
    t = table_of(rows)
    li, ri = relops.join_indices(t, t, ["g"], ["g"])
    pairs = set(zip(li.tolist(), ri.tolist()))
    assert {(b, a) for a, b in pairs} == pairs


@given(rows_st)
@settings(max_examples=60, deadline=None)
def test_semi_join_matches_membership(rows):
    t = table_of(rows)
    half = t.head(t.num_rows // 2)
    mask = relops.semi_join_mask(t, half, ["n"], ["n"])
    half_ns = {r[1] for r in half.to_rows()}
    for i, row in enumerate(t.to_rows()):
        assert mask[i] == (row[1] in half_ns)


# ----------------------------------------------------------------------
# The reference: the np.unique-based factorization, verbatim
# ----------------------------------------------------------------------


def _ref_column_codes(col):
    _, inv = np.unique(col.sort_key(), return_inverse=True)
    return inv.astype(np.int64)


def _ref_factorize(table, key_names):
    if not key_names:
        return np.zeros(table.num_rows, dtype=np.int64), 1
    codes = _ref_column_codes(table.column(key_names[0]))
    bound = int(codes.max(initial=-1)) + 1
    for name in key_names[1:]:
        c = _ref_column_codes(table.column(name))
        k = int(c.max(initial=-1)) + 1
        codes = codes * k + c
        bound *= max(k, 1)
    return codes, bound


def _ref_group_rows(table, key_names):
    codes, _ = _ref_factorize(table, key_names)
    uniq, first, inv = np.unique(codes, return_index=True, return_inverse=True)
    return np.arange(len(uniq)), first, inv


def _ref_distinct(table, subset=None):
    keys = list(subset) if subset else table.schema.names()
    if table.num_rows == 0:
        return table
    _, first, _ = _ref_group_rows(table, keys)
    return table.take(np.sort(first))


def _ref_order_by(table, keys):
    if table.num_rows == 0 or not keys:
        return table
    rank_arrays = []
    for name, ascending in keys:
        codes = _ref_column_codes(table.column(name))
        rank_arrays.append(codes if ascending else -codes)
    order = np.lexsort(tuple(reversed(rank_arrays)))
    return table.take(order)


def _ref_agg_values(spec, table, inv, ngroups):
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
    if col.data.dtype == np.dtype(object):
        out = np.empty(ngroups, dtype=object)
        key = col.sort_key()[valid]
        order = np.lexsort((key, vinv))
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
    present = np.zeros(ngroups, dtype=bool)
    present[vinv] = True
    if vals.dtype == np.float64:
        out[~present] = np.nan
    else:
        out[~present] = table.schema.type_of(spec.arg).null_value
    return out


def _ref_group_by_aggregate(table, group_cols, aggs, result_name="result"):
    if group_cols:
        _, first, inv = _ref_group_rows(table, group_cols)
        ngroups = len(first)
    else:
        first = np.zeros(min(1, table.num_rows), dtype=np.int64)
        inv = np.zeros(table.num_rows, dtype=np.int64)
        ngroups = 1
    out_defs = []
    out_cols = []
    for g in group_cols:
        dtype = table.schema.type_of(g)
        out_defs.append(ColumnDef(g, dtype))
        out_cols.append(table.column(g).take(first))
    for spec in aggs:
        dtype = spec.result_type(table)
        vals = _ref_agg_values(spec, table, inv, ngroups)
        out_defs.append(ColumnDef(spec.alias, dtype))
        out_cols.append(Column(dtype, np.asarray(vals)))
    return Table(result_name, Schema(out_defs), out_cols)


# ----------------------------------------------------------------------
# Columns without a NULL/value collision: no '' beside None, no -inf
# beside NaN
# ----------------------------------------------------------------------

DAY0 = dt.date(2016, 1, 1).toordinal()
BIG = 20_000

text_values = st.text(alphabet="abzé", min_size=1, max_size=3)
int_values = st.integers(-50, 50) | st.integers(INT_NULL + 1, 2**63 - 1)
real_values = st.sampled_from([-1e300, -1.5, -0.0, 0.0, 2.0, 1e300, float("inf")]) | st.floats(
    -1e6, 1e6, allow_nan=False
)
day_values = st.integers(-400, 400).map(lambda k: DAY0 + k)

#: kind -> (dtype, non-NULL values, NULL, a 20k-row column from a seed)
KINDS = {
    "varchar": (
        VarChar(4),
        text_values,
        None,
        lambda rng: [None if i % 37 == 0 else f"s{i}" for i in rng.integers(0, 3000, BIG)],
    ),
    "integer": (INTEGER, int_values, INT_NULL, lambda rng: rng.integers(-5000, 5000, BIG).tolist()),
    "float": (FLOAT, real_values, float("nan"), lambda rng: rng.normal(size=BIG).round(2).tolist()),
    "date": (DATE, day_values, DATE_NULL, lambda rng: (DAY0 + rng.integers(0, 700, BIG)).tolist()),
}


def columns_of(kind):
    dtype, vals, null, big = KINDS[kind]
    maybe_null = vals | st.just(null)
    shapes = st.one_of(
        st.just([]),
        maybe_null.map(lambda v: [v]),
        st.tuples(maybe_null, st.integers(2, 40)).map(lambda t: [t[0]] * t[1]),
        st.lists(vals, unique=True, max_size=60),
        st.lists(maybe_null, max_size=60),
    )
    return shapes.map(lambda values: Column.from_values(dtype, values))


class TestColumnCodesEqualsUnique:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(KINDS)).flatmap(columns_of))
    def test_codes(self, col):
        got = relops.column_codes(col)
        assert got.dtype == np.int64
        assert np.array_equal(got, _ref_column_codes(col))

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_20k_rows(self, kind):
        dtype, _, null, big = KINDS[kind]
        rng = np.random.default_rng(len(kind))
        values = [null if rng.random() < 0.05 else v for v in big(rng)]
        col = Column.from_values(dtype, values)
        assert np.array_equal(relops.column_codes(col), _ref_column_codes(col))


# ----------------------------------------------------------------------
# Operators == the reference
# ----------------------------------------------------------------------

OPS_SCHEMA = Schema.of(
    ("s", VarChar(4)), ("t", VarChar(4)), ("n", INTEGER), ("x", FLOAT), ("d", DATE)
)
op_tables = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "ab", "ba", None]),
        st.sampled_from(["z", "é", "zz", None]),
        st.sampled_from([-2, 0, 3, INT_NULL]),
        st.sampled_from([-1.5, 0.0, 2.0, float("inf"), float("nan")]),
        st.sampled_from([DAY0, DAY0 + 1, DATE_NULL]),
    ),
    max_size=40,
).map(lambda rows: Table.from_rows("T", OPS_SCHEMA, rows))
key_lists = st.sampled_from(
    [["s"], ["n"], ["x"], ["d"], ["s", "n"], ["t", "x", "d"], ["s", "t"], ["x", "s"]]
)
AGGS = [
    AggSpec("count", None, "c"),
    AggSpec("count", "x", "cx"),
    AggSpec("sum", "n", "sn"),
    AggSpec("avg", "x", "ax"),
    AggSpec("min", "s", "lo_s"),
    AggSpec("max", "s", "hi_s"),
    AggSpec("min", "t", "lo_t"),
    AggSpec("max", "t", "hi_t"),
    AggSpec("min", "n", "lo_n"),
    AggSpec("max", "x", "hi_x"),
]
order_keys = st.lists(
    st.tuples(st.sampled_from(OPS_SCHEMA.names()), st.booleans()), min_size=1, max_size=3
)


def _assert_same_table(got, want):
    assert got.schema.names() == want.schema.names()
    for g, w in zip(got.columns, want.columns):
        assert g.dtype == w.dtype and g.data.dtype == w.data.dtype
        if w.data.dtype == np.dtype(object):
            assert g.data.tolist() == w.data.tolist()
        else:
            assert np.array_equal(g.data, w.data, equal_nan=w.data.dtype.kind == "f")


class TestOperatorsEqualReference:
    @settings(max_examples=120, deadline=None)
    @given(op_tables, key_lists)
    def test_group_by_aggregate(self, table, keys):
        _assert_same_table(
            relops.group_by_aggregate(table, keys, AGGS),
            _ref_group_by_aggregate(table, keys, AGGS),
        )

    @settings(max_examples=60, deadline=None)
    @given(op_tables)
    def test_whole_table_string_min_max(self, table):
        _assert_same_table(
            relops.group_by_aggregate(table, [], AGGS[4:8]),
            _ref_group_by_aggregate(table, [], AGGS[4:8]),
        )

    @settings(max_examples=100, deadline=None)
    @given(op_tables, key_lists | st.none())
    def test_distinct(self, table, subset):
        _assert_same_table(relops.distinct(table, subset), _ref_distinct(table, subset))

    @settings(max_examples=100, deadline=None)
    @given(op_tables, order_keys)
    def test_order_by(self, table, keys):
        _assert_same_table(relops.order_by(table, keys), _ref_order_by(table, keys))
