"""Unit tests for the vectorized relational operators (Table I set)."""

import numpy as np
import pytest

from repro.dtypes import FLOAT, INTEGER, VarChar
from repro.errors import ExecutionError
from repro.graql.parser import parse_expression
from repro.storage import Schema, Table, relops
from repro.storage.relops import AggSpec

S = Schema.of(("id", VarChar(10)), ("grp", VarChar(10)), ("n", INTEGER), ("x", FLOAT))
ROWS = [
    ("a", "g1", 5, 1.0),
    ("b", "g2", 3, 2.0),
    ("c", "g1", 7, 3.0),
    ("d", "g2", 1, 4.0),
    ("e", "g1", 5, 5.0),
    ("f", None, 9, float("nan")),
]
T = Table.from_rows("T", S, ROWS)


class TestFilter:
    def test_basic(self):
        out = relops.filter_table(T, parse_expression("n >= 5"))
        assert {r[0] for r in out.to_rows()} == {"a", "c", "e", "f"}

    def test_none_keeps_all(self):
        assert relops.filter_table(T, None).num_rows == 6


class TestDistinct:
    def test_full_row(self):
        doubled = T.concat(T)
        assert relops.distinct(doubled).num_rows == 6

    def test_subset(self):
        out = relops.distinct(T, ["grp"])
        assert out.num_rows == 3  # g1, g2, NULL

    def test_first_occurrence_wins(self):
        out = relops.distinct(T, ["n"])
        ids = [r[0] for r in out.to_rows()]
        assert "a" in ids and "e" not in ids  # both n=5, 'a' first

    def test_empty(self):
        empty = Table("E", S)
        assert relops.distinct(empty).num_rows == 0


class TestOrderBy:
    def test_ascending(self):
        out = relops.order_by(T, [("n", True)])
        assert [r[2] for r in out.to_rows()] == [1, 3, 5, 5, 7, 9]

    def test_descending(self):
        out = relops.order_by(T, [("n", False)])
        assert [r[2] for r in out.to_rows()] == [9, 7, 5, 5, 3, 1]

    def test_multi_key_mixed(self):
        out = relops.order_by(T, [("grp", True), ("n", False)])
        rows = out.to_rows()
        # NULL group sorts first, then g1 descending by n, then g2
        assert rows[0][0] == "f"
        g1 = [r for r in rows if r[1] == "g1"]
        assert [r[2] for r in g1] == [7, 5, 5]

    def test_stability(self):
        out = relops.order_by(T, [("n", True)])
        fives = [r[0] for r in out.to_rows() if r[2] == 5]
        assert fives == ["a", "e"]  # input order preserved on ties

    def test_string_descending(self):
        out = relops.order_by(T, [("id", False)])
        assert out.row(0)[0] == "f"


class TestTopN:
    def test_top(self):
        assert relops.top_n(T, 2).num_rows == 2

    def test_top_zero(self):
        assert relops.top_n(T, 0).num_rows == 0

    def test_top_larger_than_table(self):
        assert relops.top_n(T, 100).num_rows == 6

    def test_negative_raises(self):
        with pytest.raises(ExecutionError):
            relops.top_n(T, -1)


class TestGroupBy:
    def test_count_star(self):
        out = relops.group_by_aggregate(T, ["grp"], [AggSpec("count", None, "c")])
        d = dict(out.to_rows())
        assert d["g1"] == 3 and d["g2"] == 2 and d[None] == 1

    def test_count_column_skips_nulls(self):
        out = relops.group_by_aggregate(T, [], [AggSpec("count", "x", "c")])
        assert out.row(0)[0] == 5  # one NaN excluded

    def test_sum(self):
        out = relops.group_by_aggregate(T, ["grp"], [AggSpec("sum", "n", "s")])
        d = dict(out.to_rows())
        assert d["g1"] == 17 and d["g2"] == 4

    def test_avg(self):
        out = relops.group_by_aggregate(T, ["grp"], [AggSpec("avg", "x", "a")])
        d = dict(out.to_rows())
        assert d["g1"] == pytest.approx(3.0)

    def test_min_max_numeric(self):
        out = relops.group_by_aggregate(
            T, ["grp"], [AggSpec("min", "n", "lo"), AggSpec("max", "n", "hi")]
        )
        d = {r[0]: (r[1], r[2]) for r in out.to_rows()}
        assert d["g1"] == (5, 7) and d["g2"] == (1, 3)

    def test_min_max_strings(self):
        out = relops.group_by_aggregate(
            T, ["grp"], [AggSpec("min", "id", "lo"), AggSpec("max", "id", "hi")]
        )
        d = {r[0]: (r[1], r[2]) for r in out.to_rows()}
        assert d["g1"] == ("a", "e") and d["g2"] == ("b", "d")

    def test_whole_table_aggregate(self):
        out = relops.group_by_aggregate(
            T, [], [AggSpec("sum", "n", "s"), AggSpec("count", None, "c")]
        )
        assert out.num_rows == 1
        assert out.row(0) == (30, 6)

    def test_multi_column_group(self):
        out = relops.group_by_aggregate(
            T, ["grp", "n"], [AggSpec("count", None, "c")]
        )
        assert out.num_rows == 5  # (g1,5) merges a and e

    def test_sum_on_string_rejected(self):
        with pytest.raises(ExecutionError):
            relops.group_by_aggregate(T, [], [AggSpec("sum", "id", "s")])

    def test_agg_star_non_count_rejected(self):
        with pytest.raises(ExecutionError):
            relops.group_by_aggregate(T, [], [AggSpec("avg", None, "a")])

    def test_unknown_func_rejected(self):
        with pytest.raises(ExecutionError):
            AggSpec("median", "n", "m")


class TestNullIsItsOwnGroup:
    """NULL never merges with a real value: not with ``''`` in a varchar
    key, not with ``-inf`` in a float key."""

    K = Table.from_rows(
        "K",
        Schema.of(("k", VarChar(4)), ("v", INTEGER)),
        [("", 1), (None, 2), ("a", 3), (None, 4)],
    )
    F = Table.from_rows(
        "F",
        Schema.of(("x", FLOAT), ("v", INTEGER)),
        [(float("-inf"), 1), (float("nan"), 2), (1.0, 3), (float("nan"), 4)],
    )

    @pytest.fixture
    def db(self):
        from repro import Database

        db = Database()
        db.execute("create table T(k varchar(4), v integer)")
        db.ingest_rows("T", [("", 1), (None, 2), ("a", 3), (None, 4)])
        return db

    def test_group_by_statement(self, db):
        (res,) = db.execute("select k, count(*) as n from table T group by k")
        assert [tuple(r) for r in res.table.to_rows()] == [(None, 2), ("", 1), ("a", 1)]

    def test_distinct_statement(self, db):
        (res,) = db.execute("select distinct k from table T")
        assert [r[0] for r in res.table.to_rows()] == ["", None, "a"]

    def test_order_by_statement(self, db):
        (res,) = db.execute("select k, v from table T order by k asc")
        assert [r[1] for r in res.table.to_rows()] == [2, 4, 1, 3]
        (res,) = db.execute("select k, v from table T order by k desc")
        assert [r[1] for r in res.table.to_rows()] == [3, 1, 2, 4]

    def test_varchar_group_by(self):
        out = relops.group_by_aggregate(self.K, ["k"], [AggSpec("sum", "v", "s")])
        assert out.to_rows() == [(None, 6), ("", 1), ("a", 3)]

    def test_float_group_by(self):
        out = relops.group_by_aggregate(self.F, ["x"], [AggSpec("sum", "v", "s")])
        xs = out.column("x").data
        assert np.isnan(xs[0]) and xs[1:].tolist() == [float("-inf"), 1.0]
        assert out.column("s").data.tolist() == [6, 1, 3]

    def test_multi_key_group_by(self):
        t = Table.from_rows(
            "M",
            Schema.of(("k", VarChar(4)), ("x", FLOAT)),
            [("", float("-inf")), (None, float("nan")), ("", float("nan")), (None, float("-inf"))],
        )
        assert relops.distinct(t).num_rows == 4
        out = relops.group_by_aggregate(t, ["k", "x"], [AggSpec("count", None, "c")])
        assert out.column("k").data.tolist() == [None, None, "", ""]
        assert out.column("c").data.tolist() == [1, 1, 1, 1]

    def test_distinct(self):
        assert relops.distinct(self.K, ["k"]).column("k").data.tolist() == ["", None, "a"]
        assert relops.distinct(self.F, ["x"]).num_rows == 3

    def test_order_by_null_first_ascending(self):
        asc = relops.order_by(self.K, [("k", True)])
        assert asc.column("v").data.tolist() == [2, 4, 1, 3]
        desc = relops.order_by(self.F, [("x", False)])
        assert desc.column("v").data.tolist() == [3, 1, 2, 4]

    def test_column_codes(self):
        assert relops.column_codes(self.K.column("k")).tolist() == [1, 0, 2, 0]
        assert relops.column_codes(self.F.column("x")).tolist() == [1, 0, 2, 0]

    def test_string_min_max_skip_null(self):
        out = relops.group_by_aggregate(
            self.K, [], [AggSpec("min", "k", "lo"), AggSpec("max", "k", "hi")]
        )
        assert out.row(0) == ("", "a")

    def test_hash_index(self):
        from repro.storage.indexes import HashIndex

        idx = HashIndex(self.K, ["k"])
        assert len(idx) == 3
        assert idx.lookup(("",)).tolist() == [0]
        assert idx.lookup((None,)).tolist() == [1, 3]
        fidx = HashIndex(self.F, ["x"])
        assert len(fidx) == 3
        assert fidx.lookup((float("-inf"),)).tolist() == [0]


class TestJoins:
    L = Table.from_rows(
        "L",
        Schema.of(("k", VarChar(4)), ("v", INTEGER)),
        [("a", 1), ("b", 2), ("a", 3), (None, 4)],
    )
    R = Table.from_rows(
        "R",
        Schema.of(("k", VarChar(4)), ("w", INTEGER)),
        [("a", 10), ("c", 20), ("a", 30), (None, 40)],
    )

    def test_join_indices_duplicates(self):
        li, ri = relops.join_indices(self.L, self.R, ["k"], ["k"])
        pairs = {(int(a), int(b)) for a, b in zip(li, ri)}
        # rows 0,2 of L match rows 0,2 of R -> 4 pairs
        assert pairs == {(0, 0), (0, 2), (2, 0), (2, 2)}

    def test_nulls_never_join(self):
        li, ri = relops.join_indices(self.L, self.R, ["k"], ["k"])
        assert 3 not in li.tolist() and 3 not in ri.tolist()

    def test_join_tables_prefixes(self):
        out = relops.join_tables(
            self.L, self.R, ["k"], ["k"], left_prefix="l_", right_prefix="r_"
        )
        assert out.schema.names() == ["l_k", "l_v", "r_k", "r_w"]
        assert out.num_rows == 4

    def test_multi_key_join(self):
        li, ri = relops.join_indices(self.L, self.L, ["k", "v"], ["k", "v"])
        # each non-null row matches itself exactly
        assert sorted(zip(li.tolist(), ri.tolist())) == [(0, 0), (1, 1), (2, 2)]

    def test_empty_join(self):
        li, ri = relops.join_indices(self.L, self.R, ["v"], ["w"])
        assert len(li) == 0

    def test_mismatched_keys_raise(self):
        with pytest.raises(ExecutionError):
            relops.join_indices(self.L, self.R, ["k"], [])

    def test_semi_join_mask(self):
        mask = relops.semi_join_mask(self.L, self.R, ["k"], ["k"])
        assert mask.tolist() == [True, False, True, False]

    def test_join_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        lrows = [(int(rng.integers(5)),) for _ in range(50)]
        rrows = [(int(rng.integers(5)),) for _ in range(50)]
        sch = Schema.of(("k", INTEGER))
        lt = Table.from_rows("L", sch, lrows)
        rt = Table.from_rows("R", sch, rrows)
        li, ri = relops.join_indices(lt, rt, ["k"], ["k"])
        got = sorted(zip(li.tolist(), ri.tolist()))
        expected = sorted(
            (i, j)
            for i, (lk,) in enumerate(lrows)
            for j, (rk,) in enumerate(rrows)
            if lk == rk
        )
        assert got == expected


class TestUnion:
    def test_union_all(self):
        out = relops.union_all([T, T, T])
        assert out.num_rows == 18

    def test_union_empty_list(self):
        with pytest.raises(ExecutionError):
            relops.union_all([])
