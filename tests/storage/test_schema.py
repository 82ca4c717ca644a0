"""Unit tests for schemas and secondary indexes."""

import numpy as np
import pytest

from repro.dtypes import INTEGER, VarChar
from repro.errors import CatalogError
from repro.storage import Schema, Table
from repro.storage.indexes import HashIndex, SortedIndex, key_tuple, unique_key_codes
from repro.storage.schema import ColumnDef


class TestSchema:
    def test_of_builder(self):
        s = Schema.of(("a", INTEGER), ("b", VarChar(4)))
        assert s.names() == ["a", "b"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(CatalogError):
            Schema([ColumnDef("a", INTEGER), ColumnDef("a", INTEGER)])

    def test_index_and_type_of(self):
        s = Schema.of(("a", INTEGER), ("b", VarChar(4)))
        assert s.index_of("b") == 1
        assert s.type_of("b") == VarChar(4)

    def test_unknown_column(self):
        s = Schema.of(("a", INTEGER))
        with pytest.raises(CatalogError):
            s.index_of("z")

    def test_subset_preserves_order(self):
        s = Schema.of(("a", INTEGER), ("b", VarChar(4)), ("c", INTEGER))
        sub = s.subset(["c", "a"])
        assert sub.names() == ["c", "a"]

    def test_concat_with_prefix(self):
        a = Schema.of(("x", INTEGER))
        b = Schema.of(("x", INTEGER))
        merged = a.concat(b, prefix="r_")
        assert merged.names() == ["x", "r_x"]

    def test_ddl_rendering(self):
        s = Schema.of(("a", INTEGER), ("b", VarChar(4)))
        ddl = s.ddl()
        assert "a integer" in ddl and "b varchar(4)" in ddl

    def test_equality(self):
        assert Schema.of(("a", INTEGER)) == Schema.of(("a", INTEGER))
        assert Schema.of(("a", INTEGER)) != Schema.of(("a", VarChar(4)))


TBL = Table.from_rows(
    "T",
    Schema.of(("k", VarChar(4)), ("g", VarChar(4)), ("n", INTEGER)),
    [("a", "x", 1), ("b", "y", 2), ("a", "x", 3), ("c", "y", 4)],
)


class TestHashIndex:
    def test_single_key(self):
        idx = HashIndex(TBL, ["k"])
        assert idx.lookup(("a",)).tolist() == [0, 2]
        assert idx.lookup(("b",)).tolist() == [1]

    def test_missing_key_empty(self):
        idx = HashIndex(TBL, ["k"])
        assert len(idx.lookup(("zzz",))) == 0

    def test_composite_key(self):
        idx = HashIndex(TBL, ["k", "g"])
        assert idx.lookup(("a", "x")).tolist() == [0, 2]

    def test_contains_and_len(self):
        idx = HashIndex(TBL, ["k"])
        assert idx.contains(("c",))
        assert len(idx) == 3


class TestSortedIndex:
    def test_lookup_many(self):
        codes = np.asarray([3, 1, 3, 2, 1], dtype=np.int64)
        idx = SortedIndex([codes])
        rows, qidx = idx.lookup_many([np.asarray([1, 3], dtype=np.int64)])
        got = sorted(zip(qidx.tolist(), rows.tolist()))
        assert got == [(0, 1), (0, 4), (1, 0), (1, 2)]

    def test_lookup_no_match(self):
        idx = SortedIndex([np.asarray([5, 6], dtype=np.int64)])
        rows, qidx = idx.lookup_many([np.asarray([1], dtype=np.int64)])
        assert len(rows) == 0 and len(qidx) == 0

    def test_composite_key_lookup_and_extend(self):
        # a skewed leading column: the lookup must narrow on both
        a = np.asarray([0, 0, 1, 0], dtype=np.int64)
        b = np.asarray(["x", "y", "x", "x"], dtype=object)
        idx = SortedIndex([a, b])
        more = idx.extended(
            [np.asarray([0, 1], dtype=np.int64), np.asarray(["y", "x"], dtype=object)],
            np.asarray([4, 5], dtype=np.int64),
        )
        queries = [np.asarray([0, 1, 1], dtype=np.int64), np.asarray(["y", "x", "y"], dtype=object)]
        rows, qidx = idx.lookup_many(queries)
        assert list(zip(qidx.tolist(), rows.tolist())) == [(0, 1), (1, 2)]
        rows, qidx = more.lookup_many(queries)
        assert list(zip(qidx.tolist(), rows.tolist())) == [(0, 1), (0, 4), (1, 2), (1, 5)]


class TestKeyHelpers:
    def test_unique_key_codes(self):
        inv, keys = unique_key_codes(TBL, ["k"])
        assert len(keys) == 3
        # rows 0 and 2 share a key code
        assert inv[0] == inv[2]

    def test_key_tuple(self):
        assert key_tuple(TBL, ["k", "n"], 3) == ("c", 4)
