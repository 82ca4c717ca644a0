"""Unit tests for vertex views (Eq. 1 semantics)."""

import numpy as np
import pytest

from repro.dtypes import INTEGER, VarChar
from repro.errors import CatalogError, TypeCheckError
from repro.graph.vertex import VertexType
from repro.graql.parser import parse_expression
from repro.storage import Schema, Table

S = Schema.of(("id", VarChar(10)), ("country", VarChar(8)), ("n", INTEGER))
ROWS = [
    ("a", "US", 1),
    ("b", "DE", 2),
    ("c", "US", 3),
    ("d", "FR", 4),
    ("e", None, 5),
    ("f", "US", 6),
]


def table() -> Table:
    return Table.from_rows("T", S, ROWS)


class TestOneToOne:
    def test_basic(self):
        vt = VertexType("V", ["id"], table())
        assert vt.num_vertices == 6
        assert vt.one_to_one

    def test_keys_in_first_occurrence_order(self):
        vt = VertexType("V", ["id"], table())
        assert vt.key_of(0) == ("a",) and vt.key_of(5) == ("f",)

    def test_vid_of(self):
        vt = VertexType("V", ["id"], table())
        assert vt.vid_of(("c",)) == 2
        assert vt.vid_of(("zzz",)) is None

    def test_all_attributes_visible(self):
        vt = VertexType("V", ["id"], table())
        assert vt.attribute_schema().names() == ["id", "country", "n"]
        arr, dtype = vt.attribute_array("n")
        assert arr.tolist() == [1, 2, 3, 4, 5, 6]

    def test_attributes_of(self):
        vt = VertexType("V", ["id"], table())
        assert vt.attributes_of(1) == {"id": "b", "country": "DE", "n": 2}


class TestManyToOne:
    def test_distinct_keys(self):
        vt = VertexType("VC", ["country"], table())
        # US, DE, FR — the NULL-country row is dropped
        assert vt.num_vertices == 3
        assert not vt.one_to_one

    def test_key_order_first_occurrence(self):
        vt = VertexType("VC", ["country"], table())
        assert [vt.key_of(i) for i in range(3)] == [("US",), ("DE",), ("FR",)]

    def test_row_vids_grouping(self):
        vt = VertexType("VC", ["country"], table())
        us_vid = vt.vid_of(("US",))
        rows_of_us = vt.rows[vt.row_vids == us_vid]
        assert {ROWS[r][0] for r in rows_of_us} == {"a", "c", "f"}

    def test_only_key_attributes_visible(self):
        vt = VertexType("VC", ["country"], table())
        assert vt.attribute_schema().names() == ["country"]
        with pytest.raises(TypeCheckError, match="many-to-one"):
            vt.attribute_type("n")

    def test_composite_key(self):
        vt = VertexType("VK", ["country", "n"], table())
        assert vt.num_vertices == 5  # NULL country dropped


class TestWhereClause:
    def test_selection_applies(self):
        vt = VertexType(
            "V", ["id"], table(), parse_expression("n > 2")
        )
        assert vt.num_vertices == 4

    def test_selection_plus_grouping(self):
        vt = VertexType(
            "VC", ["country"], table(), parse_expression("n >= 3")
        )
        # rows c(US,3), d(FR,4), f(US,6) -> countries US, FR
        assert vt.num_vertices == 2


class TestNullKeys:
    def test_null_key_rows_dropped(self):
        vt = VertexType("VC", ["country"], table())
        assert vt.vid_of((None,)) is None


class TestSelect:
    def test_select_condition(self):
        vt = VertexType("V", ["id"], table())
        out = vt.select(parse_expression("country = 'US'"))
        assert sorted(vt.key_of(int(v))[0] for v in out) == ["a", "c", "f"]

    def test_select_with_candidates(self):
        vt = VertexType("V", ["id"], table())
        cands = np.asarray([0, 1], dtype=np.int64)
        out = vt.select(parse_expression("country = 'US'"), cands)
        assert out.tolist() == [0]

    def test_select_none_condition(self):
        vt = VertexType("V", ["id"], table())
        assert len(vt.select(None)) == 6

    def test_null_comparisons_excluded(self):
        vt = VertexType("V", ["id"], table())
        out = vt.select(parse_expression("country <> 'US'"))
        # the NULL country row never matches <> either
        assert sorted(vt.key_of(int(v))[0] for v in out) == ["b", "d"]


class TestErrors:
    def test_unknown_key_column(self):
        with pytest.raises(CatalogError):
            VertexType("V", ["nope"], table())
