"""Vertex scalar-access paths."""


class TestScalarAccess:
    def test_key_tuples_cached(self, social_db):
        vt = social_db.db.vertex_type("Person")
        a = vt.key_tuples()
        b = vt.key_tuples()
        assert a is b  # cached

    def test_refresh_clears_caches(self, social_db):
        vt = social_db.db.vertex_type("Person")
        vt.key_tuples()
        assert vt.vid_of(("p1",)) == 0
        social_db.db.ingest_rows(
            "People", [("p9", "Zed", "JP", 44, 1.0, 735700)]
        )
        assert vt.vid_of(("p9",)) is not None
