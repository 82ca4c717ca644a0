"""Ingest is all-or-nothing, and nothing is really nothing.

Two regressions: an ingest whose view refresh raises must leave the
database exactly as it was (table, views, indexes, WAL) and usable; an
ingest of zero rows must refresh nothing, journal nothing and leave the
catalog epoch — hence the plan cache — alone.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.durability.state import state_fingerprint
from repro.errors import CatalogError

DDL = """
create table People(id integer, city varchar(8))
create vertex Person(id) from table People
"""
BY_CITY = "select Person.id from graph Person (city = 'rome')"


def load(db: Database) -> None:
    db.execute(DDL)
    db.ingest_text("People", "1,rome\n2,oslo\n")
    db.execute("create index by_city on Person(city)")


def cached_total(db: Database) -> float:
    return sum(
        v for k, v in db.metrics.snapshot().items()
        if k.startswith("graql_statements_cached_total")
    )


class TestFailedRefreshRollsBack:
    """A duplicate key would turn the one-to-one ``Person`` view
    many-to-one, where ``city`` is no attribute any more and ``by_city``
    has nothing to index."""

    @pytest.mark.parametrize("how", ["text", "rows", "statement"])
    def test_in_memory(self, how, tmp_path):
        db = Database()
        load(db)
        before = state_fingerprint(db.db)
        epoch = db.catalog.epoch
        with pytest.raises(CatalogError, match="by_city") as exc:
            if how == "text":
                db.ingest_text("People", "3,bern\n2,rome\n")
            elif how == "rows":
                db.ingest_rows("People", [(3, "bern"), (2, "rome")])
            else:
                path = tmp_path / "dup.csv"
                path.write_text("3,bern\n2,rome\n")
                db.execute(f"ingest table People '{path}'")
        assert "by_city" in str(exc.value) and "(2,)" in str(exc.value)
        assert state_fingerprint(db.db) == before
        assert db.catalog.epoch == epoch
        # and the table is not wedged: empty and valid ingests go through
        assert db.ingest_text("People", "") == 0
        assert db.ingest_text("People", "3,rome\n") == 1
        assert sorted(r.id for r in db.query(BY_CITY).iter_rows()) == [1, 3]

    def test_durable(self, tmp_path):
        path = str(tmp_path / "db")
        with Database.open(path, fsync="off") as db:
            load(db)
            before = state_fingerprint(db.db)
            seq = db.store.seq
            with pytest.raises(CatalogError, match="by_city"):
                db.ingest_text("People", "2,rome\n")
            assert db.store.seq == seq  # nothing reached the WAL
            assert state_fingerprint(db.db) == before
            db.ingest_text("People", "3,rome\n")
            after = state_fingerprint(db.db)
        with Database.open(path, fsync="off") as recovered:
            assert state_fingerprint(recovered.db) == after
            assert sorted(r.id for r in recovered.query(BY_CITY).iter_rows()) == [1, 3]

    def test_key_only_index_survives_the_flip(self):
        db = Database()
        db.execute(DDL)
        db.execute("create index by_id on Person(id)")
        db.ingest_text("People", "1,rome\n1,oslo\n")
        assert not db.db.vertex_type("Person").one_to_one
        assert db.db.attr_index("by_id").num_entries == 1


class TestZeroRowIngest:
    @pytest.mark.parametrize("how", ["text", "rows", "statement"])
    def test_changes_nothing_and_keeps_the_plan_cache(self, how, tmp_path):
        db = Database.open(str(tmp_path / "db"), fsync="off")
        try:
            load(db)
            db.query(BY_CITY)  # fills the plan cache
            hits = cached_total(db)
            db.query(BY_CITY)
            assert cached_total(db) == hits + 1
            epoch, seq = db.catalog.epoch, db.store.seq
            if how == "text":
                assert db.ingest_text("People", "") == 0
            elif how == "rows":
                assert db.ingest_rows("People", []) == 0
            else:
                path = tmp_path / "empty.csv"
                path.write_text("")
                assert db.execute(f"ingest table People '{path}'")[0].count == 0
            assert (db.catalog.epoch, db.store.seq) == (epoch, seq)
            db.query(BY_CITY)
            assert cached_total(db) == hits + 2  # still a hit
        finally:
            db.close()
