"""PlanCache: canonical keys, LRU behavior, epoch invalidation."""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve.cache import PlanCache, canonical_script, params_signature


class TestCanonicalScript:
    def test_whitespace_collapses(self):
        a = "select  name\n  from table People\twhere age > 30"
        b = "select name from table People where age > 30"
        assert canonical_script(a) == canonical_script(b)

    def test_leading_trailing_stripped(self):
        assert canonical_script("  select 1  ") == canonical_script("select 1")

    def test_quoted_strings_kept_verbatim(self):
        a = "select * from graph P (name = 'two  spaces')"
        b = "select * from graph P (name = 'two spaces')"
        assert canonical_script(a) != canonical_script(b)
        # whitespace outside the literal still collapses
        c = "select  *  from graph P (name = 'two  spaces')"
        assert canonical_script(a) == canonical_script(c)

    def test_different_scripts_stay_different(self):
        assert canonical_script("select a from table T") != canonical_script(
            "select b from table T"
        )


class TestParamsSignature:
    def test_order_insensitive(self):
        assert params_signature({"a": 1, "b": 2}) == params_signature(
            {"b": 2, "a": 1}
        )

    def test_values_matter(self):
        assert params_signature({"a": 1}) != params_signature({"a": 2})

    def test_empty_and_none_equal(self):
        assert params_signature(None) == params_signature({}) == ()


class TestPlanCache:
    def test_store_lookup_roundtrip(self):
        cache = PlanCache(capacity=4)
        key = cache.key("select 1", None, 0)
        assert cache.lookup(key) is None
        cache.store(key, ["resolution"])
        entry = cache.lookup(key)
        assert entry is not None
        assert entry.checked == ["resolution"]
        assert entry.epoch == 0
        assert cache.hits == 1 and cache.misses == 1

    def test_epoch_is_part_of_the_key(self):
        cache = PlanCache(capacity=4)
        cache.store(cache.key("select 1", None, 0), ["old"])
        assert cache.lookup(cache.key("select 1", None, 1)) is None

    def test_params_are_part_of_the_key(self):
        cache = PlanCache(capacity=4)
        cache.store(cache.key("q", {"a": 1}, 0), ["one"])
        assert cache.lookup(cache.key("q", {"a": 2}, 0)) is None

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        k1, k2, k3 = (cache.key(f"q{i}", None, 0) for i in range(3))
        cache.store(k1, ["1"])
        cache.store(k2, ["2"])
        cache.lookup(k1)  # refresh k1; k2 becomes LRU
        cache.store(k3, ["3"])
        assert cache.lookup(k2) is None
        assert cache.lookup(k1) is not None
        assert cache.lookup(k3) is not None
        assert len(cache) == 2

    def test_invalidate_clears_everything(self):
        cache = PlanCache(capacity=4)
        for i in range(3):
            cache.store(cache.key(f"q{i}", None, 0), [i])
        cache.invalidate()
        assert len(cache) == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_hit_miss_metrics(self):
        m = MetricsRegistry()
        cache = PlanCache(capacity=4, metrics=m)
        key = cache.key("q", None, 0)
        cache.lookup(key)
        cache.store(key, ["r"])
        cache.lookup(key)
        assert m.value("graql_plan_cache_misses_total") == 1
        assert m.value("graql_plan_cache_hits_total") == 1


class TestIndexDdlInvalidation:
    """Index DDL is a catalog write: cached plans chosen before an index
    existed (or before it was dropped) must not survive it."""

    # no ``into`` clause: pure reads are the cacheable statements
    Q = (
        "select y.id from graph Person (country = 'US') --follows--> "
        "def y: Person ( )"
    )

    def test_create_index_invalidates_and_replans(self):
        from repro.obs import Hints, QueryOptions
        from tests.conftest import build_social_db

        db = build_social_db()
        db.execute(self.Q)
        assert len(db.server.cache) == 1
        db.execute("create index by_country on Person(country)")
        assert len(db.server.cache) == 0
        r = db.execute(self.Q)[0]
        assert r.profile.cache_hit is False
        # the new index is visible to the post-invalidation plan
        r2 = db.execute(
            self.Q,
            options=QueryOptions(hints=Hints(use_index=("by_country",))),
        )[0]
        assert r2.profile.atoms[0].access == "index-seek(by_country)"

    def test_drop_index_invalidates(self):
        from tests.conftest import build_social_db

        db = build_social_db()
        db.execute("create index by_country on Person(country)")
        db.execute(self.Q)
        assert len(db.server.cache) == 1
        db.execute("drop index by_country")
        assert len(db.server.cache) == 0
        r = db.execute(self.Q)[0]
        assert r.profile.cache_hit is False
        assert r.profile.atoms[0].access == "scan"

    def test_index_ddl_bumps_epoch(self):
        from tests.conftest import build_social_db

        db = build_social_db()
        e0 = db.catalog.epoch
        db.execute("create index by_age on Person(age)")
        assert db.catalog.epoch > e0
        db.execute("drop index by_age")
        assert db.catalog.epoch > e0 + 1
