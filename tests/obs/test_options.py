"""QueryOptions validation + removal of the legacy force_* kwargs."""

import dataclasses

import pytest

from repro.obs.options import DEFAULT_OPTIONS, QueryOptions, resolve_options

#: Python's own rejection: no entry point takes the removed kwargs
REMOVED = "unexpected keyword argument 'force_{}'"


class TestQueryOptions:
    def test_defaults(self):
        o = QueryOptions()
        assert o.direction is None
        assert o.strategy is None
        assert o.timeout is None
        assert o.trace is False
        assert o.explain is False
        assert o.profile is True

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"direction": "sideways"},
            {"strategy": "frontier"},
            {"explain": "verbose"},
            {"timeout": 0},
            {"timeout": -1.5},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            QueryOptions(**kwargs)

    def test_frozen(self):
        o = QueryOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            o.direction = "forward"

    def test_with_timeout_fills_only_unset(self):
        assert QueryOptions().with_timeout(2.0).timeout == 2.0
        assert QueryOptions(timeout=1.0).with_timeout(2.0).timeout == 1.0
        o = QueryOptions()
        assert o.with_timeout(None) is o

    def test_wants_analyze(self):
        assert QueryOptions(explain="analyze").wants_analyze
        assert not QueryOptions(explain="plan").wants_analyze
        assert not QueryOptions(explain=True).wants_analyze


class TestResolveOptions:
    def test_bare_call_returns_shared_default(self):
        assert resolve_options() is DEFAULT_OPTIONS

    def test_explicit_options_pass_through(self):
        o = QueryOptions(direction="forward")
        assert resolve_options(o) is o

    def test_legacy_kwargs_are_gone(self):
        with pytest.raises(TypeError):
            resolve_options(force_direction="backward")

    def test_reject_legacy_kwargs_message(self, social_db):
        q = "select name from table People"
        with pytest.raises(TypeError, match=REMOVED.format("direction")):
            social_db.query(q, force_direction="backward")
        with pytest.raises(TypeError, match=REMOVED.format("strategy")):
            social_db.query(q, force_strategy="set")

    def test_reject_unknown_kwarg_plain_typeerror(self, social_db):
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            social_db.execute("select name from table People", bogus=1)


class TestRemovedKwargs:
    """PR 2's deprecation shim is gone: no execution entry point takes
    the kwargs, so each raises Python's own ``TypeError`` (migration
    table: docs/API.md)."""

    def test_execute_force_direction_raises(self, social_db):
        q = (
            "select * from graph Person (country = 'US') --follows--> "
            "Person ( ) into subgraph SH1"
        )
        with pytest.raises(TypeError, match=REMOVED.format("direction")):
            social_db.execute(q, force_direction="backward")
        # and nothing executed: the subgraph does not exist
        assert "SH1" not in social_db.catalog.subgraphs

    def test_query_force_strategy_raises(self, social_db):
        with pytest.raises(TypeError, match=REMOVED.format("strategy")):
            social_db.query(
                "select y.id from graph Person ( ) --follows--> "
                "def y: Person ( ) into table SHT1",
                force_strategy="bindings",
            )

    def test_query_subgraph_raises(self, social_db):
        with pytest.raises(TypeError, match=REMOVED.format("direction")):
            social_db.query_subgraph(
                "select * from graph Person ( ) --follows--> Person ( ) "
                "into subgraph SHS1",
                force_direction="forward",
            )

    def test_server_submit_raises(self):
        from repro.engine.server import Server

        srv = Server()
        srv.submit("admin", "create table T(i integer)")
        with pytest.raises(TypeError, match=REMOVED.format("strategy")):
            srv.submit(
                "admin", "select * from table T", force_strategy="set"
            )

    def test_options_equivalent_still_works(self, social_db):
        r = social_db.execute(
            "select * from graph Person (country = 'US') --follows--> "
            "Person ( ) into subgraph SH2",
            options=QueryOptions(direction="backward"),
        )[0]
        assert r.profile.atoms[0].direction == "backward"
        assert r.profile.atoms[0].forced == "options"

    def test_modern_path_is_warning_free(self, social_db, recwarn):
        social_db.execute(
            "select * from graph Person ( ) --follows--> Person ( ) "
            "into subgraph NW1",
            options=QueryOptions(direction="forward", strategy="set"),
        )
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]

    def test_analyze_rejects_removed_kwargs(self, social_db):
        with pytest.raises(TypeError, match=REMOVED.format("direction")):
            social_db.analyze(
                "select name from table People", force_direction="backward"
            )
