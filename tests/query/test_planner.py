"""Unit tests for the dynamic query planner (Section III-B)."""

import pytest

from repro.errors import PlanError
from repro.graql.parser import parse_statement
from repro.graql.typecheck import check_statement
from repro.query.planner import plan_atom, plan_graph_select


def checked(db, text):
    return check_statement(parse_statement(text), db.catalog)


class TestDirectionChoice:
    def test_selective_end_wins(self, berlin_db):
        # person-country filter on the left vs unfiltered producers on the
        # right: starting from the filtered side must be estimated cheaper
        c = checked(
            berlin_db,
            "select * from graph PersonVtx (id = 'person1') <--reviewer-- "
            "ReviewVtx ( ) --reviewFor--> ProductVtx ( ) into subgraph G",
        )
        plan = plan_graph_select(c, berlin_db.catalog)
        ap = next(iter(plan.atom_plans.values()))
        assert ap.direction == "forward"
        assert ap.cost_forward < ap.cost_backward

    def test_reverse_when_selectivity_flips(self, berlin_db):
        c = checked(
            berlin_db,
            "select * from graph PersonVtx ( ) <--reviewer-- ReviewVtx ( ) "
            "--reviewFor--> ProductVtx (id = 'product1') into subgraph G",
        )
        plan = plan_graph_select(c, berlin_db.catalog)
        ap = next(iter(plan.atom_plans.values()))
        assert ap.direction == "backward"

    def test_force_direction(self, berlin_db):
        c = checked(
            berlin_db,
            "select * from graph PersonVtx (id = 'person1') <--reviewer-- "
            "ReviewVtx ( ) into subgraph G",
        )
        plan = plan_graph_select(c, berlin_db.catalog, force_direction="backward")
        assert next(iter(plan.atom_plans.values())).direction == "backward"

    def test_internal_label_ref_pins_forward(self, social_db):
        c = checked(
            social_db,
            "select * from graph def x: Person (country = 'US') --follows--> "
            "Person ( ) --follows--> x into subgraph G",
        )
        plan = plan_graph_select(c, social_db.catalog, force_direction="backward")
        # forced direction is overridden: the label must be defined before
        # its reference during the sweep
        assert next(iter(plan.atom_plans.values())).direction == "forward"


class TestStrategyChoice:
    def test_subgraph_uses_set(self, social_db):
        c = checked(
            social_db,
            "select * from graph Person ( ) --follows--> Person ( ) "
            "into subgraph G",
        )
        assert plan_graph_select(c, social_db.catalog).strategy == "set"

    def test_table_uses_bindings(self, social_db):
        c = checked(
            social_db,
            "select y.id from graph Person ( ) --follows--> def y: Person ( ) "
            "into table T",
        )
        assert plan_graph_select(c, social_db.catalog).strategy == "bindings"

    def test_foreach_forces_bindings_even_for_subgraph(self, social_db):
        c = checked(
            social_db,
            "select * from graph foreach x: Person ( ) --follows--> "
            "Person ( ) --follows--> x into subgraph G",
        )
        assert plan_graph_select(c, social_db.catalog).strategy == "bindings"

    def test_set_strategy_refused_when_bindings_needed(self, social_db):
        c = checked(
            social_db,
            "select * from graph foreach x: Person ( ) --follows--> "
            "Person ( ) --follows--> x into subgraph G",
        )
        with pytest.raises(PlanError):
            plan_graph_select(c, social_db.catalog, force_strategy="set")

    def test_cross_step_condition_forces_bindings(self, social_db):
        c = checked(
            social_db,
            "select * from graph def a: Person ( ) --follows--> "
            "Person (age < a.age) into subgraph G",
        )
        assert c.pattern.needs_bindings
        assert plan_graph_select(c, social_db.catalog).strategy == "bindings"


class TestCostModel:
    def test_costs_positive_and_finite(self, berlin_db):
        c = checked(
            berlin_db,
            "select * from graph OfferVtx ( ) --product--> ProductVtx ( ) "
            "--producer--> ProducerVtx ( ) into subgraph G",
        )
        ap = plan_atom(c.pattern.atoms()[0], berlin_db.catalog)
        assert 0 < ap.cost_forward < float("inf")
        assert 0 < ap.cost_backward < float("inf")

    def test_multi_atom_plans(self, berlin_db):
        c = checked(
            berlin_db,
            "select y.id from graph PersonVtx ( ) <--reviewer-- ReviewVtx ( ) "
            "--reviewFor--> def y: ProductVtx ( ) and "
            "(y --type--> TypeVtx ( )) into table T",
        )
        plan = plan_graph_select(c, berlin_db.catalog)
        assert len(plan.atom_plans) == 2

    def test_bound_label_caps_later_atom(self, social_db):
        c = checked(
            social_db,
            "select * from graph Person (country = 'US') --follows--> "
            "def p: Person ( ) and (p --follows--> Person ( )) "
            "into subgraph G",
        )
        first_atom, second_atom = c.pattern.atoms()
        plan = plan_graph_select(c, social_db.catalog)
        first, second = plan.plan_for(first_atom), plan.plan_for(second_atom)
        p_size = min(first.step_est_forward[2], first.step_est_backward[2])
        assert second.step_est_forward[0] == p_size
        # planned alone, the same atom prices p as a full type scan
        alone = plan_atom(second_atom, social_db.catalog)
        assert alone.step_est_forward[0] > p_size

    def test_bound_edge_label_caps_later_edge_step(self, social_db):
        c = checked(
            social_db,
            "select * from graph def a: Person (country = 'US') "
            "--def f: follows--> Person ( ) and (a --f--> Person ( )) "
            "into subgraph G",
        )
        first_atom, second_atom = c.pattern.atoms()
        plan = plan_graph_select(c, social_db.catalog)
        first, second = plan.plan_for(first_atom), plan.plan_for(second_atom)
        f_size = min(first.step_est_forward[1], first.step_est_backward[1])
        assert second.step_est_backward[1] == f_size
        alone = plan_atom(second_atom, social_db.catalog)
        assert alone.step_est_backward[1] > f_size
