"""Relational statement execution — the Table I operation set.

``select [top n] [distinct] items from table T [where ...] [group by ...]
[order by ...] [into table X]`` executes as the classic pipeline:
selection -> grouping/aggregation (or projection) -> distinct -> order by
-> top n, all on the vectorized operators of
:mod:`repro.storage.relops`.  An aggregating select continues from its
group table in :func:`select_from_groups`, which is also where a
pipelined pair (:mod:`repro.engine.pipeline`) hands its merged partials.
"""

from __future__ import annotations

from repro.errors import ExecutionError
from repro.graph.graphdb import GraphDB
from repro.graql.ast import AggItem, AttrItem, StarItem, TableSelect
from repro.storage import relops
from repro.storage.relops import AggSpec
from repro.storage.table import Table


def execute_table_select(db: GraphDB, stmt: TableSelect) -> Table:
    """Run one relational select; returns the (unregistered) result."""
    working = relops.filter_table(db.table(stmt.source), stmt.where)
    aggs = select_aggregates(stmt)
    if stmt.group_by or aggs:
        grouped = relops.group_by_aggregate(
            working, stmt.group_by, aggs, result_name=stmt.source
        )
        return select_from_groups(stmt, grouped)
    if not (len(stmt.items) == 1 and isinstance(stmt.items[0], StarItem)):
        # SQL allows ordering by source columns that are not projected;
        # order before projecting when some key is source-only
        keys = [(k.column, k.ascending) for k in stmt.order_by]
        projected_names = {
            (i.alias or i.ref.name) for i in stmt.items if isinstance(i, AttrItem)
        }
        if keys and not all(c in projected_names for c, _ in keys):
            if all(working.schema.has(c) for c, _ in keys):
                working = relops.order_by(working, keys)
                stmt = _without_order(stmt)
        names = []
        renames = {}
        for item in stmt.items:
            assert isinstance(item, AttrItem)
            names.append(item.ref.name)
            if item.alias:
                renames[item.ref.name] = item.alias
        working = working.project(names)
        if renames:
            working = working.rename_columns(renames)
    return _finish(stmt, working)


def select_aggregates(stmt: TableSelect) -> list[AggSpec]:
    """The aggregates of *stmt*'s select list, each named by its alias."""
    return [
        AggSpec(i.func, i.arg, i.alias or _default_agg_alias(i))
        for i in stmt.items
        if isinstance(i, AggItem)
    ]


def select_from_groups(stmt: TableSelect, grouped: Table) -> Table:
    """Finish an aggregating select from its group table (group columns,
    then :func:`select_aggregates`): project in select-list order, apply
    aliases, then distinct, order by and top n."""
    names = []
    for item in stmt.items:
        if isinstance(item, AggItem):
            names.append(item.alias or _default_agg_alias(item))
        elif isinstance(item, AttrItem):
            names.append(item.ref.name)
        else:
            raise ExecutionError("select * cannot be combined with aggregates")
    working = grouped.project(names)
    # apply aliases on plain columns
    renames = {
        i.ref.name: i.alias
        for i in stmt.items
        if isinstance(i, AttrItem) and i.alias
    }
    if renames:
        working = working.rename_columns(renames)
    return _finish(stmt, working)


def _finish(stmt: TableSelect, working: Table) -> Table:
    """distinct -> order by -> top n, named for the ``into`` table."""
    if stmt.distinct:
        working = relops.distinct(working)
    if stmt.order_by:
        keys = [(k.column, k.ascending) for k in stmt.order_by]
        for col, _ in keys:
            if not working.schema.has(col):
                raise ExecutionError(
                    f"order by column {col!r} is not in the select output"
                )
        working = relops.order_by(working, keys)
    if stmt.top is not None:
        working = relops.top_n(working, stmt.top)
    result_name = stmt.into.name if stmt.into is not None else "result"
    return Table(result_name, working.schema, working.columns)


def _default_agg_alias(item: AggItem) -> str:
    return f"{item.func}_{item.arg}" if item.arg else item.func


def _without_order(stmt: TableSelect) -> TableSelect:
    """Copy of *stmt* with the (already applied) order-by removed."""
    return TableSelect(
        stmt.items,
        stmt.source,
        stmt.top,
        stmt.distinct,
        stmt.where,
        stmt.group_by,
        (),
        stmt.into,
    )
