"""Result materialization: subgraphs and tables (paper Section II-C).

Graph-query results have two renderings, matching the data model's
table/graph duality:

* ``into subgraph G`` — a :class:`~repro.graph.subgraph.Subgraph` holding
  the selected per-type vertex/edge id sets (Fig. 11).  Named subgraphs
  can seed later queries (Fig. 12, the ``resQ1.Vn`` notation).
* ``into table T`` (or no ``into``) — a table with one row per matched
  path (Fig. 13: "each row has all the attributes of all entities
  involved in the query path").  Named result tables feed the relational
  subset (the Fig. 6/7 two-statement pattern).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ExecutionError
from repro.graph.graphdb import GraphDB
from repro.graph.subgraph import Subgraph
from repro.graql.ast import AttrItem, GraphSelect, StarItem, StepItem
from repro.graql.typecheck import RVertexStep
from repro.query.bindings import BindingResult
from repro.query.frontier import AtomSets
from repro.storage import idsets
from repro.storage.column import Column
from repro.storage.schema import ColumnDef, Schema
from repro.storage.table import Table

# ----------------------------------------------------------------------
# Name maps: qualifier -> step location
# ----------------------------------------------------------------------

class NameMap:
    """Maps step names (labels and unambiguous type names) to locations.

    A location is ``(atom_ordinal, step_position, RVertexStep)``.
    """

    def __init__(self) -> None:
        self._map: dict[str, tuple[int, int, RVertexStep]] = {}
        self._edges: dict[str, tuple[int, int]] = {}

    def add_atom(self, ordinal: int, atom) -> None:
        from repro.graql.typecheck import REdgeStep

        for pos, step in enumerate(atom.steps):
            if isinstance(step, REdgeStep):
                if step.label is not None and step.label.name not in self._edges:
                    self._edges[step.label.name] = (ordinal, pos)
                continue
            if not isinstance(step, RVertexStep):
                continue
            if step.label is not None and step.label.name not in self._map:
                self._map[step.label.name] = (ordinal, pos, step)
            if not step.is_variant and step.label_ref is None:
                for n in step.names:
                    self._map.setdefault(n, (ordinal, pos, step))

    def lookup(self, name: str) -> tuple[int, int, RVertexStep]:
        if name not in self._map:
            raise ExecutionError(f"unknown step reference {name!r}")
        return self._map[name]

    def lookup_edge(self, name: str) -> tuple[int, int]:
        if name not in self._edges:
            raise ExecutionError(f"unknown edge-step reference {name!r}")
        return self._edges[name]

    def is_edge_label(self, name: str) -> bool:
        return name in self._edges

    def locations(self) -> dict[str, tuple[int, int, RVertexStep]]:
        return dict(self._map)


# ----------------------------------------------------------------------
# Subgraph materialization (set strategy)
# ----------------------------------------------------------------------

def subgraph_from_sets(
    stmt: GraphSelect,
    atom_results: list[tuple[object, AtomSets]],
    name_map: NameMap,
    result_name: str,
) -> Subgraph:
    """Build the output subgraph from per-atom set results."""
    out = Subgraph(result_name)
    star = any(isinstance(i, StarItem) for i in stmt.items)
    if star:
        for _, sets in atom_results:
            out = out.union(Subgraph(result_name, sets.all_vertices(), sets.all_edges()), result_name)
        return out
    for item in stmt.items:
        if not isinstance(item, StepItem):
            raise ExecutionError(
                "subgraph results select whole steps ('select V0, Vn') or '*'"
            )
        if name_map.is_edge_label(item.name):
            ordinal, pos = name_map.lookup_edge(item.name)
            _, sets = atom_results[ordinal]
            out = out.union(
                Subgraph(result_name, {}, sets.edge_sets.get(pos, {})),
                result_name,
            )
            continue
        ordinal, pos, _ = name_map.lookup(item.name)
        _, sets = atom_results[ordinal]
        step_sets = sets.vertex_sets.get(pos, {})
        out = out.union(Subgraph(result_name, step_sets, {}), result_name)
    return out


def subgraph_from_bindings(
    stmt: GraphSelect,
    joined: "JoinedBindings",
    name_map: NameMap,
    result_name: str,
    db: GraphDB,
) -> Subgraph:
    """Build a subgraph from enumerated paths (foreach queries)."""
    star = any(isinstance(i, StarItem) for i in stmt.items)
    vertices: dict[str, list[np.ndarray]] = {}
    edges: dict[str, list[np.ndarray]] = {}
    if star:
        for (aord, kind, pos), arr in joined.columns.items():
            if kind == "v":
                step = joined.vertex_step(aord, pos)
                for t, vids in _split_by_type(joined, aord, pos, step, arr, db):
                    vertices.setdefault(t, []).append(vids)
            elif kind == "e":
                ename_arr = joined.edge_types_for(aord, pos, db)
                for ename, eids in ename_arr:
                    edges.setdefault(ename, []).append(eids)
    else:
        for item in stmt.items:
            assert isinstance(item, StepItem)
            aord, pos, step = name_map.lookup(item.name)
            arr = joined.columns[(aord, "v", pos)]
            for t, vids in _split_by_type(joined, aord, pos, step, arr, db):
                vertices.setdefault(t, []).append(vids)
    return Subgraph(
        result_name,
        {t: idsets.unique(np.concatenate(v)) for t, v in vertices.items()},
        {e: idsets.unique(np.concatenate(v)) for e, v in edges.items()},
    )


def _split_by_type(joined, aord, pos, step: RVertexStep, arr, db):
    if len(step.types) == 1:
        yield step.types[0], arr
        return
    tids = joined.columns.get((aord, "t", pos))
    type_ids = {t: i for i, t in enumerate(sorted(db.vertex_types))}
    for t in step.types:
        mask = tids == type_ids[t]
        if mask.any():
            yield t, arr[mask]


# ----------------------------------------------------------------------
# Joined bindings across atoms (and-composition)
# ----------------------------------------------------------------------

class JoinedBindings:
    """Binding columns from one or more atoms, keyed (atom, kind, pos)."""

    def __init__(self, columns: dict[tuple[int, str, int], np.ndarray], nrows: int, steps: dict[int, list]) -> None:
        self.columns = columns
        self.nrows = nrows
        self._steps = steps  # atom ordinal -> atom.steps

    @classmethod
    def from_result(cls, ordinal: int, result: BindingResult, atom) -> "JoinedBindings":
        cols = {
            (ordinal, kind, pos): arr for (kind, pos), arr in result.columns.items()
        }
        return cls(cols, result.nrows, {ordinal: atom.steps})

    def vertex_step(self, aord: int, pos: int) -> RVertexStep:
        return self._steps[aord][pos]

    def edge_types_for(self, aord: int, pos: int, db: GraphDB):
        """Split an edge column by edge type."""
        arr = self.columns[(aord, "e", pos)]
        estep = self._steps[aord][pos]
        if len(estep.names) == 1:
            return [(estep.names[0], arr)]
        etids = self.columns.get((aord, "et", pos))
        ids = {n: i for i, n in enumerate(sorted(db.edge_types))}
        out = []
        for n in estep.names:
            mask = etids == ids[n]
            if mask.any():
                out.append((n, arr[mask]))
        return out

    def join(self, other: "JoinedBindings", pairs: list[tuple[tuple[int, str, int], tuple[int, str, int]]]) -> "JoinedBindings":
        """Equi-join on the given column-key pairs (all int64 columns)."""
        if not pairs:
            raise ExecutionError(
                "'and' composition requires a shared label between the paths"
            )
        lcodes = _combine(self, [a for a, _ in pairs])
        rcodes = _combine(other, [b for _, b in pairs])
        order = np.argsort(rcodes, kind="stable")
        rs = rcodes[order]
        lo = np.searchsorted(rs, lcodes, "left")
        hi = np.searchsorted(rs, lcodes, "right")
        counts = hi - lo
        total = int(counts.sum())
        li = np.repeat(np.arange(len(lcodes)), counts)
        if total:
            starts = np.repeat(lo, counts)
            offs = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
            ri = order[starts + offs]
        else:
            ri = np.empty(0, dtype=np.int64)
            li = li[:0]
        cols = {k: v[li] for k, v in self.columns.items()}
        cols.update({k: v[ri] for k, v in other.columns.items()})
        steps = dict(self._steps)
        steps.update(other._steps)
        return JoinedBindings(cols, total, steps)


def _combine(jb: JoinedBindings, keys) -> np.ndarray:
    code = jb.columns[keys[0]].astype(np.int64).copy()
    for k in keys[1:]:
        arr = jb.columns[k]
        span = int(arr.max(initial=0)) + 1
        code = code * span + arr
    return code


# ----------------------------------------------------------------------
# Table materialization (binding strategy)
# ----------------------------------------------------------------------

def table_from_bindings(
    stmt: GraphSelect,
    joined: JoinedBindings,
    name_map: NameMap,
    result_name: str,
    db: GraphDB,
) -> Table:
    """Build the result table: one row per matched path (Fig. 6/13)."""
    defs: list[ColumnDef] = []
    cols: list[Column] = []
    used: set[str] = set()

    def add(name: str, dtype, arr: np.ndarray) -> None:
        final = name
        k = 2
        while final in used:
            final = f"{name}_{k}"
            k += 1
        used.add(final)
        defs.append(ColumnDef(final, dtype))
        cols.append(Column(dtype, arr))

    star = any(isinstance(i, StarItem) for i in stmt.items)
    if star:
        _add_star_columns(joined, db, add)
    else:
        for item in stmt.items:
            if isinstance(item, AttrItem):
                if name_map.is_edge_label(item.ref.qualifier):
                    aord, pos = name_map.lookup_edge(item.ref.qualifier)
                    estep = joined._steps[aord][pos]
                    et = db.edge_type(estep.names[0])
                    arr, dtype = et.attribute_array(item.ref.name)
                    eids = joined.columns[(aord, "e", pos)]
                    add(item.alias or item.ref.name, dtype, arr[eids])
                    continue
                aord, pos, step = name_map.lookup(item.ref.qualifier)
                arr, dtype = _attr_values(joined, aord, pos, step, item.ref.name, db)
                add(item.alias or item.ref.name, dtype, arr)
            elif isinstance(item, StepItem):
                aord, pos, step = name_map.lookup(item.name)
                if len(step.types) != 1:
                    raise ExecutionError(
                        f"step {item.name!r} matches several vertex types; "
                        f"select specific attributes instead"
                    )
                vt = db.vertex_type(step.types[0])
                vids = joined.columns[(aord, "v", pos)]
                for kc in vt.key_cols:
                    arr, dtype = vt.attribute_array(kc)
                    add(f"{item.name}_{kc}", dtype, arr[vids])
            else:
                raise ExecutionError("unsupported select item for table output")
    if not defs:
        raise ExecutionError("graph select produced no output columns")
    return Table(result_name, Schema(defs), cols)


def _attr_values(joined, aord, pos, step: RVertexStep, attr: str, db: GraphDB):
    vids = joined.columns[(aord, "v", pos)]
    if len(step.types) == 1:
        vt = db.vertex_type(step.types[0])
        arr, dtype = vt.attribute_array(attr)
        return arr[vids], dtype
    # multi-type step: gather per type
    tids = joined.columns[(aord, "t", pos)]
    type_ids = {t: i for i, t in enumerate(sorted(db.vertex_types))}
    dtype = db.vertex_type(step.types[0]).attribute_type(attr)
    if dtype.numpy_dtype == np.dtype(object):
        out = np.empty(len(vids), dtype=object)
    else:
        out = np.full(len(vids), dtype.null_value, dtype=dtype.numpy_dtype)
    for t in step.types:
        mask = tids == type_ids[t]
        if mask.any():
            arr, _ = db.vertex_type(t).attribute_array(attr)
            out[mask] = arr[vids[mask]]
    return out, dtype


def _add_star_columns(joined: JoinedBindings, db: GraphDB, add) -> None:
    """Fig. 13: all attributes of every entity on the path."""
    for key in sorted(joined.columns.keys()):
        aord, kind, pos = key
        if kind == "v":
            step = joined.vertex_step(aord, pos)
            if len(step.types) != 1:
                raise ExecutionError(
                    "'select *' into a table requires concrete steps; a "
                    "variant step matches several types with different "
                    "attributes"
                )
            vt = db.vertex_type(step.types[0])
            prefix = (step.label.name if step.label else None) or step.types[0]
            vids = joined.columns[key]
            for cdef in vt.attribute_schema():
                arr, dtype = vt.attribute_array(cdef.name)
                add(f"{prefix}_{cdef.name}", dtype, arr[vids])
        elif kind == "e":
            estep = joined._steps[aord][pos]
            if len(estep.names) != 1:
                continue
            et = db.edge_type(estep.names[0])
            if et.assoc_table is None:
                continue
            eids = joined.columns[key]
            for cdef in et.attribute_schema():
                arr, dtype = et.attribute_array(cdef.name)
                add(f"{estep.names[0]}_{cdef.name}", dtype, arr[eids])
