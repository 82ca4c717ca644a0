"""Multi-statement scheduling & planning (paper Section III-B1).

    "Given a multistatement GraQL script Omega = q1, q2, ..., qn, and the
    explicit representation of outputs and inputs for each query via the
    use of the 'into subgraph' and 'into table' expressions, we can build
    a multi-statement dependence representation.  This representation
    enables the query planner to determine whether two separate query
    statements qi and qj can be executed in parallel ... or need to be
    executed in sequence."

Dependencies are derived from named objects:

* a statement *reads* the tables it selects from, the vertex/edge types
  its pattern uses (plus, transitively, their source tables), and the
  subgraphs that seed its steps;
* a statement *writes* what it creates: DDL objects, ingested tables
  (including a pseudo-object per dependent view, since ingest refreshes
  them atomically), and ``into table`` / ``into subgraph`` results.

Statement *i* depends on every earlier statement whose writes intersect
its reads (read-after-write), its writes (write-after-write) or whose
reads intersect its writes (write-after-read).  The schedule is the DAG's
topological wave decomposition, shown by ``explain``; the analyzer's
dead-statement pass (GQW120) reads the same effects.  Scripts execute in
statement order: under the GIL a thread pool ran waves slower than
serial, so wave execution waits for a multi-process backend.
"""

from __future__ import annotations

from typing import Optional

from repro.catalog import Catalog
from repro.graql.ast import (
    CreateEdge,
    CreateIndex,
    CreateTable,
    CreateVertex,
    DropIndex,
    GraphSelect,
    Ingest,
    PathAtom,
    RegexGroup,
    Script,
    Statement,
    TableSelect,
    VertexStep,
)
from repro.storage.expr import col_refs


def _pattern_vertex_names(stmt: GraphSelect) -> tuple[set[str], set[str], set[str]]:
    """(vertex/edge type names referenced, label names, seed subgraphs)."""
    names: set[str] = set()
    labels: set[str] = set()
    seeds: set[str] = set()

    def walk(node):
        if isinstance(node, PathAtom):
            for s in node.steps:
                if isinstance(s, VertexStep):
                    if s.label is not None:
                        labels.add(s.label.name)
                    if s.name is not None:
                        names.add(s.name)
                    if s.seed is not None:
                        seeds.add(s.seed)
                elif isinstance(s, RegexGroup):
                    for e, v in s.pairs:
                        if e.name is not None:
                            names.add(e.name)
                        if v.name is not None:
                            names.add(v.name)
                else:
                    if s.name is not None:
                        names.add(s.name)
        else:
            walk(node.left)
            walk(node.right)

    walk(stmt.pattern)
    return names - labels, labels, seeds


class _Effects:
    """Read/write object sets of one statement."""

    def __init__(self) -> None:
        self.reads: set[tuple[str, str]] = set()
        self.writes: set[tuple[str, str]] = set()


def _analyze(
    script: Script, catalog: Optional[Catalog]
) -> list[_Effects]:
    # view -> source tables, from both the catalog and in-script DDL
    view_tables: dict[str, set[str]] = {}
    table_views: dict[str, set[str]] = {}
    if catalog is not None:
        for vm in catalog.vertices.values():
            view_tables.setdefault(vm.name, set()).add(vm.table)
        for em in catalog.edges.values():
            src = catalog.vertices.get(em.source_type)
            tgt = catalog.vertices.get(em.target_type)
            deps = set()
            if src:
                deps.add(src.table)
            if tgt:
                deps.add(tgt.table)
            view_tables.setdefault(em.name, set()).update(deps)
    for stmt in script.statements:
        if isinstance(stmt, CreateVertex):
            view_tables.setdefault(stmt.name, set()).add(stmt.table)
        elif isinstance(stmt, CreateEdge):
            deps = set(stmt.from_tables)
            if stmt.where is not None:
                deps.update(
                    r.qualifier
                    for r in col_refs(stmt.where)
                    if r.qualifier is not None
                )
            for ep in (stmt.source.type_name, stmt.target.type_name):
                deps.update(view_tables.get(ep, set()))
            view_tables.setdefault(stmt.name, set()).update(deps)
    for view, tables in view_tables.items():
        for t in tables:
            table_views.setdefault(t, set()).add(view)

    out: list[_Effects] = []
    for stmt in script.statements:
        eff = _Effects()
        if isinstance(stmt, CreateTable):
            eff.writes.add(("table", stmt.name))
        elif isinstance(stmt, CreateVertex):
            eff.reads.add(("table", stmt.table))
            eff.writes.add(("view", stmt.name))
        elif isinstance(stmt, CreateEdge):
            eff.reads.add(("view", stmt.source.type_name))
            eff.reads.add(("view", stmt.target.type_name))
            for t in view_tables.get(stmt.name, set()):
                eff.reads.add(("table", t))
            eff.writes.add(("view", stmt.name))
        elif isinstance(stmt, Ingest):
            eff.writes.add(("table", stmt.table))
            # atomic ingest refreshes every dependent view
            for v in table_views.get(stmt.table, set()):
                eff.writes.add(("view", v))
        elif isinstance(stmt, CreateIndex):
            eff.reads.add(("view", stmt.target))
            eff.writes.add(("index", stmt.name))
        elif isinstance(stmt, DropIndex):
            eff.writes.add(("index", stmt.name))
        elif isinstance(stmt, TableSelect):
            eff.reads.add(("table", stmt.source))
            if stmt.into is not None:
                eff.writes.add((stmt.into.kind, stmt.into.name))
        else:
            assert isinstance(stmt, GraphSelect)
            names, _, seeds = _pattern_vertex_names(stmt)
            for n in names:
                eff.reads.add(("view", n))
                for t in view_tables.get(n, set()):
                    eff.reads.add(("table", t))
            for s in seeds:
                eff.reads.add(("subgraph", s))
            if stmt.into is not None:
                eff.writes.add((stmt.into.kind, stmt.into.name))
        out.append(eff)
    return out


def statement_effects(
    script: Script, catalog: Optional[Catalog] = None
) -> list[tuple[set[tuple[str, str]], set[tuple[str, str]]]]:
    """Per-statement ``(reads, writes)`` object sets (Section III-B1).

    Public wrapper over the dependence analysis so other passes (e.g. the
    static analyzer's dead-statement detection) can reason about which
    named objects each statement consumes and produces without rebuilding
    the whole schedule.
    """
    return [(e.reads, e.writes) for e in _analyze(script, catalog)]


class ScriptSchedule:
    """The dependence DAG and its wave decomposition."""

    def __init__(self, script: Script, deps: list[set[int]], waves: list[list[int]]) -> None:
        self.script = script
        #: deps[i] = indices of statements that must precede statement i
        self.deps = deps
        #: waves[k] = statement indices executable concurrently in wave k
        self.waves = waves

    @property
    def num_waves(self) -> int:
        return len(self.waves)

    @property
    def max_parallelism(self) -> int:
        return max((len(w) for w in self.waves), default=0)

    def __repr__(self) -> str:
        return f"ScriptSchedule(waves={self.waves})"


def build_schedule(script: Script, catalog: Optional[Catalog] = None) -> ScriptSchedule:
    """Build the Section III-B1 dependence DAG for a script."""
    effects = _analyze(script, catalog)
    n = len(effects)
    deps: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i):
            rw = effects[i].reads & effects[j].writes  # read-after-write
            ww = effects[i].writes & effects[j].writes  # write-after-write
            wr = effects[i].writes & effects[j].reads  # write-after-read
            if rw or ww or wr:
                deps[i].add(j)
    # wave decomposition (Kahn by levels)
    level = [0] * n
    for i in range(n):
        level[i] = 1 + max((level[j] for j in deps[i]), default=-1)
    waves: list[list[int]] = []
    for i in range(n):
        while len(waves) <= level[i]:
            waves.append([])
        waves[level[i]].append(i)
    return ScriptSchedule(script, deps, waves)

