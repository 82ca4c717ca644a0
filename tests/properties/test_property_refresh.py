"""Delta view maintenance ≡ a from-scratch build, array for array.

Vertex/edge views, both CSR directions and every attribute index are
maintained from the appended rows only (``GraphDB.refresh_dependents``).
The contract is *array identity*: after any sequence of ingests, in any
batching, every derived array equals the one a fresh ``GraphDB`` builds
when it is handed the final tables in one shot.  Recovery (which folds
many ingests into one refresh) and a replica (which applies them one by
one through the same function) must land on the same fingerprint.

``one_shot`` runs the same delta code from watermark 0, so a second,
independent oracle pins what both must compute: ``brute_force``
evaluates Eq. 1 and Eq. 2 by nested Python loops over the final rows —
no join plan, no probe, no sorted index — and sorts the edges into the
canonical order.

The catalog rides along: after every step, the live catalog — built once
and then only absorbing each ingest's refresh report — carries the
``num_edges`` and both directions of ``degree_stats`` of a catalog over
the one-shot build, and those equal the statistics of that build's
degree arrays.

The schema pool covers: a vertex ``where``, multi-column and varchar
keys, NULL keys, many-to-one views, a one-to-one view that a duplicate
key flips to many-to-one mid-sequence; edges with one ``from table``,
join-only edges with dedup, a table referenced only in the ``where``,
the same table in both endpoint roles, a cross-join edge, a cyclic join
predicate and two equalities onto one relation.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product

import hypothesis.strategies as st
import numpy as np
from hypothesis import HealthCheck, example, given, settings

from repro import Database
from repro.catalog import Catalog, DegreeStats
from repro.dtypes.values import INT_NULL
from repro.durability.state import apply_ddl, state_fingerprint
from repro.graph.graphdb import GraphDB
from repro.graql.parser import parse_script
from repro.graql.pretty import pretty_statement

TABLES = """
create table P(id integer, name varchar(8), grp integer, w float)
create table K(src integer, dst integer, tag varchar(4))
create table L(a integer, b integer)
create table C(code varchar(4), grp integer)
"""

#: vertex declarations, in dependency order before the edges
VERTICES = [
    "create vertex V1(id) from table P",
    "create vertex VG(grp) from table P",
    "create vertex VN(name, grp) from table P where w > 0.5",
    "create vertex VC(code) from table C",
]

#: (statement, vertex types it needs)
EDGES = [
    (
        "create edge e_assoc with vertices (V1 as A, V1 as B) from table K "
        "where K.src = A.id and K.dst = B.id",
        frozenset({"V1"}),
    ),
    ("create edge e_join with vertices (V1, VG) where V1.grp = VG.grp", frozenset({"V1", "VG"})),
    (
        "create edge e_where with vertices (VG as G, VC as H) "
        "where L.a = G.grp and L.b = H.grp",
        frozenset({"VG", "VC"}),
    ),
    ("create edge e_cross with vertices (VC, VG) where VC.grp > 1", frozenset({"VC", "VG"})),
    (
        "create edge e_cycle with vertices (V1 as A, V1 as B) from table K "
        "where K.src = A.id and K.dst = B.id and A.grp = B.grp",
        frozenset({"V1"}),
    ),
    (
        "create edge e_multi with vertices (V1 as A, VN as B) from table K "
        "where K.src = A.id and K.tag = B.name and K.dst = B.grp",
        frozenset({"V1", "VN"}),
    ),
]

#: (statement, view it needs) — key attributes only, so the one-to-one
#: flip of V1 never invalidates them
INDEXES = [
    ("create index i_v1 on V1(id)", "V1"),
    ("create index i_vn on VN(grp, name)", "VN"),
    ("create index i_tag on e_assoc(tag)", "e_assoc"),
    ("create index i_src on e_assoc(src, dst)", "e_assoc"),
]

# stored-form values; NULL is the type's sentinel
# small domains, so keys repeat and joins match; NULLs are the rare case
ints = st.sampled_from([0, 1, 2, 3, 0, 1, 2, 3, INT_NULL])
names = st.sampled_from(["a", "b", "c", "a", "b", "c", None])
weights = st.sampled_from([float("nan"), 0.25, 0.75, 1.0, 2.0])
ROWS = {
    "P": st.tuples(ints, names, ints, weights),
    "K": st.tuples(ints, ints, names),
    "L": st.tuples(ints, ints),
    "C": st.tuples(names, ints),
}


@st.composite
def batches(draw):
    table = draw(st.sampled_from(["P", "P", "K", "K", "L", "C"]))
    # mostly real batches; the empty one must be a no-op
    size = draw(st.sampled_from([0, 1, 2, 3, 5, 8]))
    return table, draw(st.lists(ROWS[table], min_size=size, max_size=size))


@st.composite
def schedules(draw):
    """A schema drawn from the pool and a schedule interleaving its DDL
    with ingest batches: a view may be declared over empty tables, over
    loaded ones, or between two batches."""

    def most_of(pool):
        dropped = draw(st.lists(st.sampled_from(pool), unique=True, max_size=2))
        return [x for x in pool if x not in dropped]

    vertices = most_of(VERTICES)
    have = {v.split()[2].split("(")[0] for v in vertices}
    edges = [e for e, needs in most_of(EDGES) if needs <= have]
    have |= {e.split()[2] for e in edges}
    indexes = [i for i, needs in most_of(INDEXES) if needs in have]
    ddl = vertices + edges + indexes
    ingests = draw(st.lists(batches(), min_size=4, max_size=10))
    # DDL keeps its relative order; ingests fall anywhere around it
    slots = sorted(draw(st.lists(st.integers(0, len(ingests)), min_size=len(ddl), max_size=len(ddl))))
    steps = []
    for i, batch in enumerate(ingests):
        steps += [("ddl", d) for d, s in zip(ddl, slots) if s == i]
        steps.append(("ingest", batch))
    steps += [("ddl", d) for d, s in zip(ddl, slots) if s == len(ingests)]
    return steps


def one_shot(steps) -> GraphDB:
    """A fresh database handed the final tables first, the views after."""
    db = GraphDB()
    for stmt in parse_script(TABLES).statements:
        apply_ddl(db, pretty_statement(stmt))
    for kind, arg in steps:
        if kind == "ingest" and arg[1]:
            db.table(arg[0]).append_rows(arg[1])
    for kind, arg in steps:
        if kind == "ddl":
            apply_ddl(db, arg)
    return db


def derived_arrays(db: GraphDB) -> dict:
    out = {}
    for vt in db.vertex_types.values():
        out[vt.name] = {
            "rows": vt.rows, "row_vids": vt.row_vids, "rep_rows": vt.rep_rows,
            "num_vertices": vt.num_vertices, "one_to_one": vt.one_to_one,
        }
    for et in db.edge_types.values():
        idx = db.indexes[et.name]
        out[et.name] = {
            "src_vids": et.src_vids, "tgt_vids": et.tgt_vids, "assoc_rows": et.assoc_rows,
        }
        for side, csr in (("fwd", idx.forward), ("rev", idx.reverse)):
            out[et.name].update(
                {f"{side}.indptr": csr.indptr, f"{side}.neighbors": csr.neighbors,
                 f"{side}.eids": csr.eids}
            )
    for gi in db.attr_indexes.values():
        out[gi.name] = {"vids": gi.index.vids}
        out[gi.name].update({f"col{i}": c for i, c in enumerate(gi.index.sorted_cols)})
    return out


def assert_same_arrays(got: GraphDB, want: GraphDB) -> None:
    a, b = derived_arrays(got), derived_arrays(want)
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].keys() == b[name].keys()
        for field, x in a[name].items():
            y = b[name][field]
            if isinstance(x, np.ndarray):
                assert x.dtype == y.dtype, (name, field, x.dtype, y.dtype)
                assert np.array_equal(x, y), (name, field, x, y)
            else:
                assert x == y, (name, field, x, y)


# ----------------------------------------------------------------------
# Brute-force reference: Eq. 1 / Eq. 2 by nested loops over the rows
# ----------------------------------------------------------------------
ROW = {
    "P": namedtuple("P", "id name grp w"),
    "K": namedtuple("K", "src dst tag"),
    "L": namedtuple("L", "a b"),
    "C": namedtuple("C", "code grp"),
}


def null(v) -> bool:
    return v is None or v == INT_NULL or v != v


def eq(x, y) -> bool:
    return not null(x) and not null(y) and x == y


#: vertex type -> (table, key of a row, where of a row)
VERTEX_REF = {
    "V1": ("P", lambda r: (r.id,), lambda r: True),
    "VG": ("P", lambda r: (r.grp,), lambda r: True),
    "VN": ("P", lambda r: (r.name, r.grp), lambda r: not null(r.w) and r.w > 0.5),
    "VC": ("C", lambda r: (r.code,), lambda r: True),
}

#: edge type -> (source, target, other relations, has an associated
#: table, where over (source row, target row, *other rows))
EDGE_REF = {
    "e_assoc": ("V1", "V1", ("K",), True, lambda a, b, k: eq(k.src, a.id) and eq(k.dst, b.id)),
    "e_join": ("V1", "VG", (), False, lambda a, b: eq(a.grp, b.grp)),
    "e_where": ("VG", "VC", ("L",), False, lambda g, h, l: eq(l.a, g.grp) and eq(l.b, h.grp)),
    "e_cross": ("VC", "VG", (), False, lambda c, g: not null(c.grp) and c.grp > 1),
    "e_cycle": (
        "V1", "V1", ("K",), True,
        lambda a, b, k: eq(k.src, a.id) and eq(k.dst, b.id) and eq(a.grp, b.grp),
    ),
    "e_multi": (
        "V1", "VN", ("K",), True,
        lambda a, b, k: eq(k.src, a.id) and eq(k.tag, b.name) and eq(k.dst, b.grp),
    ),
}


def brute_force(steps) -> dict:
    """Every declared view's arrays from the ingested rows alone."""
    tables = {t: [] for t in ROW}
    for kind, arg in steps:
        if kind == "ingest":
            tables[arg[0]] += [ROW[arg[0]](*r) for r in arg[1]]
    declared = [arg.split()[2].split("(")[0] for kind, arg in steps if kind == "ddl"]
    out = {}
    for name in declared:
        if name in VERTEX_REF:
            table, key, where = VERTEX_REF[name]
            vid_of, rows, row_vids, rep_rows = {}, [], [], []
            for i, r in enumerate(tables[table]):
                if not where(r) or any(null(v) for v in key(r)):
                    continue
                if key(r) not in vid_of:
                    vid_of[key(r)] = len(rep_rows)
                    rep_rows.append(i)
                rows.append(i)
                row_vids.append(vid_of[key(r)])
            out[name] = {
                "rows": rows, "row_vids": row_vids, "rep_rows": rep_rows,
                "num_vertices": len(rep_rows), "one_to_one": len(rep_rows) == len(rows),
            }
        elif name in EDGE_REF:
            source, target, others, assoc, where = EDGE_REF[name]
            s, t = out[source], out[target]
            s_rows, t_rows = tables[VERTEX_REF[source][0]], tables[VERTEX_REF[target][0]]
            edges = set()
            for (si, sv), (ti, tv) in product(
                zip(s["rows"], s["row_vids"]), zip(t["rows"], t["row_vids"])
            ):
                for combo in product(*(enumerate(tables[o]) for o in others)):
                    if where(s_rows[si], t_rows[ti], *(r for _, r in combo)):
                        edges.add((combo[0][0], sv, tv) if assoc else (sv, tv))
            edges = sorted(edges)  # the canonical eid order
            *_, src, tgt = [list(c) for c in zip(*edges)] or [[], []]
            out[name] = {
                "src_vids": src, "tgt_vids": tgt,
                "assoc_rows": [e[0] for e in edges] if assoc else None,
            }
            for side, frm, to, n in (
                ("fwd", src, tgt, s["num_vertices"]), ("rev", tgt, src, t["num_vertices"])
            ):
                runs = [[e for e in range(len(edges)) if frm[e] == v] for v in range(n)]
                eids = [e for run in runs for e in run]
                out[name].update({
                    f"{side}.indptr": [0, *np.cumsum([len(run) for run in runs]).tolist()],
                    f"{side}.neighbors": [to[e] for e in eids],
                    f"{side}.eids": eids,
                })
    return out


def assert_matches_brute_force(got: GraphDB, steps) -> None:
    have = derived_arrays(got)
    for name, fields in brute_force(steps).items():
        for field, want in fields.items():
            x = have[name][field]
            x = x.tolist() if isinstance(x, np.ndarray) else x
            assert x == want, (name, field, x, want)


DEGREE_FIELDS = ("avg_out", "max_out", "frac_out_nonzero", "avg_in", "max_in", "frac_in_nonzero")


def assert_same_edge_meta(live: Catalog, want: GraphDB) -> None:
    fresh = Catalog.from_db(want)
    assert live.edges.keys() == fresh.edges.keys()
    for name, em in fresh.edges.items():
        idx = want.indexes[name]
        by_arrays = DegreeStats(np.diff(idx.forward.indptr), np.diff(idx.reverse.indptr))
        got = live.edges[name]
        assert got.num_edges == em.num_edges == want.edge_types[name].num_edges
        for field in DEGREE_FIELDS:
            values = [getattr(meta.degree_stats, field) for meta in (got, em)]
            values.append(getattr(by_arrays, field))
            assert values[0] == values[1] == values[2], (name, field, values)


E_CROSS = EDGES[3][0]
E_JOIN = EDGES[1][0]
E_ASSOC = EDGES[0][0]


@given(schedules())
@example([
    # vertices that source no edge, then edges that land before existing
    # ones (no ``from table``: the old eids are renumbered)
    ("ddl", VERTICES[0]), ("ddl", VERTICES[1]), ("ddl", VERTICES[3]),
    ("ddl", E_ASSOC), ("ddl", E_CROSS),
    ("ingest", ("C", [("a", 2), ("b", 3)])),
    ("ingest", ("P", [(0, "a", 2, 1.0), (1, "b", 3, 0.25)])),
    ("ingest", ("K", [(0, 1, "a"), (0, 0, None)])),
    ("ingest", ("P", [(2, "c", 0, 2.0), (3, None, 1, 0.75)])),
    ("ingest", ("C", [("c", 2), ("d", 0)])),
    ("ingest", ("P", [(4, "a", 5, 1.0)])),
])
@example([
    # endpoint rows arriving after the rows that join them
    ("ddl", VERTICES[0]), ("ddl", VERTICES[1]), ("ddl", E_JOIN), ("ddl", E_ASSOC),
    ("ingest", ("K", [(2, 3, "a"), (3, 2, "b")])),
    ("ingest", ("P", [(3, "a", 1, 1.0)])),
    ("ingest", ("P", [(2, "b", 1, 1.0), (0, "c", 0, 1.0)])),
    ("ingest", ("P", [(5, "c", 0, 1.0)])),
    ("ingest", ("P", [(3, "d", 0, 1.0)])),
])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_delta_refresh_is_array_identical_to_one_shot_build(steps):
    db = GraphDB()
    for stmt in parse_script(TABLES).statements:
        apply_ddl(db, pretty_statement(stmt))
    catalog = Catalog.from_db(db)
    for done, (kind, arg) in enumerate(steps, start=1):
        if kind == "ddl":
            apply_ddl(db, arg)
            catalog.refresh(db)
        else:
            _, report = db.ingest_rows(*arg)
            catalog.absorb(db, report)
        want = one_shot(steps[:done])
        assert_same_arrays(db, want)
        assert_same_edge_meta(catalog, want)
        assert_matches_brute_force(db, steps[:done])
        assert db.check_partition_invariants()


def run_through(db: Database, steps) -> None:
    for kind, arg in steps:
        if kind == "ddl":
            db.execute(arg)
        else:
            db.ingest_rows(*arg)


@given(schedules())
@settings(max_examples=15, deadline=None, suppress_health_check=list(HealthCheck))
def test_recovery_lands_on_the_live_fingerprint(tmp_path_factory, steps):
    """Recovery replays the ingests without refreshing in between and
    catches the views up in one delta per DDL boundary."""
    path = str(tmp_path_factory.mktemp("delta") / "db")
    with Database.open(path, fsync="off") as live:
        live.execute(TABLES)
        run_through(live, steps)
        want = state_fingerprint(live.db)
    with Database.open(path, fsync="off") as recovered:
        assert state_fingerprint(recovered.db) == want
        assert_same_arrays(recovered.db, one_shot(steps))


@given(schedules())
@settings(max_examples=5, deadline=None, suppress_health_check=list(HealthCheck))
def test_caught_up_replica_lands_on_the_primary_fingerprint(tmp_path_factory, steps):
    from tests.replication.conftest import Pair, wait_caught_up

    pair = Pair(tmp_path_factory.mktemp("delta-repl"))
    try:
        replica = pair.start_replica()
        pair.primary_db.execute(TABLES)
        run_through(pair.primary_db, steps)
        wait_caught_up(replica, pair.primary_db.store.seq)
        assert state_fingerprint(replica.database.db) == state_fingerprint(pair.primary_db.db)
        assert_same_arrays(replica.database.db, one_shot(steps))
    finally:
        pair.close()
