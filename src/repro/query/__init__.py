"""Query execution: path patterns, relational subset, result capture.

Two execution strategies implement the paper's path-query semantics
(Section II-B):

* **set-frontier** (:mod:`repro.query.frontier`) — Eq. 5's set semantics:
  a forward filtered expansion over the bidirectional CSR edge indexes
  followed by a backward cull, producing per-step vertex/edge sets in
  which every element lies on a full path.  Linear in traversed edges;
  used for subgraph results.
* **binding-join** (:mod:`repro.query.bindings`) — full path enumeration
  as a growing binding table, needed for element-wise (``foreach``)
  labels, cross-step attribute comparisons, and table outputs whose row
  multiplicity is per-path (Fig. 6: "each id repeated for each feature").

The planner (:mod:`repro.query.planner`) picks the strategy and — using
catalog statistics per Section III-B — the traversal direction, exploiting
the existence of both forward and reverse edge indexes.
"""

from repro.query.executor import StatementResult
from repro.query.explain import ExplainReport, PlanNode, StatementPlan
from repro.query.planner import AccessPath, AtomPlan, QueryPlan, plan_graph_select

__all__ = [
    "StatementResult",
    "plan_graph_select",
    "QueryPlan",
    "AtomPlan",
    "AccessPath",
    "ExplainReport",
    "PlanNode",
    "StatementPlan",
]
