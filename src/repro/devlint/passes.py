"""The devcheck passes: each walks the :class:`CodeModel` and yields
:class:`DevDiagnostic` findings.

* :func:`lock_passes` — GDL001 (rank violations against the canonical
  order), GDL002 (opposite-order acquisition cycles), GDL010 (blocking
  operations reachable while an exclusive lock is held).  One traversal
  maintains the held-lock stack; call edges use the transitive
  summaries so facts propagate through helpers.
* :func:`ack_durability_pass` — GDL020: an acknowledgement (result/done
  frame send) lexically preceding a durability call in the same
  function.
* :func:`repl_ack_pass` — GDL021: a ``REPL_ACK`` send lexically
  preceding the ``apply_replicated``/snapshot-install (or a direct WAL
  append) that makes the streamed record durable locally.
* :func:`except_hygiene_pass` — GDL030 (handlers that can swallow
  ``SimulatedCrash``/``KeyboardInterrupt``), GDL031 (broad silent
  ``except Exception``).
* :func:`thread_hygiene_pass` — GDL032 (non-daemon unjoined threads),
  GDL033 (fire-and-forget futures).
* :func:`guard_pass` — GDL034: public methods of ``_check_open``-bearing
  classes that are reachable without the closed-engine guard.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.devlint.blocking import classify_blocking, is_durability_call
from repro.devlint.diagnostics import DevDiagnostic, FileSpan
from repro.devlint.locks import LockAcquisition, acquisition_of
from repro.devlint.model import THREAD, CodeModel, FunctionInfo, dotted_name

#: frame-type constants whose send acknowledges a statement
_ACK_FRAME_NAMES = ("FT_RESULT", "FT_DONE", "FT_PREPARED")

#: method names that acknowledge by themselves
_ACK_METHODS = ("ack", "acknowledge")

#: frame-type constants whose send acknowledges *replicated* durability
#: (GDL021 — deliberately disjoint from the GDL020 names above so one
#: defective send fires exactly one code)
_REPL_ACK_FRAME_NAMES = ("FT_REPL_ACK",)

#: store methods that make a streamed record durable on the replica
_REPL_APPLY_METHODS = ("apply_replicated", "install_snapshot")

#: public method names exempt from the GDL034 guard requirement —
#: they must work on a closed object by contract
_GUARD_EXEMPT = ("close", "closed", "stop", "shutdown", "join")


def _span(fn: FunctionInfo, node: ast.AST) -> FileSpan:
    return FileSpan(
        fn.module.path,
        getattr(node, "lineno", fn.node.lineno),
        getattr(node, "col_offset", 0) + 1,
    )


def _diag(
    code: str, message: str, fn: FunctionInfo, node: ast.AST
) -> DevDiagnostic:
    return DevDiagnostic(
        code, message, span=_span(fn, node), symbol=fn.qualname
    )


# ======================================================================
# Lock passes: GDL001 / GDL002 / GDL010
# ======================================================================

class _LockWalker:
    """Walks one function with a held-lock stack, collecting findings
    and acquisition-order edges (for the cross-function cycle check)."""

    def __init__(self, model: CodeModel, fn: FunctionInfo,
                 acquires_all: dict[int, set[tuple[str, bool]]],
                 edges: dict[tuple[str, str], tuple[FunctionInfo, ast.AST]]):
        self.model = model
        self.fn = fn
        self.acquires_all = acquires_all
        self.edges = edges
        self.diags: list[DevDiagnostic] = []
        #: locks acquired without a scoping ``with`` (acquire()-style);
        #: held until released or function end
        self.sticky: list[LockAcquisition] = []

    # -- helpers -------------------------------------------------------
    def _record_acquire(
        self, acq: LockAcquisition, held: list[LockAcquisition]
    ) -> None:
        for h in held + self.sticky:
            if h.lock_id == acq.lock_id:
                continue
            self.edges.setdefault(
                (h.lock_id, acq.lock_id), (self.fn, acq.node)
            )
            if (
                h.rank is not None
                and acq.rank is not None
                and h.rank >= acq.rank
            ):
                self.diags.append(_diag(
                    "GDL001",
                    f"acquires {acq.lock_id} while holding {h.lock_id}; "
                    f"the canonical order puts {acq.lock_id} outside it",
                    self.fn, acq.node,
                ))

    def _record_call_acquires(
        self,
        callee: FunctionInfo,
        node: ast.AST,
        held: list[LockAcquisition],
    ) -> None:
        for lock_id, exclusive in self.acquires_all.get(id(callee), ()):
            fake = LockAcquisition(lock_id, exclusive, node)
            for h in held + self.sticky:
                if h.lock_id == lock_id:
                    continue
                self.edges.setdefault((h.lock_id, lock_id), (self.fn, node))
                if (
                    h.rank is not None
                    and fake.rank is not None
                    and h.rank >= fake.rank
                ):
                    self.diags.append(_diag(
                        "GDL001",
                        f"call to {callee.qualname}() acquires {lock_id} "
                        f"while holding {h.lock_id}; the canonical order "
                        f"puts {lock_id} outside it",
                        self.fn, node,
                    ))

    def _released_lock_id(self, func: ast.Attribute) -> Optional[str]:
        """Lock id a ``release*()`` call lets go of, or None if unclear."""
        from repro.devlint.locks import (
            RWLOCK_ID,
            _is_rwlock_receiver,
            _lock_id_for_attr,
        )
        if func.attr in ("release_read", "release_write"):
            if _is_rwlock_receiver(self.model, self.fn, func.value):
                return RWLOCK_ID
            return None
        if isinstance(func.value, ast.Attribute):
            return _lock_id_for_attr(self.model, self.fn, func.value)
        if isinstance(func.value, ast.Name):
            return func.value.id
        return None

    def _exclusive_held(
        self, held: list[LockAcquisition]
    ) -> Optional[LockAcquisition]:
        for h in held + self.sticky:
            if h.exclusive:
                return h
        return None

    def _check_call(
        self, call: ast.Call, held: list[LockAcquisition]
    ) -> None:
        acq = acquisition_of(self.model, self.fn, call)
        if acq is not None:
            self._record_acquire(acq, held)
            self.sticky.append(acq)
            return
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "release", "release_read", "release_write"
        ):
            released = self._released_lock_id(func)
            for i in range(len(self.sticky) - 1, -1, -1):
                if released is None or self.sticky[i].lock_id == released:
                    self.sticky.pop(i)
                    break
            return
        excl = self._exclusive_held(held)
        if excl is not None:
            desc = classify_blocking(self.model, self.fn, call)
            if desc is not None:
                self.diags.append(_diag(
                    "GDL010",
                    f"{desc} while holding {excl.lock_id} exclusively",
                    self.fn, call,
                ))
        callee = self.model.resolve_call(self.fn, call)
        if callee is not None:
            self._record_call_acquires(callee, call, held)
            if excl is not None and callee.blocks_via is not None:
                self.diags.append(_diag(
                    "GDL010",
                    f"call to {callee.qualname}() can block "
                    f"({callee.blocks_via}) while holding {excl.lock_id} "
                    f"exclusively",
                    self.fn, call,
                ))

    def _visit_calls(
        self, node: ast.AST, held: list[LockAcquisition]
    ) -> None:
        """Examine every call in an expression/simple statement."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._check_call(sub, held)

    # -- statement traversal -------------------------------------------
    def visit_block(
        self, stmts: list[ast.stmt], held: list[LockAcquisition]
    ) -> None:
        for s in stmts:
            if isinstance(s, ast.With):
                acquired: list[LockAcquisition] = []
                for item in s.items:
                    acq = acquisition_of(self.model, self.fn, item.context_expr)
                    if acq is not None:
                        self._record_acquire(acq, held + acquired)
                        acquired.append(acq)
                    else:
                        self._visit_calls(item.context_expr, held)
                self.visit_block(s.body, held + acquired)
            elif isinstance(s, (ast.If, ast.While)):
                self._visit_calls(s.test, held)
                self.visit_block(s.body, held)
                self.visit_block(s.orelse, held)
            elif isinstance(s, (ast.For, ast.AsyncFor)):
                self._visit_calls(s.iter, held)
                self.visit_block(s.body, held)
                self.visit_block(s.orelse, held)
            elif isinstance(s, ast.Try):
                self.visit_block(s.body, held)
                for h in s.handlers:
                    self.visit_block(h.body, held)
                self.visit_block(s.orelse, held)
                self.visit_block(s.finalbody, held)
            elif isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                continue  # nested scopes: not modeled
            else:
                self._visit_calls(s, held)


def _compute_acquires_all(
    model: CodeModel,
) -> dict[int, set[tuple[str, bool]]]:
    """Transitive (lock_id, exclusive) acquisition sets per function."""
    direct: dict[int, set[tuple[str, bool]]] = {}
    for fn in model.functions:
        acc: set[tuple[str, bool]] = set()
        for node in ast.walk(fn.node):
            expr: Optional[ast.AST] = None
            if isinstance(node, ast.withitem):
                expr = node.context_expr
            elif isinstance(node, ast.Call):
                expr = node
            if expr is None:
                continue
            acq = acquisition_of(model, fn, expr)
            if acq is not None:
                acc.add((acq.lock_id, acq.exclusive))
        direct[id(fn)] = acc
    changed = True
    while changed:
        changed = False
        for fn in model.functions:
            mine = direct[id(fn)]
            before = len(mine)
            for callee in fn.callees:
                mine |= direct.get(id(callee), set())
            if len(mine) != before:
                changed = True
    return direct


def lock_passes(model: CodeModel) -> Iterator[DevDiagnostic]:
    acquires_all = _compute_acquires_all(model)
    edges: dict[tuple[str, str], tuple[FunctionInfo, ast.AST]] = {}
    for fn in model.functions:
        walker = _LockWalker(model, fn, acquires_all, edges)
        walker.visit_block(fn.node.body, [])
        yield from walker.diags
    # cycle check over the global acquisition graph: A->B and B->A with
    # neither direction already condemned by the rank table
    reported: set[frozenset[str]] = set()
    for (a, b), (fn, node) in sorted(
        edges.items(), key=lambda kv: (kv[0][0], kv[0][1])
    ):
        if a == b or (b, a) not in edges:
            continue
        pair = frozenset((a, b))
        if pair in reported:
            continue
        reported.add(pair)
        from repro.devlint.locks import rank_of
        if rank_of(a) is not None and rank_of(b) is not None:
            continue  # the wrong direction already got GDL001
        yield _diag(
            "GDL002",
            f"{a} and {b} are acquired in both orders; "
            f"concurrent callers can deadlock",
            fn, node,
        )


# ======================================================================
# GDL020: acknowledgement before durability
# ======================================================================

def _is_ack_call(call: ast.Call) -> bool:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr in _ACK_METHODS:
        return True
    if func.attr == "send_frame":
        for arg in call.args:
            name = dotted_name(arg)
            if name is not None and name.split(".")[-1] in _ACK_FRAME_NAMES:
                return True
    return False


def ack_durability_pass(model: CodeModel) -> Iterator[DevDiagnostic]:
    for fn in model.functions:
        acks: list[ast.Call] = []
        durability_lines: list[int] = []
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            if _is_ack_call(node):
                acks.append(node)
                continue
            if is_durability_call(model, fn, node):
                durability_lines.append(node.lineno)
            else:
                callee = model.resolve_call(fn, node)
                if callee is not None and callee.durable:
                    durability_lines.append(node.lineno)
        if not acks or not durability_lines:
            continue
        last_durable = max(durability_lines)
        for ack in acks:
            if ack.lineno < last_durable:
                yield _diag(
                    "GDL020",
                    "acknowledgement is sent before the WAL append/fsync "
                    "on the same path; a crash in between acknowledges "
                    "a lost statement",
                    fn, ack,
                )


# ======================================================================
# GDL021: replication ack before WAL durability
# ======================================================================

def _is_repl_ack_call(call: ast.Call) -> bool:
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr != "send_frame":
        return False
    for arg in call.args:
        name = dotted_name(arg)
        if name is not None and name.split(".")[-1] in _REPL_ACK_FRAME_NAMES:
            return True
    return False


def repl_ack_pass(model: CodeModel) -> Iterator[DevDiagnostic]:
    """GDL021: the replica's ``REPL_ACK`` must follow the local apply.

    Only *direct* durability calls count here (``apply_replicated``,
    ``install_snapshot``, WAL append/sync on the same path) — the
    transitive ``durable`` summary would indict an ack that merely
    precedes an unrelated helper on another branch of the same
    dispatch loop.
    """
    for fn in model.functions:
        acks: list[ast.Call] = []
        durability_lines: list[int] = []
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            if _is_repl_ack_call(node):
                acks.append(node)
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _REPL_APPLY_METHODS
            ):
                durability_lines.append(node.lineno)
            elif is_durability_call(model, fn, node):
                durability_lines.append(node.lineno)
        if not acks or not durability_lines:
            continue
        last_durable = max(durability_lines)
        for ack in acks:
            if ack.lineno < last_durable:
                yield _diag(
                    "GDL021",
                    "REPL_ACK is sent before apply_replicated/WAL append "
                    "on the same path; the primary would count a write "
                    "replicated that a replica crash can still lose",
                    fn, ack,
                )


# ======================================================================
# GDL030 / GDL031: exception-handler hygiene
# ======================================================================

def _handler_type_names(handler: ast.ExceptHandler) -> list[str]:
    if handler.type is None:
        return ["<bare>"]
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    out = []
    for t in types:
        name = dotted_name(t)
        if name is not None:
            out.append(name.split(".")[-1])
    return out


def _body_reraises(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(n, ast.Raise)
        for stmt in handler.body
        for n in ast.walk(stmt)
    )


def _binding_used(handler: ast.ExceptHandler) -> bool:
    if handler.name is None:
        return False
    return any(
        isinstance(n, ast.Name) and n.id == handler.name
        for stmt in handler.body
        for n in ast.walk(stmt)
    )


def except_hygiene_pass(model: CodeModel) -> Iterator[DevDiagnostic]:
    for fn in model.functions:
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.ExceptHandler):
                continue
            names = _handler_type_names(node)
            reraises = _body_reraises(node)
            if ("<bare>" in names or "BaseException" in names) and not reraises:
                yield _diag(
                    "GDL030",
                    "handler catches BaseException (so SimulatedCrash and "
                    "KeyboardInterrupt too) and never re-raises",
                    fn, node,
                )
            elif "Exception" in names and not reraises and not _binding_used(
                node
            ):
                yield _diag(
                    "GDL031",
                    "broad 'except Exception' neither re-raises nor uses "
                    "the exception; failures here disappear silently",
                    fn, node,
                )


# ======================================================================
# GDL032 / GDL033: thread and future hygiene
# ======================================================================

def _daemon_kwarg(call: ast.Call) -> bool:
    return any(kw.arg == "daemon" for kw in call.keywords)


def _module_joins_or_daemonizes(mod_tree: ast.Module, leaf: str) -> bool:
    """Anywhere in the module: ``<...>.<leaf>.join(...)`` or
    ``<...>.<leaf>.daemon = True`` / local ``leaf.join(...)``."""
    for node in ast.walk(mod_tree):
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ) and node.func.attr == "join":
            recv = node.func.value
            recv_leaf = (
                recv.attr if isinstance(recv, ast.Attribute)
                else recv.id if isinstance(recv, ast.Name) else None
            )
            if recv_leaf == leaf:
                return True
        if isinstance(node, ast.Assign):
            for t in node.targets:
                if (
                    isinstance(t, ast.Attribute)
                    and t.attr == "daemon"
                    and isinstance(t.value, (ast.Attribute, ast.Name))
                ):
                    base = t.value
                    base_leaf = (
                        base.attr if isinstance(base, ast.Attribute)
                        else base.id
                    )
                    if base_leaf == leaf:
                        return True
    return False


def thread_hygiene_pass(model: CodeModel) -> Iterator[DevDiagnostic]:
    for fn in model.functions:
        for node in ast.walk(fn.node):
            # GDL033: a discarded future
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                call = node.value
                if isinstance(call.func, ast.Attribute) and call.func.attr == "submit":
                    yield _diag(
                        "GDL033",
                        "the returned future is discarded; a worker "
                        "exception would vanish with it",
                        fn, call,
                    )
            # GDL032: thread creation
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                call = node.value
                if model._kind_of_callee(fn.module, call.func) != THREAD:
                    continue
                if _daemon_kwarg(call):
                    continue
                target = node.targets[0] if len(node.targets) == 1 else None
                leaf = (
                    target.attr if isinstance(target, ast.Attribute)
                    else target.id if isinstance(target, ast.Name) else None
                )
                if leaf is not None and _module_joins_or_daemonizes(
                    fn.module.tree, leaf
                ):
                    continue
                yield _diag(
                    "GDL032",
                    "thread is neither daemon=True nor joined anywhere in "
                    "this module; it can outlive shutdown",
                    fn, call,
                )
            elif isinstance(node, ast.Expr) and isinstance(
                node.value, ast.Call
            ):
                call = node.value
                if (
                    model._kind_of_callee(fn.module, call.func) == THREAD
                    and not _daemon_kwarg(call)
                ):
                    yield _diag(
                        "GDL032",
                        "thread object is discarded at creation; it can "
                        "never be joined",
                        fn, call,
                    )


# ======================================================================
# GDL034: missing closed-engine guard
# ======================================================================

def _body_is_trivial(fn: FunctionInfo) -> bool:
    """Docstring/pass/ellipsis/raise only — an abstract or stub body."""
    for stmt in fn.node.body:
        if isinstance(stmt, (ast.Pass, ast.Raise)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        return False
    return True


def _property_is_simple(fn: FunctionInfo) -> bool:
    """A property that only reads state needs no guard."""
    return fn.is_property and not any(
        isinstance(n, ast.Call) for n in ast.walk(fn.node)
    )


def _class_defines_check_open(model: CodeModel, ci) -> bool:
    if "_check_open" in ci.methods:
        return True
    for base in ci.bases:
        if base is None:
            continue
        bi = model.classes.get(base) or model.classes.get(
            base.rsplit(".", 1)[-1]
        )
        if bi is not None and "_check_open" in bi.methods:
            return True
    return False


def guard_pass(model: CodeModel) -> Iterator[DevDiagnostic]:
    for mod in model.modules.values():
        for ci in mod.classes.values():
            if not _class_defines_check_open(model, ci):
                continue
            for name, m in ci.methods.items():
                if name.startswith("_") or name in _GUARD_EXEMPT:
                    continue
                if m.is_abstract or _body_is_trivial(m):
                    continue
                if _property_is_simple(m):
                    continue
                if m.guards:
                    continue
                yield _diag(
                    "GDL034",
                    f"{ci.name}.{name} is public on a class with a "
                    f"_check_open guard but never reaches it; it would "
                    f"run against a closed engine",
                    m, m.node,
                )


ALL_PASSES = (
    lock_passes,
    ack_durability_pass,
    repl_ack_pass,
    except_hygiene_pass,
    thread_hygiene_pass,
    guard_pass,
)
