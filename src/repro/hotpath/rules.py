"""Per-function AST cost rules, run only inside the hot set.

Each rule recognizes one *shape* of accidental per-call blowup that has
actually bitten this tree (the O(n^2) item pager, the compaction-pump
crawl, per-row expression interpretation):

``quadratic-membership``
    ``x in seen`` / ``seen.index(x)`` / ``seen.count(x)`` inside a loop,
    where ``seen`` is a list built in this function.  Each test scans
    the list, so the loop is quadratic -- use a set/dict.
``list-shift``
    ``items.pop(0)`` / ``items.insert(0, ...)`` anywhere in a hot
    function: both shift every element, O(len) per call -- use
    ``collections.deque``.
``sort-in-loop``
    ``sorted(...)`` or ``.sort()`` inside a loop: O(k log k) per
    iteration; sort once outside, or keep a heap.
``str-concat-in-loop``
    ``acc += ...`` on a string initialized in this function, or the
    ``acc = acc + ...`` self-rebuild, inside a loop: each step copies
    the whole accumulator -- collect parts and join/extend once.
``copy-in-loop``
    ``deepcopy(x)`` / ``deep_copy(x)`` / ``x.copy()`` / ``list(x)`` /
    ``dict(x)`` inside a loop where ``x`` is loop-invariant: the same
    value is re-copied every iteration -- hoist the copy (or stop
    copying).
``invariant-in-loop``
    A known-expensive call (``compile_expr``, ``compile_sort_key``,
    ``parse``, catalog/planner lookups) whose arguments are all
    loop-invariant, inside a loop: per-row compilation of a per-batch
    fact -- hoist it ("compile once per batch, not per row").
``n-plus-one-rpc``
    A single-key client op (``client.get`` and friends, ``self._call``)
    inside a loop over keys: one RPC per key where a batched
    ``multi_*`` / ``call_fanout`` path exists.

Rules are heuristic by design; a justified exception carries a
``# repro-hotpath: disable=<check>`` suppression at the site.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..analysis import Finding
from ..flow.project import FuncInfo, ModuleInfo

#: Calls that are expensive enough that doing them per row with
#: loop-invariant arguments is always a hoisting miss.
EXPENSIVE_CALLS = frozenset({
    "compile_expr", "compile_sort_key", "parse", "plan_select",
    "compile", "loads", "dumps",
})

#: Receiver name segments that mark catalog/metadata lookups.
CATALOG_RECEIVERS = frozenset({"catalog", "planner"})

#: Single-key ops on a client-like receiver that have batched variants.
SINGLE_KEY_OPS = frozenset({
    "get", "upsert", "insert", "replace", "remove", "delete", "touch",
    "counter", "observe",
})

#: Receiver name segments treated as RPC-issuing clients.
CLIENT_RECEIVERS = frozenset({"client", "network"})

RULES = (
    "quadratic-membership",
    "list-shift",
    "sort-in-loop",
    "str-concat-in-loop",
    "copy-in-loop",
    "invariant-in-loop",
    "n-plus-one-rpc",
)

_LIST_BUILTINS = {"list", "sorted"}
_COPY_CALLS = {"deepcopy", "deep_copy", "copy"}


def _receiver_name(node: ast.expr) -> str | None:
    """Last dotted segment of a call receiver: ``self.client`` -> client."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _call_name(call: ast.Call) -> str | None:
    return _receiver_name(call.func)


@dataclass
class _Loop:
    node: ast.AST
    #: names (re)bound anywhere inside the loop body.
    assigned: set[str] = field(default_factory=set)


def _assigned_names(node: ast.AST) -> set[str]:
    """Every Name bound by statements under ``node`` (loop bodies)."""
    names: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
            names.add(child.id)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(child.name)
    return names


def _is_list_expr(value: ast.expr) -> bool:
    if isinstance(value, (ast.List, ast.ListComp)):
        return True
    if isinstance(value, ast.Call) and _call_name(value) in _LIST_BUILTINS:
        return True
    return False


def _annotation_is_list(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    name = None
    if isinstance(annotation, ast.Subscript):
        name = _receiver_name(annotation.value)
    else:
        name = _receiver_name(annotation)
    return name in {"list", "List"}


class _FunctionScan(ast.NodeVisitor):
    """One pass over a hot function's body, tracking loop context."""

    def __init__(self, func: FuncInfo, module: ModuleInfo, why: str,
                 selected: frozenset[str]):
        self.func = func
        self.module = module
        self.why = why
        self.selected = selected
        self.findings: list[Finding] = []
        self.loops: list[_Loop] = []
        #: names known to hold lists / strings in this function.
        self.list_names: set[str] = set()
        self.str_names: set[str] = set()

    # -- plumbing --------------------------------------------------------------

    def _flag(self, check: str, node: ast.AST, message: str) -> None:
        if check not in self.selected:
            return
        self.findings.append(Finding(
            check=check,
            path=self.module.path,
            line=getattr(node, "lineno", self.func.line),
            col=getattr(node, "col_offset", 0),
            message=f"{message} [{self.why}]",
        ))

    def _invariant(self, node: ast.expr) -> bool:
        """True when ``node`` cannot change across iterations of the
        innermost loop: constants, and names/attribute-chains rooted at
        a name the loop body never rebinds."""
        if isinstance(node, ast.Constant):
            return True
        if not self.loops:
            return False
        assigned = self.loops[-1].assigned
        base = node
        while isinstance(base, ast.Attribute):
            base = base.value
        if isinstance(base, ast.Name):
            return base.id not in assigned
        return False

    def scan(self) -> list[Finding]:
        node = self.func.node
        for arg in list(node.args.args) + list(node.args.kwonlyargs):
            if _annotation_is_list(arg.annotation):
                self.list_names.add(arg.arg)
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self._note_binding(target.id, stmt.value)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name):
                if _annotation_is_list(stmt.annotation) or (
                        stmt.value is not None
                        and _is_list_expr(stmt.value)):
                    self.list_names.add(stmt.target.id)
        body = node.body if isinstance(node.body, list) else [node.body]
        for stmt in body:
            self.visit(stmt)
        return self.findings

    def _note_binding(self, name: str, value: ast.expr) -> None:
        if _is_list_expr(value):
            self.list_names.add(name)
        elif isinstance(value, ast.Constant) and isinstance(value.value, str):
            self.str_names.add(name)

    # -- loop context ----------------------------------------------------------

    def _enter_loop(self, node: ast.AST, bodies: list) -> None:
        loop = _Loop(node)
        for body in bodies:
            for stmt in body:
                loop.assigned |= _assigned_names(stmt)
        if isinstance(node, ast.For):
            loop.assigned |= _assigned_names(node.target)
        self.loops.append(loop)

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        self._enter_loop(node, [node.body])
        for stmt in node.body:
            self.visit(stmt)
        self.loops.pop()
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_While(self, node: ast.While) -> None:
        self._enter_loop(node, [node.body])
        self.visit(node.test)
        for stmt in node.body:
            self.visit(stmt)
        self.loops.pop()
        for stmt in node.orelse:
            self.visit(stmt)

    def _visit_comprehension(self, node) -> None:
        for comp in node.generators:
            self.visit(comp.iter)
        loop = _Loop(node)
        for comp in node.generators:
            loop.assigned |= _assigned_names(comp.target)
        self.loops.append(loop)
        for comp in node.generators:
            for condition in comp.ifs:
                self.visit(condition)
        if isinstance(node, ast.DictComp):
            self.visit(node.key)
            self.visit(node.value)
        else:
            self.visit(node.elt)
        self.loops.pop()

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    def _skip_nested(self, node) -> None:
        # A nested def's body runs when *called*, not where it is
        # written; scan it without the enclosing loop context.
        saved, self.loops = self.loops, []
        for stmt in node.body if isinstance(node.body, list) else [node.body]:
            self.visit(stmt)
        self.loops = saved

    visit_FunctionDef = _skip_nested
    visit_AsyncFunctionDef = _skip_nested
    visit_Lambda = _skip_nested

    # -- the rules -------------------------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        if self.loops and len(node.ops) == 1 and isinstance(
                node.ops[0], (ast.In, ast.NotIn)):
            target = node.comparators[0]
            if isinstance(target, ast.Name) and target.id in self.list_names:
                self._flag(
                    "quadratic-membership", node,
                    f"membership test on list {target.id!r} inside a loop "
                    f"is O(len) per hit; use a set",
                )
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if (self.loops and isinstance(node.op, ast.Add)
                and isinstance(node.target, ast.Name)
                and node.target.id in self.str_names):
            self._flag(
                "str-concat-in-loop", node,
                f"string accumulation {node.target.id!r} += ... in a loop "
                f"copies the whole accumulator each step; collect parts "
                f"and join once",
            )
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        # acc = acc + ... self-rebuild inside a loop.
        if (self.loops and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.BinOp)
                and isinstance(node.value.op, ast.Add)):
            target = node.targets[0].id
            left = node.value.left
            if isinstance(left, ast.Name) and left.id == target:
                self._flag(
                    "str-concat-in-loop", node,
                    f"{target!r} = {target} + ... in a loop rebuilds the "
                    f"whole value each step; append/extend instead",
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name == "pop" and isinstance(node.func, ast.Attribute):
            if (node.args and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value == 0):
                self._flag(
                    "list-shift", node,
                    "pop(0) shifts every remaining element, O(len) per "
                    "call; use collections.deque",
                )
        elif name == "insert" and isinstance(node.func, ast.Attribute):
            if (node.args and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value == 0):
                self._flag(
                    "list-shift", node,
                    "insert(0, ...) shifts every element, O(len) per "
                    "call; use collections.deque",
                )
        if (self.loops and name in {"index", "count"}
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in self.list_names):
            self._flag(
                "quadratic-membership", node,
                f"{node.func.value.id}.{name}(...) scans the list on "
                f"every loop iteration; use a set or dict",
            )
        if self.loops:
            self._check_sort(node, name)
            self._check_copy(node, name)
            self._check_invariant_call(node, name)
            self._check_rpc(node, name)
        self.generic_visit(node)

    def _check_sort(self, node: ast.Call, name: str | None) -> None:
        # Only a loop-invariant value re-sorted per iteration is waste;
        # sorting data produced by the iteration itself is legitimate
        # (e.g. sorting each retry round's fresh node grouping).
        if name == "sorted" and isinstance(node.func, ast.Name):
            if node.args and self._invariant(node.args[0]):
                self._flag("sort-in-loop", node,
                           "sorted(...) of a loop-invariant value inside a "
                           "loop re-sorts per iteration; sort once outside")
        elif name == "sort" and isinstance(node.func, ast.Attribute):
            if self._invariant(node.func.value):
                self._flag("sort-in-loop", node,
                           ".sort() of a loop-invariant value inside a loop "
                           "re-sorts per iteration; sort once outside")

    def _check_copy(self, node: ast.Call, name: str | None) -> None:
        if name in _COPY_CALLS:
            if isinstance(node.func, ast.Attribute) and _receiver_name(
                    node.func.value) != "copy":
                # x.copy() -- judge the receiver; copy.copy(x) falls
                # through to the argument form below.
                receiver: ast.expr | None = node.func.value
            else:
                receiver = node.args[0] if node.args else None
            if receiver is not None and not isinstance(
                    receiver, ast.Constant) and self._invariant(receiver):
                self._flag(
                    "copy-in-loop", node,
                    f"{name}() of a loop-invariant value inside a loop "
                    f"re-copies the same data every iteration; hoist it",
                )
        elif (name in {"list", "dict"} and isinstance(node.func, ast.Name)
                and len(node.args) == 1 and not node.keywords
                and isinstance(node.args[0], ast.Name)
                and self._invariant(node.args[0])):
            self._flag(
                "copy-in-loop", node,
                f"{name}({node.args[0].id}) rebuilds a loop-invariant "
                f"value every iteration; hoist it",
            )

    def _check_invariant_call(self, node: ast.Call, name: str | None) -> None:
        expensive = name in EXPENSIVE_CALLS
        if not expensive and isinstance(node.func, ast.Attribute):
            expensive = _receiver_name(node.func.value) in CATALOG_RECEIVERS
        if not expensive or not node.args:
            return
        arguments = list(node.args) + [kw.value for kw in node.keywords]
        if all(self._invariant(arg) for arg in arguments):
            label = name or "call"
            self._flag(
                "invariant-in-loop", node,
                f"{label}(...) has loop-invariant arguments but runs "
                f"every iteration; compile/resolve once before the loop",
            )

    def _check_rpc(self, node: ast.Call, name: str | None) -> None:
        if not isinstance(node.func, ast.Attribute):
            return
        receiver = _receiver_name(node.func.value)
        is_client = receiver is not None and (
            receiver in CLIENT_RECEIVERS or receiver.endswith("_client")
        )
        if is_client and name == "call" and any(
                isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                and ("multi" in arg.value or "batch" in arg.value
                     or "fanout" in arg.value)
                for arg in node.args):
            # The loop dispatches an explicitly batched RPC (one call
            # serves many items) -- exactly what this rule asks for.
            return
        if (is_client and name in SINGLE_KEY_OPS) or (
                is_client and name == "call") or name in {"_call",
                                                          "_routed_call"}:
            self._flag(
                "n-plus-one-rpc", node,
                f"single-key {receiver}.{name}(...) inside a loop issues "
                f"one RPC per item; use the batched multi_* / "
                f"call_fanout path",
            )


def scan_function(func: FuncInfo, module: ModuleInfo, why: str,
                  selected: frozenset[str] | None = None) -> list[Finding]:
    """Run every (selected) rule over one hot function."""
    chosen = frozenset(RULES) if selected is None else selected
    return _FunctionScan(func, module, why, chosen).scan()
