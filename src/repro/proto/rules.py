"""Path-sensitive conformance rules over the transition-site inventory.

Each function body is walked once with a small abstract state: a map
from receiver expressions (``self.state``, ``vb.state``, ``slot.state``)
to the set of protocol states the receiver may hold on the current
path.  ``if`` tests comparing a receiver against state literals narrow
the branch environments (``and`` conjuncts narrow the then-branch,
``or`` the else-branch, and a terminated branch leaves its complement
after the ``if``); literal writes and transition-helper calls replace
the set; loop bodies and ``try`` handlers drop narrowings for anything
the block writes.

Helper indirection is depth one, through the flow call graph: an
unguarded literal write inside an owner-class method (``_close``,
``promote_to_active``) is judged at each *call site* with the caller's
environment for the call receiver, so ``if self.state == HALF_OPEN:
self._close()`` is legal while an unconditional ``self._close()`` in a
success handler is not.  Forwarded writes (``vb.state = state`` with a
protocol-annotated parameter) resolve the target state per call site
with :func:`repro.flow.callgraph.map_call_args`.

Rule families (one finding check each):

* ``illegal-transition`` -- a guarded path still admits a source state
  with no declared edge to the written target.
* ``unguarded-transition`` -- a write whose target has forbidden
  in-edges executes with no guard at all (locally or at a call site).
* ``handoff-order`` -- within one function, ``order=`` states are
  touched out of declared sequence.
* ``transition-outside-owner`` -- a state write outside the owner
  class's defining module (the static choke-point analog of the
  sanitizer's write-ownership oracle).
* ``silent-transition`` (strict profiles only) -- a transition with no
  metrics/tracing/log emission in the enclosing function or its
  immediate callers.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..analysis import Finding
from ..flow.callgraph import CallGraph, map_call_args
from ..flow.project import FuncInfo, Project
from .declarations import ProtocolSpec
from .inventory import ProtoInventory, TransitionSite, resolve_state

Env = dict[str, frozenset]

#: Metric-registry methods that count as an emission.
_EMIT_METHODS = frozenset({"inc", "dec", "observe", "timer", "set_gauge"})


def _safe_unparse(node: ast.expr) -> str | None:
    try:
        return ast.unparse(node)
    except Exception:
        return None


def _states(values) -> str:
    return "{" + ", ".join(sorted(values)) + "}"


def emits_observably(func: FuncInfo) -> bool:
    """Does this function record anything an operator can see -- a
    metrics inc/observe, a tracing event, or a structured log call?"""
    for node in ast.walk(func.node):
        if not isinstance(node, ast.Call):
            continue
        text = _safe_unparse(node.func)
        if not text:
            continue
        head, _, method = text.rpartition(".")
        if method in _EMIT_METHODS and "metrics" in head:
            return True
        if "tracing." in text or method == "_log" or text == "_log":
            return True
    return False


@dataclass
class _Walk:
    """Per-function facts gathered by one walker pass."""

    site_env: list = field(default_factory=list)        #: (site, frozenset)
    call_env: dict = field(default_factory=dict)        #: id(call) -> Env
    events: list = field(default_factory=list)          #: (spec, state, line, col)


class Analysis:
    """Whole-program walker state shared across rule families."""

    def __init__(self, project: Project, graph: CallGraph,
                 specs: dict[str, ProtocolSpec],
                 inventory: ProtoInventory):
        self.project = project
        self.graph = graph
        self.specs = specs
        self.inventory = inventory
        #: id(call node) -> resolved target FuncInfo
        self.call_target: dict[int, FuncInfo] = {}
        #: target fqn -> [(caller FuncInfo, ast.Call, edge kind)]
        self.callers_of: dict[str,
                              list[tuple[FuncInfo, ast.Call, str]]] = {}
        for caller, call, target, kind in graph.call_sites:
            if kind in ("call", "method", "rpc"):
                if kind != "rpc":
                    self.call_target[id(call)] = target
                self.callers_of.setdefault(target.fqn, []).append(
                    (caller, call, kind))
        #: helper fqn -> {attr: frozenset(dsts) | None (unknown value)}
        self.helper_summary: dict[str, dict[str, frozenset | None]] = {}
        for site in inventory.sites:
            if site.kind == "init" or not site.receiver.startswith("self."):
                continue
            summary = self.helper_summary.setdefault(site.func, {})
            attr = site.binding.attr
            if site.dst is None or summary.get(attr, frozenset()) is None:
                summary[attr] = None
            else:
                summary[attr] = summary.get(attr, frozenset()) | {site.dst}
        self.site_env: list[tuple[TransitionSite, frozenset]] = []
        self.call_env: dict[int, Env] = {}
        self.events: dict[str, list] = {}
        self._emits_cache: dict[str, bool] = {}

    def run(self) -> None:
        for fqn in sorted(self.project.functions):
            func = self.project.functions[fqn]
            if not isinstance(getattr(func.node, "body", None), list):
                continue    # lambdas carry an expression body

            walk = _Walk()
            _FunctionWalker(self, func, walk).run()
            self.site_env.extend(walk.site_env)
            self.call_env.update(walk.call_env)
            if walk.events:
                self.events[fqn] = walk.events

    # -- shared lookups ------------------------------------------------------------

    def path_of(self, func: FuncInfo) -> str:
        module = self.project.modules.get(func.module)
        return module.path if module is not None else func.module

    def emits(self, fqn: str) -> bool:
        cached = self._emits_cache.get(fqn)
        if cached is None:
            func = self.project.functions.get(fqn)
            cached = bool(func is not None and emits_observably(func))
            self._emits_cache[fqn] = cached
        return cached


class _FunctionWalker:
    def __init__(self, analysis: Analysis, func: FuncInfo, walk: _Walk):
        self.a = analysis
        self.func = func
        self.walk = walk

    def run(self) -> None:
        self._block(list(self.func.node.body), {})

    # -- statement dispatch --------------------------------------------------------

    def _block(self, stmts: list, env: Env) -> tuple[Env, bool]:
        env = dict(env)
        for stmt in stmts:
            env, terminated = self._stmt(stmt, env)
            if terminated:
                return env, True
        return env, False

    def _stmt(self, stmt: ast.stmt, env: Env) -> tuple[Env, bool]:
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self._scan_exprs(stmt, env)
            return env, True
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return env, True
        if isinstance(stmt, ast.If):
            return self._if(stmt, env)
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            return self._loop(stmt, env)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, env)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_exprs(item, env)
            return self._block(stmt.body, env)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return env, False
        return self._leaf(stmt, env)

    def _leaf(self, stmt: ast.stmt, env: Env) -> tuple[Env, bool]:
        self._scan_exprs(stmt, env)
        site = self.a.inventory.site_by_node.get(id(stmt))
        if site is not None:
            current = env.get(site.receiver, site.binding.spec.states)
            if site.kind != "init":
                self.walk.site_env.append((site, current))
            if site.dst is not None:
                env[site.receiver] = frozenset({site.dst})
                if site.kind != "init":
                    self._event(site.binding.spec, site.dst, stmt)
            else:
                env.pop(site.receiver, None)
            return env, False
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            self._assign_effect(stmt, env)
        return env, False

    # -- expression effects --------------------------------------------------------

    def _scan_exprs(self, node: ast.AST, env: Env) -> None:
        """Record env snapshots at call sites, handoff events for
        literal state arguments, and helper-call state transfer."""
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            self.walk.call_env[id(sub)] = dict(env)
            for arg in list(sub.args) + [kw.value for kw in sub.keywords]:
                resolved = resolve_state(arg, self.a.specs)
                if resolved is not None:
                    self._event(resolved[0], resolved[1], arg)
            self._apply_helper(sub, env)

    def _apply_helper(self, call: ast.Call, env: Env) -> None:
        """A call into a method with literal self-writes moves the call
        receiver to the written state(s)."""
        target = self.a.call_target.get(id(call))
        if target is None or not isinstance(call.func, ast.Attribute):
            return
        summary = self.a.helper_summary.get(target.fqn)
        if not summary:
            return
        receiver = _safe_unparse(call.func.value)
        if receiver is None:
            return
        for attr, dsts in summary.items():
            key = f"{receiver}.{attr}"
            if dsts is None:
                env.pop(key, None)
            else:
                env[key] = frozenset(dsts)

    def _assign_effect(self, stmt: ast.stmt, env: Env) -> None:
        """Creator transfer: ``x = make(..., State.PENDING)`` leaves the
        bound variable in the literal state for the matching binding."""
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        if len(targets) != 1 or not isinstance(targets[0], ast.Name):
            return
        value = stmt.value
        if not isinstance(value, ast.Call):
            return
        literals = [
            resolved
            for arg in list(value.args) + [kw.value for kw in value.keywords]
            if (resolved := resolve_state(arg, self.a.specs)) is not None
        ]
        if len(literals) != 1:
            return
        spec, state = literals[0]
        bindings = [b for b in self.a.inventory.bindings if b.spec is spec]
        if len(bindings) != 1:
            return
        env[f"{targets[0].id}.{bindings[0].attr}"] = frozenset({state})

    def _event(self, spec: ProtocolSpec, state: str, node: ast.AST) -> None:
        if spec.order and state in spec.order:
            self.walk.events.append(
                (spec, state, getattr(node, "lineno", self.func.line),
                 getattr(node, "col_offset", 0) + 1))

    # -- control flow --------------------------------------------------------------

    def _if(self, stmt: ast.If, env: Env) -> tuple[Env, bool]:
        self._scan_exprs(stmt.test, env)
        then_env, else_env = dict(env), dict(env)
        self._narrow(stmt.test, then_env, True)
        self._narrow(stmt.test, else_env, False)
        t_env, t_term = self._block(stmt.body, then_env)
        e_env, e_term = self._block(stmt.orelse, else_env)
        if t_term and e_term:
            return env, True
        if t_term:
            return e_env, False
        if e_term:
            return t_env, False
        return _merge(t_env, e_env), False

    def _loop(self, stmt, env: Env) -> tuple[Env, bool]:
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_exprs(stmt.iter, env)
        else:
            self._scan_exprs(stmt.test, env)
        body_env = _strip(env, self._written_keys(stmt.body))
        self._block(stmt.body, body_env)
        if stmt.orelse:
            self._block(stmt.orelse, body_env)
        return dict(body_env), False

    def _try(self, stmt: ast.Try, env: Env) -> tuple[Env, bool]:
        body_env, body_term = self._block(stmt.body, env)
        if stmt.orelse and not body_term:
            body_env, body_term = self._block(stmt.orelse, body_env)
        safe = _strip(env, self._written_keys(stmt.body))
        exits = [] if body_term else [body_env]
        for handler in stmt.handlers:
            h_env, h_term = self._block(handler.body, dict(safe))
            if not h_term:
                exits.append(h_env)
        if exits:
            out, terminated = exits[0], False
            for other in exits[1:]:
                out = _merge(out, other)
        else:
            out, terminated = dict(safe), True
        if stmt.finalbody:
            out, final_term = self._block(stmt.finalbody, out)
            terminated = terminated or final_term
        return out, terminated

    def _written_keys(self, stmts: list) -> set[str]:
        keys: set[str] = set()
        for stmt in stmts:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Assign, ast.AnnAssign,
                                     ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) \
                        else [node.target]
                    for target in targets:
                        text = _safe_unparse(target)
                        if text:
                            keys.add(text)
                elif isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute):
                    target = self.a.call_target.get(id(node))
                    summary = self.a.helper_summary.get(target.fqn) \
                        if target is not None else None
                    if summary:
                        receiver = _safe_unparse(node.func.value)
                        if receiver:
                            keys.update(f"{receiver}.{attr}"
                                        for attr in summary)
        return keys

    # -- guard narrowing -----------------------------------------------------------

    def _narrow(self, test: ast.expr, env: Env, truth: bool) -> None:
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            self._narrow(test.operand, env, not truth)
            return
        if isinstance(test, ast.BoolOp):
            if isinstance(test.op, ast.And) and truth:
                for value in test.values:
                    self._narrow(value, env, True)
            elif isinstance(test.op, ast.Or) and not truth:
                for value in test.values:
                    self._narrow(value, env, False)
            return
        if not isinstance(test, ast.Compare) or len(test.ops) != 1:
            return
        op = test.ops[0]
        left, right = test.left, test.comparators[0]
        if isinstance(op, (ast.Is, ast.Eq, ast.IsNot, ast.NotEq)):
            for key_expr, state_expr in ((left, right), (right, left)):
                resolved = resolve_state(state_expr, self.a.specs)
                if resolved is None:
                    continue
                key = _safe_unparse(key_expr)
                if key is None:
                    continue
                spec, state = resolved
                current = env.get(key, spec.states)
                positive = isinstance(op, (ast.Is, ast.Eq)) == truth
                env[key] = (current & {state}) if positive \
                    else (current - {state})
                return
        elif isinstance(op, (ast.In, ast.NotIn)) \
                and isinstance(right, (ast.Tuple, ast.List, ast.Set)):
            member_states: set[str] = set()
            spec = None
            for elt in right.elts:
                resolved = resolve_state(elt, self.a.specs)
                if resolved is None:
                    return
                spec, state = resolved
                member_states.add(state)
            key = _safe_unparse(left)
            if spec is None or key is None:
                return
            current = env.get(key, spec.states)
            positive = isinstance(op, ast.In) == truth
            env[key] = frozenset(current & member_states) if positive \
                else frozenset(current - member_states)


def _merge(a: Env, b: Env) -> Env:
    return {key: a[key] | b[key] for key in a.keys() & b.keys()}


def _strip(env: Env, written: set[str]) -> Env:
    return {
        key: states for key, states in env.items()
        if key not in written
        and not any(key.startswith(f"{w}.") for w in written)
    }


# -- rule families -----------------------------------------------------------------


def check_transitions(analysis: Analysis,
                      findings: list[Finding]) -> None:
    seen: set[tuple] = set()

    def add(check: str, path: str, line: int, col: int, message: str) -> None:
        key = (check, path, line, col, message)
        if key not in seen:
            seen.add(key)
            findings.append(Finding(check, path, line, col, message))

    for site, sources in analysis.site_env:
        spec = site.binding.spec
        if site.kind == "write" and site.dst is not None:
            _check_literal(analysis, site, sources, add)
        elif site.kind == "forward":
            _check_forward(analysis, site, sources, add)


def _caller_sources(analysis: Analysis, site: TransitionSite,
                    call: ast.Call) -> frozenset:
    """The caller's environment for the helper call's receiver."""
    spec = site.binding.spec
    env = analysis.call_env.get(id(call))
    if env is None or not isinstance(call.func, ast.Attribute):
        return spec.states
    receiver = _safe_unparse(call.func.value)
    if receiver is None:
        return spec.states
    return env.get(f"{receiver}.{site.binding.attr}", spec.states)


def _check_literal(analysis: Analysis, site: TransitionSite,
                   sources: frozenset, add) -> None:
    spec = site.binding.spec
    forbidden = frozenset(spec.forbidden_sources(site.dst))
    bad = sources & forbidden
    if not bad:
        return
    if sources != spec.states:
        add("illegal-transition", site.path, site.line, site.col,
            f"{spec.name}: guarded path still admits "
            f"{_states(bad)}->{site.dst}, which is not a declared "
            f"transition")
        return
    # Unguarded locally: judge each call site with the caller's
    # environment (depth-1 helper attribution through the call graph).
    callers = analysis.callers_of.get(site.func, []) \
        if site.receiver.startswith("self.") else []
    if not callers:
        add("unguarded-transition", site.path, site.line, site.col,
            f"{spec.name}: unguarded write of {site.dst}; not a declared "
            f"transition from {_states(forbidden)} -- guard on the "
            f"current state first")
        return
    helper = site.func.rsplit(".", 1)[-1]
    for caller, call, _kind in callers:
        caller_sources = _caller_sources(analysis, site, call)
        caller_bad = caller_sources & forbidden
        if not caller_bad:
            continue
        path = analysis.path_of(caller)
        line, col = call.lineno, call.col_offset + 1
        if caller_sources != spec.states:
            add("illegal-transition", path, line, col,
                f"{spec.name}: call into {helper}() may run "
                f"{_states(caller_bad)}->{site.dst}, which is not a "
                f"declared transition")
        else:
            add("unguarded-transition", path, line, col,
                f"{spec.name}: unguarded call into {helper}() writes "
                f"{site.dst}; not a declared transition from "
                f"{_states(forbidden)}")


def _check_forward(analysis: Analysis, site: TransitionSite,
                   sources: frozenset, add) -> None:
    spec = site.binding.spec
    func = analysis.project.functions.get(site.func)
    if func is None:
        return
    for caller, call, kind in analysis.callers_of.get(site.func, []):
        if kind == "rpc":
            continue    # fabric args do not map onto handler params
        bound = map_call_args(call, func)
        arg = bound.get(site.param)
        if arg is None:
            continue
        resolved = resolve_state(arg, analysis.specs)
        if resolved is None or resolved[0] is not spec:
            continue
        dst = resolved[1]
        forbidden = frozenset(spec.forbidden_sources(dst))
        bad = sources & forbidden
        if not bad:
            continue
        path = analysis.path_of(caller)
        line, col = call.lineno, call.col_offset + 1
        short = site.func.rsplit(".", 1)[-1]
        if sources != spec.states:
            add("illegal-transition", path, line, col,
                f"{spec.name}: {dst} forwarded into {short}() may run "
                f"{_states(bad)}->{dst}, which is not a declared "
                f"transition (write at {site.path}:{site.line})")
        else:
            add("unguarded-transition", path, line, col,
                f"{spec.name}: {dst} forwarded into {short}() reaches an "
                f"unguarded write at {site.path}:{site.line}; not a "
                f"declared transition from {_states(forbidden)}")


def check_handoff(analysis: Analysis,
                  findings: list[Finding]) -> None:
    for fqn in sorted(analysis.events):
        func = analysis.project.functions.get(fqn)
        if func is None:
            continue
        path = analysis.path_of(func)
        last: dict[str, int] = {}
        for spec, state, line, col in analysis.events[fqn]:
            index = spec.order.index(state)
            previous = last.get(spec.name)
            if previous is not None and index < previous and index != 0:
                findings.append(Finding(
                    "handoff-order", path, line, col,
                    f"{spec.name}: {state} touched after "
                    f"{spec.order[previous]}; the declared handoff order "
                    f"is {' -> '.join(spec.order)}"))
            last[spec.name] = index


def check_ownership(analysis: Analysis,
                    findings: list[Finding]) -> None:
    for site, _sources in analysis.site_env:
        binding = site.binding
        if site.module == binding.owner_module:
            continue
        owner = binding.owner.rsplit(".", 1)[-1]
        findings.append(Finding(
            "transition-outside-owner", site.path, site.line, site.col,
            f"{binding.spec.name}: {owner}.{binding.attr} written outside "
            f"its owner module {binding.owner_module}; route the "
            f"transition through an owner-class method"))


def check_silent(analysis: Analysis,
                 findings: list[Finding]) -> None:
    for site, _sources in analysis.site_env:
        if analysis.emits(site.func):
            continue
        callers = analysis.callers_of.get(site.func, [])
        if callers and all(analysis.emits(caller.fqn)
                           for caller, _call, _kind in callers):
            continue
        short = site.func.rsplit(".", 1)[-1]
        findings.append(Finding(
            "silent-transition", site.path, site.line, site.col,
            f"{site.binding.spec.name}: transition in {short}() emits no "
            f"metrics/tracing/log signal, and neither do all of its "
            f"callers -- state changes must be observable"))
