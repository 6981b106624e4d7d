"""charge-balance: conservation of memory accounting.

``HashTable.charge(delta)`` is the single funnel every byte of cache
memory flows through; ``tests/kv/test_memory_accounting.py`` checks the
invariant *dynamically* (counter == ground-truth re-summation after
every mutation).  This module proves the structural half statically:

* an **accounting class** is any class defining a ``charge`` method;
* its **charged containers** are the attributes some method mutates in
  the same breath as calling ``charge`` -- the entry stores whose
  contents the counter mirrors;
* every method that *removes* from a charged container must issue a
  negative charge (directly or via one delegated sibling call), every
  method that *inserts* must issue a positive one;
* between a negative charge and its balancing positive re-charge, the
  method may not raise or call anything whose body raises: an exception
  in that window leaves the counter out of sync with live state.

Charge signs are classified syntactically: ``charge(-x)`` and negative
constants are negative, everything else positive.  A computed delta
(``charge(new - old)``) counts as positive -- if that is wrong, split
it into an explicit discharge/recharge pair, which is also easier to
audit.
"""

from __future__ import annotations

import ast

from ..analysis import Finding
from ..flow.callgraph import CallGraph
from ..flow.project import ClassInfo, FuncInfo, Project
from .containers import Inventory

CHECK = "charge-balance"


def _charge_calls(func: FuncInfo) -> list[tuple[ast.Call, str]]:
    """(call, "neg"|"pos") for every ``*.charge(...)`` in ``func``."""
    calls = []
    for node in ast.walk(func.node):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "charge" and node.args):
            arg = node.args[0]
            negative = (
                isinstance(arg, ast.UnaryOp)
                and isinstance(arg.op, ast.USub)
            ) or (
                isinstance(arg, ast.Constant)
                and isinstance(arg.value, (int, float)) and arg.value < 0
            )
            calls.append((node, "neg" if negative else "pos"))
    return calls


def _delegated_signs(func: FuncInfo, klass: ClassInfo,
                     signs_by_method: dict[str, set[str]]) -> set[str]:
    """Charge signs contributed by direct ``self.m(...)`` calls."""
    signs: set[str] = set()
    for node in ast.walk(func.node):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
                and node.func.attr in klass.methods):
            signs |= signs_by_method.get(node.func.attr, set())
    return signs


class _RaiseIndex:
    """Lazily answers "does this callee's own body raise?"."""

    def __init__(self, project: Project, graph: CallGraph):
        self.project = project
        self.sites_by_caller: dict[str, list] = {}
        for func, call, target, _kind in graph.call_sites:
            self.sites_by_caller.setdefault(func.fqn, []) \
                .append((call, target))
        self._raises: dict[str, bool] = {}

    def may_raise(self, fqn: str) -> bool:
        cached = self._raises.get(fqn)
        if cached is None:
            func = self.project.functions.get(fqn)
            cached = func is not None and any(
                isinstance(node, ast.Raise)
                for node in ast.walk(func.node)
            )
            self._raises[fqn] = cached
        return cached


def check_charges(project: Project, graph: CallGraph,
                  inventory: Inventory) -> list[Finding]:
    findings: list[Finding] = []
    raises = _RaiseIndex(project, graph)
    for cls_fqn in sorted(project.classes):
        klass = project.classes[cls_fqn]
        if "charge" not in klass.methods:
            continue
        module = project.modules.get(klass.module)
        if module is None:
            continue
        signs_by_method = {
            name: {sign for _call, sign in _charge_calls(method)}
            for name, method in klass.methods.items()
        }
        owned = [info for (owner, _attr), info in
                 sorted(inventory.containers.items())
                 if owner == cls_fqn]
        method_fqns = {m.fqn: name for name, m in klass.methods.items()}
        # A container is *charged* when some method mutates it and
        # charges in the same body.
        charged = [
            info for info in owned
            if any(site.func in method_fqns
                   and signs_by_method.get(method_fqns[site.func])
                   for site in info.growth + info.drains)
        ]
        for name in sorted(klass.methods):
            method = klass.methods[name]
            if name in ("charge", "__init__"):
                continue
            own = signs_by_method.get(name, set())
            available = own | _delegated_signs(method, klass,
                                               signs_by_method)
            for info in charged:
                for site in info.drains:
                    if site.func != method.fqn or "neg" in available:
                        continue
                    findings.append(Finding(
                        check=CHECK, path=module.path, line=site.line,
                        col=site.col,
                        message=f"{name} removes from charged container "
                                f"{info.describe()} without a negative "
                                f"charge(): the memory counter keeps "
                                f"counting freed bytes",
                    ))
                for site in info.growth + info.memo_sites:
                    if site.func != method.fqn or "pos" in available:
                        continue
                    findings.append(Finding(
                        check=CHECK, path=module.path, line=site.line,
                        col=site.col,
                        message=f"{name} inserts into charged container "
                                f"{info.describe()} without a positive "
                                f"charge(): the memory counter "
                                f"undercounts live bytes",
                    ))
            findings.extend(_check_gap(method, name, module.path, raises))
    return findings


def _check_gap(method: FuncInfo, name: str, path: str,
               raises: _RaiseIndex) -> list[Finding]:
    """No raise (own or called) between a discharge and its re-charge."""
    charges = sorted(_charge_calls(method),
                     key=lambda pair: (pair[0].lineno,
                                       pair[0].col_offset))
    findings: list[Finding] = []
    charge_ids = {id(call) for call, _sign in charges}
    for (first, first_sign), (second, _s) in zip(charges, charges[1:]):
        if first_sign != "neg":
            continue
        window = (first.lineno, second.lineno)
        for node in ast.walk(method.node):
            line = getattr(node, "lineno", None)
            if line is None or not (window[0] <= line <= window[1]):
                continue
            risky = None
            if isinstance(node, ast.Raise):
                risky = "raises"
            elif isinstance(node, ast.Call) and id(node) not in charge_ids:
                for call, target in raises.sites_by_caller.get(
                        method.fqn, ()):
                    if call is node and raises.may_raise(target.fqn):
                        risky = f"calls {target.name}(), which can raise"
                        break
            if risky is not None:
                findings.append(Finding(
                    check=CHECK, path=path, line=line,
                    col=getattr(node, "col_offset", 0) + 1,
                    message=f"{name} {risky} between a negative charge() "
                            f"and its balancing positive charge(): an "
                            f"exception here leaves the memory counter "
                            f"out of sync with live state",
                ))
                break
    return findings
