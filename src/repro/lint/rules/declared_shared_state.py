"""declared-shared-state: module-level mutable state is registered.

Module-level mutable state (a counter, a registry dict, a cached
singleton) is shared by every cluster, test, and sanitizer run in the
process.  Undeclared, it is exactly the kind of hidden channel the
schedule sanitizer cannot reason about: two scenario replays observe
each other through it and digests stop being functions of the schedule
alone.

The rule does not ban such state -- some is legitimate (the tracing
hook, the vBucket UUID counter) -- it forces each module to *declare*
it in a module-level ``__shared_state__`` tuple naming the globals that
intentionally outlive a single run:

    __shared_state__ = ("_tracker",)
    _tracker: Tracker | None = None

Flagged unless declared (or suppressed):

* module-level bindings of stateful constructors (``itertools.count``,
  ``Counter``, ``defaultdict``, ``deque``, ``OrderedDict``, ``cycle``);
* module-level mutable displays/comprehensions (``= []``, ``= {}``)
  bound to lowercase names -- CONSTANT_CASE bindings are treated as
  frozen by convention;
* ``global NAME`` statements, the tell that a function rebinds module
  state.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ...analysis import Finding
from ..engine import LintContext, Rule, register_rule

_DECLARATION = "__shared_state__"
_STATEFUL_CONSTRUCTORS = frozenset({
    "count", "cycle", "Counter", "defaultdict", "deque", "OrderedDict",
})
_CONSTANT_STYLE = re.compile(r"^_{0,2}[A-Z0-9_]+$")
_MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set,
                     ast.ListComp, ast.DictComp, ast.SetComp)


@register_rule
class DeclaredSharedState(Rule):
    name = "declared-shared-state"
    invariant = (
        "module-level mutable state is declared in __shared_state__ "
        "(or suppressed) so shared-across-runs channels are explicit"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        declared = _declared_names(ctx.tree)
        for statement in ctx.tree.body:
            yield from self._check_binding(ctx, statement, declared)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Global):
                for name in node.names:
                    if name not in declared:
                        yield self.violation(
                            ctx, node,
                            f"`global {name}` rebinds module state from a "
                            f"function; declare {name!r} in "
                            f"{_DECLARATION} if the sharing is intentional",
                        )

    def _check_binding(self, ctx: LintContext, statement: ast.stmt,
                       declared: set[str]) -> Iterator[Finding]:
        if isinstance(statement, ast.Assign):
            targets, value = statement.targets, statement.value
        elif isinstance(statement, ast.AnnAssign) and statement.value:
            targets, value = [statement.target], statement.value
        else:
            return
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        names = [n for n in names
                 if n not in declared and not _is_dunder(n)]
        if not names:
            return
        constructor = _stateful_constructor(value)
        if constructor is not None:
            yield self.violation(
                ctx, statement,
                f"module-level {constructor}() is process-wide mutable "
                f"state; declare {', '.join(repr(n) for n in names)} in "
                f"{_DECLARATION} if the sharing is intentional",
            )
            return
        mutable_names = [n for n in names if not _CONSTANT_STYLE.match(n)]
        if mutable_names and isinstance(value, _MUTABLE_DISPLAYS):
            yield self.violation(
                ctx, statement,
                f"module-level mutable "
                f"{type(value).__name__.lower().removesuffix('comp')} "
                f"bound to {', '.join(repr(n) for n in mutable_names)}; "
                f"declare in {_DECLARATION}, or use CONSTANT_CASE and "
                f"treat it as frozen",
            )


def _declared_names(tree: ast.Module) -> set[str]:
    for statement in tree.body:
        if isinstance(statement, ast.Assign):
            targets, value = statement.targets, statement.value
        elif isinstance(statement, ast.AnnAssign) and statement.value:
            targets, value = [statement.target], statement.value
        else:
            continue
        if not any(isinstance(t, ast.Name) and t.id == _DECLARATION
                   for t in targets):
            continue
        if isinstance(value, (ast.Tuple, ast.List)):
            return {element.value for element in value.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)}
    return set()


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _stateful_constructor(value: ast.expr) -> str | None:
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    if isinstance(func, ast.Attribute):
        name = func.attr
    elif isinstance(func, ast.Name):
        name = func.id
    else:
        return None
    return name if name in _STATEFUL_CONSTRUCTORS else None
