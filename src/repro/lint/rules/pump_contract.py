"""pump-contract: background pumps are bounded and report progress.

``Scheduler.run_until_idle`` terminates only because every pump (a) does
a *bounded* batch of work per invocation and (b) returns ``bool`` so the
scheduler can detect quiescence.  A pump that loops ``while True`` until
its queue drains starves every other pump and defeats the livelock
safety valve; a pump without a ``-> bool`` annotation is one refactor
away from returning ``None`` (falsy) and silently ending rounds early.
The rule checks the conventionally named pump entry points (``pump`` /
``_pump``) that ``Scheduler.register`` call sites hand over.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ...analysis import Finding
from ..engine import LintContext, Rule, register_rule

_PUMP_NAMES = frozenset({"pump", "_pump"})


@register_rule
class PumpContract(Rule):
    name = "pump-contract"
    invariant = (
        "every Scheduler pump returns bool (annotated -> bool) and drains "
        "a bounded batch per call; no unbounded `while True` drain loops"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name in _PUMP_NAMES):
                continue
            if not _returns_bool(node):
                yield self.violation(
                    ctx, node,
                    f"pump {node.name}() must be annotated `-> bool` so the "
                    f"scheduler can detect quiescence",
                )
            for loop in ast.walk(node):
                if isinstance(loop, ast.While) and _is_true(loop.test) \
                        and not _has_break(loop):
                    yield self.violation(
                        ctx, loop,
                        f"unbounded `while True` drain inside pump "
                        f"{node.name}(); drain a bounded batch and return "
                        f"True to be re-invoked",
                    )


def _returns_bool(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    returns = node.returns
    return isinstance(returns, ast.Name) and returns.id == "bool"


def _is_true(test: ast.expr) -> bool:
    return isinstance(test, ast.Constant) and test.value is True


def _has_break(loop: ast.While) -> bool:
    for node in ast.walk(loop):
        if isinstance(node, ast.Break):
            return True
        # A break inside a nested loop doesn't exit this one, but nested
        # loops inside an unbounded drain are rare enough that the
        # coarse check keeps the rule simple; suppress if it misfires.
    return False
