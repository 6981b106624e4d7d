"""no-pump-reentrancy: pump bodies never re-enter the scheduler.

A pump runs *inside* ``Scheduler.step``; calling ``run_until_idle`` /
``step`` / ``run_until`` / ``advance`` from a pump body recursively
drives the other pumps from an arbitrary point in the current round.
That nests rounds (quiescence detection sees a mix of two rounds'
progress), reorders pumps behind the schedule policy's back, and -- with
the reentrancy guard added alongside this rule -- now raises
``SchedulerReentrancyError`` at runtime.  The lint catches it at review
time instead: pumps return and let the scheduler call them again.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ...analysis import Finding
from ..engine import LintContext, Rule, register_rule

_PUMP_NAMES = frozenset({"pump", "_pump"})
_DRIVE_METHODS = frozenset({"run_until_idle", "step", "run_until", "advance"})


@register_rule
class NoPumpReentrancy(Rule):
    name = "no-pump-reentrancy"
    invariant = (
        "pump bodies never call the scheduler drive loop (run_until_idle/"
        "step/run_until/advance); pumps return and get re-invoked"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name in _PUMP_NAMES):
                continue
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                callee = _called_name(call.func)
                if callee in _DRIVE_METHODS:
                    yield self.violation(
                        ctx, call,
                        f"pump {node.name}() calls {callee}(), re-entering "
                        f"the scheduler drive loop mid-round; return instead "
                        f"and let the scheduler re-invoke the pump",
                    )


def _called_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None
