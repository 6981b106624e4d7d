"""missing-null-discipline: N1QL code respects the MISSING sentinel.

Section 3.2.1's value space has *two* absent values: MISSING (the field
is not there) and NULL (it is there and null), and they propagate
differently through every operator.  Python code that compares an
evaluator result with ``== None`` (or tests ``evaluate(...) is None``
directly, skipping the MISSING check) silently collapses the two.  The
rule fires only inside ``repro.n1ql``:

* any ``== None`` / ``!= None`` comparison (also a Python style bug);
* ``<evaluator>.evaluate(...) is None`` / ``is not None`` on the call
  result itself -- bind the value and test ``is MISSING`` first.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ...analysis import Finding
from ..engine import LintContext, Rule, register_rule

_EVAL_NAMES = frozenset({"evaluate", "eval_expr"})


@register_rule
class MissingNullDiscipline(Rule):
    name = "missing-null-discipline"
    invariant = (
        "n1ql code never conflates MISSING with NULL: no `== None` "
        "comparisons, and no `is None` directly on evaluate() results "
        "without checking the MISSING sentinel"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.module_in(("repro.n1ql",)):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if isinstance(op, (ast.Eq, ast.NotEq)) and (
                        _is_none(left) or _is_none(right)):
                    yield self.violation(
                        ctx, node,
                        "`== None` conflates NULL with MISSING (and is "
                        "never identity-safe); use `is None` after an "
                        "explicit `is MISSING` check",
                    )
                elif isinstance(op, (ast.Is, ast.IsNot)):
                    other = left if _is_none(right) else (
                        right if _is_none(left) else None)
                    if other is not None and _is_evaluate_call(other):
                        yield self.violation(
                            ctx, node,
                            "`evaluate(...) is None` skips the MISSING "
                            "check; bind the result and test `is MISSING` "
                            "before `is None`",
                        )


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _is_evaluate_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in _EVAL_NAMES
    if isinstance(func, ast.Attribute):
        return func.attr in _EVAL_NAMES
    return False
