"""metrics-naming: metric names are dotted lowercase literals.

Dashboards and the ablation benches select series by exact name
(``n1ql.plan_cache.hit``); a dynamically built or oddly cased name is a
series nobody ever graphs.  Every ``metrics.inc(...)`` /
``metrics.observe(...)`` call must pass a string literal matching the
``service.component[.component...]`` convention.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ...analysis import Finding
from ..engine import LintContext, Rule, register_rule

_METRIC_METHODS = frozenset({"inc", "observe", "timer"})

#: n1ql.plan_cache.hit, kv.multi_gets, rebalance.vbuckets_out, ...
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")


@register_rule
class MetricsNaming(Rule):
    name = "metrics-naming"
    invariant = (
        "every metrics counter/timer name is a dotted lowercase literal "
        "(`n1ql.plan_cache.hit` convention) so dashboards never chase "
        "dynamic names"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _METRIC_METHODS
                    and _receiver_is_metrics(node.func.value)):
                continue
            if not node.args:
                continue
            name_arg = node.args[0]
            if not (isinstance(name_arg, ast.Constant)
                    and isinstance(name_arg.value, str)):
                yield self.violation(
                    ctx, node,
                    f"metrics.{node.func.attr}() name must be a string "
                    f"literal, not a computed value; dashboards select "
                    f"series by exact name",
                )
            elif not _NAME_RE.match(name_arg.value):
                yield self.violation(
                    ctx, node,
                    f"metric name {name_arg.value!r} does not match the "
                    f"dotted lowercase convention (like "
                    f"'n1ql.plan_cache.hit')",
                )


def _receiver_is_metrics(receiver: ast.expr) -> bool:
    """True for ``metrics.inc`` / ``self.metrics.inc`` /
    ``self.node.metrics.observe`` -- the chain ends in ``metrics``."""
    if isinstance(receiver, ast.Name):
        return receiver.id == "metrics"
    if isinstance(receiver, ast.Attribute):
        return receiver.attr == "metrics"
    return False
