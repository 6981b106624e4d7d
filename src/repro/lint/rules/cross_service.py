"""no-cross-service-reach-through: services talk RPC, not object graphs.

The paper's services (query, index, views, XDCR, smart clients) reach
the data service over the network; reaching into ``repro.kv.engine``
from those layers would let tests pass against state a real deployment
could never observe.  Shared protocol/value types live in
``repro.kv.types``; ``if TYPE_CHECKING:`` imports are erased at runtime
and therefore allowed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ...analysis import Finding
from ..engine import LintContext, Rule, register_rule

#: Packages that run (or model code running) off the data node and must
#: go through the transport/smart-client RPC layer.
RESTRICTED_PACKAGES = (
    "repro.client",
    "repro.n1ql",
    "repro.gsi",
    "repro.views",
    "repro.xdcr",
)

_ENGINE_SUFFIX = "kv.engine"


@register_rule
class NoCrossServiceReachThrough(Rule):
    name = "no-cross-service-reach-through"
    invariant = (
        "client/, n1ql/, gsi/, views/, xdcr/ never import repro.kv.engine; "
        "shared value types come from repro.kv.types, data access goes "
        "through the transport/smart-client RPC layer"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.module_in(RESTRICTED_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            if ctx.in_type_checking_block(node):
                continue
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.endswith(_ENGINE_SUFFIX):
                        yield self._flag(ctx, node, alias.name)
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.endswith(_ENGINE_SUFFIX):
                    yield self._flag(ctx, node, module)

    def _flag(self, ctx: LintContext, node: ast.AST,
              module: str) -> Finding:
        return self.violation(
            ctx, node,
            f"{ctx.module} is a non-data service and may not import "
            f"{module}; take shared types from repro.kv.types and reach "
            f"the data service via the transport/smart-client RPC layer",
        )
