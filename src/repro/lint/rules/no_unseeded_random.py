"""no-unseeded-random: every RNG is a ``random.Random(seed)`` instance.

The module-level ``random.*`` functions share one process-global,
OS-seeded generator: two runs of the same test interleave differently
and YCSB key streams stop being reproducible.  Construct
``random.Random(seed)`` with an explicit seed and thread it through.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ...analysis import Finding
from ..engine import LintContext, Rule, register_rule

#: Constructors that are fine when explicitly seeded (Random) or
#: intentionally nondeterministic by contract (SystemRandom is still
#: flagged: nothing in this repo should want it).
_ALLOWED_ATTRS = frozenset({"Random"})


@register_rule
class NoUnseededRandom(Rule):
    name = "no-unseeded-random"
    invariant = (
        "no module-level random.* calls or unseeded random.Random(); "
        "every RNG is constructed with an explicit seed"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        random_aliases: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        random_aliases.add(alias.asname or "random")
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name not in _ALLOWED_ATTRS:
                        yield self.violation(
                            ctx, node,
                            f"random.{alias.name} uses the process-global "
                            f"RNG; construct random.Random(seed) instead",
                        )
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in random_aliases):
                continue
            attr = node.func.attr
            if attr == "Random":
                if not node.args and not node.keywords:
                    yield self.violation(
                        ctx, node,
                        "random.Random() without a seed is OS-seeded; "
                        "pass an explicit seed argument",
                    )
            elif attr not in _ALLOWED_ATTRS:
                yield self.violation(
                    ctx, node,
                    f"random.{attr}() uses the process-global RNG; "
                    f"use a seeded random.Random instance",
                )
