"""error-taxonomy: service-layer code raises ``common.errors`` types.

Applications catch ``ReproError`` (or a specific subclass) at the public
API; a bare ``ValueError`` escaping the stack bypasses that contract and
can't carry protocol metadata (key, vbucket, CAS).  Constructor argument
validation (``__init__``/``__post_init__``) is allowlisted: rejecting a
nonsense config object at build time is a programming error, not a
service response.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ...analysis import Finding
from ..engine import LintContext, Rule, register_rule

_BANNED = frozenset({"ValueError", "KeyError", "RuntimeError"})

#: Raises directly inside these functions are constructor argument
#: validation -- programming errors, allowed to stay builtin.
_VALIDATION_FUNCTIONS = frozenset({"__init__", "__post_init__"})


@register_rule
class ErrorTaxonomy(Rule):
    name = "error-taxonomy"
    invariant = (
        "service-layer code raises common.errors types (every public "
        "failure is a ReproError); bare ValueError/KeyError/RuntimeError "
        "only in constructor argument validation"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        yield from self._walk(ctx, ctx.tree, enclosing=None)

    def _walk(self, ctx: LintContext, node: ast.AST,
              enclosing: str | None) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._walk(ctx, child, enclosing=child.name)
            elif isinstance(child, ast.Raise):
                name = _raised_name(child)
                if name in _BANNED and enclosing not in _VALIDATION_FUNCTIONS:
                    yield self.violation(
                        ctx, child,
                        f"raise {name} from service-layer code; raise a "
                        f"common.errors type (or subclass one from "
                        f"{name} if callers catch the builtin)",
                    )
                yield from self._walk(ctx, child, enclosing)
            else:
                yield from self._walk(ctx, child, enclosing)


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    return None
