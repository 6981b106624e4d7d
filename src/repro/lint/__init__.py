"""repro-lint: AST-based invariant checker for this reproduction.

The architecture the paper implies rests on invariants nothing in the
Python language enforces: all time flows through ``VirtualClock``, all
background work runs as bounded deterministic pumps, cross-service
access goes through the transport/smart-client RPC layer, and N1QL
honors the MISSING/NULL value discipline.  This package is a small
static-analysis pass over the package's own AST that keeps those
invariants from silently eroding -- one careless ``time.time()`` away
from nondeterministic tests.

Run it as ``python -m repro.analysis --check lint [paths...]`` or
through the tier-1 pytest suite (``tests/lint``).  Findings can be
suppressed per line with ``# repro-lint: disable=<rule>[,<rule>...]``
(or ``disable-next=`` on the preceding line); every suppression should
carry a justification comment.
"""

from .engine import (  # noqa: F401
    LintContext,
    Rule,
    all_rules,
    analyze,
    lint_source,
    register_rule,
)

__all__ = [
    "LintContext",
    "Rule",
    "all_rules",
    "analyze",
    "lint_source",
    "register_rule",
]
