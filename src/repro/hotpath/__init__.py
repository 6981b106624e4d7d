"""repro-hotpath: static cost analysis of the tree's hot paths.

The analyzer derives the *hot set* -- every function reachable from an
``@hot_path`` root or a registered scheduler pump, closed over the
whole-program call graph from :mod:`repro.flow` -- and then holds that
set to a higher standard than the rest of the tree:

* per-function AST cost rules (quadratic loop patterns, per-row copies
  of loop-invariant values, loop-invariant expensive work, N+1 RPC
  fan-out), scoped to hot functions only so cold setup code stays free
  to be simple; and
* an ``@cost`` contract check: declared bounds must be consistent up
  the call graph -- an ``O(1)`` op cannot lean on an ``O(n)`` callee,
  and a loop multiplies whatever it calls.

Run it with ``python -m repro.analysis --check hotpath`` (exit 0 clean /
1 findings / 2 usage, the contract every analyzer shares).
"""

from .analyze import ALL_CHECKS, HotpathResult, analyze
from .costs import COST_CHECKS, check_costs
from .rules import RULES, scan_function

__all__ = [
    "ALL_CHECKS",
    "COST_CHECKS",
    "HotpathResult",
    "RULES",
    "analyze",
    "check_costs",
    "scan_function",
]
