"""repro-bounds: whole-program resource-bounds & lifecycle analysis.

The fifth analysis layer.  repro-lint checks lines, repro-sanitize
checks scenarios, repro-flow checks the call graph, repro-hotpath
checks costs on hot paths -- repro-bounds checks that everything the
running system *accumulates* is bounded and everything it *acquires*
is released.  Five rule families, all scoped to code reachable from
pumps, timers, RPC handlers, and ``@hot_path`` roots:

* ``unbounded-buffer`` -- containers that grow on a pump/RPC path with
  no maxlen, drain, cap, or ``@bounded`` declaration;
* ``cache-without-eviction`` -- dict-backed memo/caches with no
  eviction policy;
* ``charge-balance`` -- mutations of memory-accounted containers must
  carry matching ``charge()`` calls, including on exception paths;
* ``retry-without-backoff`` -- loops re-issuing RPCs after
  ``TemporaryFailureError`` with no relief call;
* ``leak-on-error`` -- acquired slots/permits not released in a
  ``finally``.

Run as ``python -m repro.analysis --check bounds [paths...]``.
"""

from .analyze import ALL_CHECKS, BoundsResult, analyze
from .scope import derive_bounds_scope

__all__ = [
    "ALL_CHECKS",
    "BoundsResult",
    "analyze",
    "derive_bounds_scope",
]
