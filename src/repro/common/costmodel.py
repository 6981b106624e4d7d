"""Declared-cost contracts for performance-critical code.

The paper's core claim is that the managed cache serves KV traffic at
memcached-like speed with query processing layered on top (sections 2
and 5) -- so the KV op path, the per-row N1QL operators, and the
scheduler pump bodies are performance-critical *by construction*.  These
two decorators make that status machine-checkable:

* ``@hot_path`` marks a function as a hot-set **root**: everything it
  (transitively) calls is analyzed by ``repro.hotpath`` for accidental
  per-call blowups (quadratic loops, defensive copies, loop-invariant
  work, N+1 RPC fan-out).
* ``@cost("O(1)" | "O(log n)" | "O(n)")`` declares an upper bound on a
  hot root's per-call work, where *n* is the size of the input the call
  actually touches (a batch, one vBucket's live set) -- never the whole
  keyspace.  ``repro.hotpath`` checks declarations for consistency up
  the call graph: an ``O(1)`` function may not call an ``O(n)`` one, and
  nothing may call an ``O(n)`` function from inside an unbounded loop.

Both are **zero-overhead at runtime**: they attach attributes to the
function object and return it unwrapped, so decorated hot paths pay
nothing per call.  The analyzer reads the decorators statically (by
name, off the AST) -- importability is not required for analysis.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from .errors import InvalidArgumentError

F = TypeVar("F", bound=Callable)

#: The declarable cost vocabulary, cheapest first.  Anything that cannot
#: honestly declare ``O(n)`` of its *per-call input* does not belong on
#: a hot path and should be restructured (bounded slices, batching)
#: rather than given a bigger annotation.
COSTS = ("O(1)", "O(log n)", "O(n)")

#: Rank order used by the analyzer's contract check.
COST_RANK = {name: rank for rank, name in enumerate(COSTS)}


def hot_path(fn: F) -> F:
    """Mark ``fn`` as a hot-set root for ``repro.hotpath``.

    Returns ``fn`` unchanged (no wrapper): the marker must not add a
    frame to the very paths it declares performance-critical.
    """
    fn.__hot_path__ = True
    return fn


def cost(bound: str) -> Callable[[F], F]:
    """Declare ``fn``'s per-call cost bound (one of :data:`COSTS`).

    ``n`` is the size of the per-call input -- the keys in one multi-op,
    the rows in one batch, the change-buffer slice one flush drains -- not
    global state.  The bound is enforced statically by ``repro.hotpath``
    (callees must declare costs no greater than their callers'), never
    at runtime.
    """
    if bound not in COSTS:
        raise InvalidArgumentError(
            f"cost bound must be one of {COSTS}, got {bound!r}"
        )

    def mark(fn: F) -> F:
        fn.__declared_cost__ = bound
        return fn

    return mark
