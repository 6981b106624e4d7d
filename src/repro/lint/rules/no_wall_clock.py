"""no-wall-clock: all time flows through an injected ``Clock``.

Wall-clock reads make TTL expiry, lock timeouts, and failure detection
nondeterministic -- the exact failure mode the shared ``VirtualClock``
exists to prevent.  Production code takes a ``Clock``; only the metrics
layer's profiling stopwatch (one audited, suppressed site) touches
``time.perf_counter``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ...analysis import Finding
from ..engine import LintContext, Rule, register_rule

#: ``time`` module functions that read or block on the wall clock.
_TIME_FUNCTIONS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "sleep",
})

#: ``datetime.datetime`` / ``datetime.date`` constructors that read it.
_DATETIME_FUNCTIONS = frozenset({"now", "utcnow", "today"})


@register_rule
class NoWallClock(Rule):
    name = "no-wall-clock"
    invariant = (
        "all time flows through an injected Clock/VirtualClock; no "
        "time.time/monotonic/perf_counter/sleep or datetime.now/utcnow"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        time_aliases: set[str] = set()
        datetime_aliases: set[str] = set()      # the datetime *module*
        datetime_classes: set[str] = set()      # datetime/date classes
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        time_aliases.add(alias.asname or "time")
                    elif alias.name == "datetime":
                        datetime_aliases.add(alias.asname or "datetime")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in _TIME_FUNCTIONS:
                            yield self.violation(
                                ctx, node,
                                f"importing time.{alias.name} reads the "
                                f"wall clock; inject a Clock instead",
                            )
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            datetime_classes.add(alias.asname or alias.name)
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            func = node.func
            receiver = func.value
            if (isinstance(receiver, ast.Name)
                    and receiver.id in time_aliases
                    and func.attr in _TIME_FUNCTIONS):
                yield self.violation(
                    ctx, node,
                    f"time.{func.attr}() reads the wall clock; use the "
                    f"injected Clock (common/clock.py)",
                )
            if func.attr in _DATETIME_FUNCTIONS:
                if isinstance(receiver, ast.Name) and \
                        receiver.id in datetime_classes:
                    yield self.violation(
                        ctx, node,
                        f"datetime.{func.attr}() reads the wall clock; "
                        f"use the injected Clock",
                    )
                elif (isinstance(receiver, ast.Attribute)
                      and isinstance(receiver.value, ast.Name)
                      and receiver.value.id in datetime_aliases
                      and receiver.attr in ("datetime", "date")):
                    yield self.violation(
                        ctx, node,
                        f"datetime.{receiver.attr}.{func.attr}() reads the "
                        f"wall clock; use the injected Clock",
                    )
