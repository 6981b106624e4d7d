"""Orchestration: inventory + scope -> the five rule families."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis import Finding
from ..flow.callgraph import CallGraph
from ..flow.hotset import HotSet
from ..flow.project import Project
from .charges import check_charges
from .containers import Inventory
from .rules import check_buffers, scan_function
from .scope import derive_bounds_scope

#: Every check the analyzer driver can select -- one name per rule family.
ALL_CHECKS = (
    "unbounded-buffer",
    "cache-without-eviction",
    "charge-balance",
    "retry-without-backoff",
    "leak-on-error",
)


@dataclass
class BoundsResult:
    findings: list[Finding] = field(default_factory=list)
    scope: HotSet = field(default_factory=HotSet)
    inventory: Inventory | None = None


def analyze(project: Project, graph: CallGraph,
            selected: frozenset[str] | None = None) -> BoundsResult:
    """Run the resource-bounds analysis over one project index."""
    chosen = frozenset(ALL_CHECKS) if selected is None else selected
    scope = derive_bounds_scope(project, graph)
    inventory = Inventory(project)
    inventory.mark_memo_sites()
    result = BoundsResult(scope=scope, inventory=inventory)

    if chosen & {"unbounded-buffer", "cache-without-eviction"}:
        result.findings.extend(
            check_buffers(project, inventory, scope, chosen)
        )
    if "charge-balance" in chosen:
        result.findings.extend(check_charges(project, graph, inventory))
    if chosen & {"retry-without-backoff", "leak-on-error"}:
        for fqn in sorted(scope.members):
            func = project.functions.get(fqn)
            if func is None:
                continue
            module = project.modules.get(func.module)
            if module is None:
                continue
            result.findings.extend(
                scan_function(func, module.path, project, chosen)
            )

    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.check))
    return result
