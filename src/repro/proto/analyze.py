"""Orchestration: declarations + inventory -> the five rule families."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis import Finding
from ..flow.callgraph import CallGraph
from ..flow.project import Project
from .declarations import ProtocolSpec, collect_protocols
from .inventory import ProtoInventory
from .rules import (
    Analysis,
    check_handoff,
    check_ownership,
    check_silent,
    check_transitions,
)

#: Every check the analyzer driver can select -- one name per rule family.
ALL_CHECKS = (
    "illegal-transition",
    "unguarded-transition",
    "handoff-order",
    "transition-outside-owner",
    "silent-transition",
)


@dataclass
class ProtoResult:
    findings: list[Finding] = field(default_factory=list)
    protocols: dict[str, ProtocolSpec] = field(default_factory=dict)
    inventory: ProtoInventory | None = None


def analyze(project: Project, graph: CallGraph,
            selected: frozenset[str] | None = None) -> ProtoResult:
    """Run the protocol-conformance analysis over one project index."""
    chosen = frozenset(ALL_CHECKS) if selected is None else selected
    protocols = collect_protocols(project)
    inventory = ProtoInventory(project, protocols)
    result = ProtoResult(protocols=protocols, inventory=inventory)

    analysis = Analysis(project, graph, protocols, inventory)
    analysis.run()

    if chosen & {"illegal-transition", "unguarded-transition"}:
        staged: list[Finding] = []
        check_transitions(analysis, staged)
        result.findings.extend(f for f in staged if f.check in chosen)
    if "handoff-order" in chosen:
        check_handoff(analysis, result.findings)
    if "transition-outside-owner" in chosen:
        check_ownership(analysis, result.findings)
    if "silent-transition" in chosen:
        check_silent(analysis, result.findings)

    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.check))
    return result
