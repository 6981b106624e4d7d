"""Orchestration: hot set -> per-function rules -> cost contract."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis import Finding
from ..flow.callgraph import CallGraph
from ..flow.hotset import HotSet, derive_hot_set
from ..flow.project import Project
from .costs import COST_CHECKS, check_costs
from .rules import RULES, scan_function

#: Every check the analyzer driver can select.
ALL_CHECKS = RULES + COST_CHECKS


@dataclass
class HotpathResult:
    findings: list[Finding] = field(default_factory=list)
    hotset: HotSet = field(default_factory=HotSet)


def analyze(project: Project, graph: CallGraph,
            selected: frozenset[str] | None = None) -> HotpathResult:
    """Run the hot-path cost analysis over one project index."""
    chosen = frozenset(ALL_CHECKS) if selected is None else selected
    hotset = derive_hot_set(project, graph)
    result = HotpathResult(hotset=hotset)

    rule_selection = chosen & frozenset(RULES)
    if rule_selection:
        for fqn in sorted(hotset.members):
            func = project.functions.get(fqn)
            if func is None:
                continue
            module = project.modules.get(func.module)
            if module is None:
                continue
            result.findings.extend(scan_function(
                func, module, f"hot: {hotset.why(fqn)}", rule_selection,
            ))

    cost_selection = chosen & frozenset(COST_CHECKS)
    if cost_selection:
        result.findings.extend(
            check_costs(project, graph, hotset, cost_selection)
        )

    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.check))
    return result
