"""Orchestration: the three checking analyses over one call graph."""

from __future__ import annotations

from ..analysis import Finding
from .callgraph import CallGraph
from .excflow import analyze_exceptions
from .layers import analyze_layers
from .options import analyze_options
from .project import Project

#: Every analysis the driver can select; each reports several checks
#: (``exception-escape``, ``option-dropped``, ``import-cycle``, ...).
ALL_CHECKS = ("exceptions", "options", "layers")


def analyze(project: Project, graph: CallGraph,
            selected: frozenset[str] | None = None) -> list[Finding]:
    """Run the selected flow analyses (all by default)."""
    chosen = frozenset(ALL_CHECKS) if selected is None else selected
    findings: list[Finding] = []
    if "exceptions" in chosen:
        findings.extend(analyze_exceptions(graph).findings)
    if "options" in chosen:
        findings.extend(analyze_options(graph))
    if "layers" in chosen:
        findings.extend(analyze_layers(project))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.check))
    return findings
