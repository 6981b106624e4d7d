"""repro-flow: whole-program call-graph analysis for the repro tree.

Where repro-lint judges one file at a time, repro-flow parses the whole
tree once, builds a module import graph and a name-resolved call graph
(methods, scheduler pumps, timers, ``functools.partial``, and fabric
dispatch-by-string are all explicit edge kinds), and runs three
interprocedural analyses on top:

* **exception flow** -- which ``common.errors`` exceptions can escape
  each service entry point, checked against ``@declared_raises``
  contracts (:mod:`repro.flow.excflow`);
* **option plumbing** -- do ``replicate_to`` / ``scan_consistency`` /
  ``stale`` and friends survive the trip from client API to engine sink
  under their canonical names (:mod:`repro.flow.options`);
* **layer conformance** -- imports must flow down the architecture DAG,
  with cycle detection over eager imports (:mod:`repro.flow.layers`).

A reachability-based dead-code report rides along
(:mod:`repro.flow.deadcode`).  The project index and call graph built
here are the one program every analyzer shares; run the analyses with
``python -m repro.analysis --check flow`` and suppress a finding with
``# repro-flow: disable=<check>``.
"""

from .analyze import ALL_CHECKS, analyze
from .callgraph import CallEdge, CallGraph, build_callgraph
from .deadcode import analyze_dead_code
from .excflow import analyze_exceptions
from .hotset import HotSet, declared_cost, derive_hot_set, is_hot_root
from .layers import analyze_layers
from .options import analyze_options
from .project import Project

__all__ = [
    "ALL_CHECKS",
    "CallEdge",
    "CallGraph",
    "HotSet",
    "Project",
    "analyze",
    "analyze_dead_code",
    "analyze_exceptions",
    "analyze_layers",
    "analyze_options",
    "build_callgraph",
    "declared_cost",
    "derive_hot_set",
    "is_hot_root",
]
