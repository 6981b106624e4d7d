"""Layer conformance over the module import graph.

The architecture is a DAG the paper draws directly: clients sit on top
of the cluster fabric, the fabric hosts the services, the services sit
on the KV engine and DCP streams, and everything shares ``common``.
Imports must flow strictly downward:

    =====  ==========================================
    rank   packages
    =====  ==========================================
    0      common
    1      storage
    2      kv
    3      dcp
    4      n1ql, gsi, views, xdcr, replication
    5      cluster
    6      client
    7      server, ycsb
    8      lint, sanitize, flow, analysis  (tooling)
    9      the ``repro`` facade __init__
    =====  ==========================================

Checks:

``layer-violation``
    An import whose importer's rank is not above the importee's.
    Same-package imports are free; same-rank cross-package imports go
    through the declared interface modules only (collation, index
    definitions, view definitions).  ``if TYPE_CHECKING:`` imports are
    erased at runtime and exempt.  Deferred (function-body) imports are
    still layer-checked -- deferring an upward import hides the layering
    breach without removing it.

``layer-restricted``
    ``repro.kv.engine`` / ``repro.kv.hashtable`` hold node-local state a
    real deployment reaches only over the fabric; only kv, cluster, dcp,
    replication and the analysis tooling may import them (shared value
    types live in ``repro.kv.types``).

``import-cycle``
    Strongly connected components in the *eager* import graph.  Deferred
    imports are excluded here (a function-body import cannot deadlock
    module init) but still rank-checked above.
"""

from __future__ import annotations

from ..analysis import Finding
from .project import DEFERRED, EAGER, ModuleInfo, Project

RANKS = {
    "common": 0,
    "storage": 1, "admission": 1,
    "kv": 2,
    "dcp": 3,
    "n1ql": 4, "gsi": 4, "views": 4, "xdcr": 4, "replication": 4,
    "cluster": 5,
    "client": 6,
    "server": 7, "ycsb": 7,
    "lint": 8, "sanitize": 8, "flow": 8, "analysis": 8,
    "": 9,   # the repro facade __init__ re-exports from everywhere
}

TOOLING_RANK = 8

#: Same-rank cross-package imports allowed through these modules only:
#: they are the declared interfaces between sibling services.
INTERFACE_MODULES = frozenset({
    "repro.n1ql.collation",
    "repro.gsi.indexdef",
    "repro.views.viewindex",
    "repro.views.mapreduce",
})

#: Node-local engine internals; see ``layer-restricted`` above.
RESTRICTED_MODULES = frozenset({
    "repro.kv.engine",
    "repro.kv.hashtable",
})

RESTRICTED_IMPORTERS = frozenset({
    "kv", "cluster", "dcp", "replication",
    "lint", "sanitize", "flow", "analysis",
})


def package_of(module_name: str) -> str:
    """First path component under the ``repro`` root ('' for the facade
    ``repro`` / ``repro.__init__`` itself)."""
    parts = module_name.split(".")
    if parts[0] != "repro":
        return parts[0]
    if len(parts) == 1:
        return ""
    return parts[1]


def _resolve_importee(project: Project, target: str,
                      symbol: str | None) -> str | None:
    """The project module an import record actually lands in, or None
    for stdlib/external imports."""
    if symbol is not None and f"{target}.{symbol}" in project.modules:
        return f"{target}.{symbol}"
    if target in project.modules:
        return target
    return None


def analyze_layers(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    eager_graph: dict[str, set[str]] = {}
    for module in project.modules.values():
        package = package_of(module.name)
        rank = RANKS.get(package)
        for record in module.imports:
            importee = _resolve_importee(project, record.target,
                                         record.symbol)
            if importee is None or record.kind == "type-checking":
                continue
            if record.kind == EAGER:
                eager_graph.setdefault(module.name, set()).add(importee)
            findings.extend(_check_record(module, record, importee,
                                          package, rank))
    findings.extend(_find_cycles(project, eager_graph))
    return findings


def _check_record(module: ModuleInfo, record, importee: str,
                  package: str, rank: int | None) -> list[Finding]:
    findings = []
    importee_package = package_of(importee)
    importee_rank = RANKS.get(importee_package)
    deferred_note = " (deferred imports are still layer-checked)" \
        if record.kind == DEFERRED else ""
    if importee in RESTRICTED_MODULES \
            and package not in RESTRICTED_IMPORTERS \
            and package != importee_package:
        findings.append(Finding(
            check="layer-restricted", path=str(module.path),
            line=record.line, col=record.col,
            message=(
                f"{module.name} imports {importee}, which holds node-local "
                f"engine state; go through the fabric RPC layer (shared "
                f"value types live in repro.kv.types){deferred_note}"
            ),
        ))
    if rank is None or importee_rank is None:
        return findings
    if package == importee_package:
        return findings
    if rank == TOOLING_RANK and importee_rank == TOOLING_RANK:
        return findings  # tooling freely shares tooling
    if rank > importee_rank:
        return findings
    if rank == importee_rank and importee in INTERFACE_MODULES:
        return findings
    direction = ("sideways" if rank == importee_rank else "upward")
    findings.append(Finding(
        check="layer-violation", path=str(module.path),
        line=record.line, col=record.col,
        message=(
            f"{module.name} (layer {package or 'repro'!r}, rank {rank}) "
            f"imports {importee} (layer {importee_package!r}, rank "
            f"{importee_rank}) -- a {direction} import; dependencies must "
            f"flow client -> fabric -> services -> kv -> common"
            f"{deferred_note}"
        ),
    ))
    return findings


def _find_cycles(project: Project,
                 graph: dict[str, set[str]]) -> list[Finding]:
    """Tarjan SCC over the eager import graph; every non-trivial SCC is
    one finding anchored at its first module."""
    index_counter = [0]
    stack: list[str] = []
    on_stack: set[str] = set()
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    sccs: list[list[str]] = []

    def strongconnect(node: str) -> None:
        # Iterative Tarjan: (node, edge iterator) frames.
        work = [(node, iter(sorted(graph.get(node, ()))))]
        index[node] = low[node] = index_counter[0]
        index_counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        while work:
            current, edges = work[-1]
            advanced = False
            for child in edges:
                if child not in graph and child not in index:
                    continue
                if child not in index:
                    index[child] = low[child] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(graph.get(child, ())))))
                    advanced = True
                    break
                if child in on_stack:
                    low[current] = min(low[current], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[current])
            if low[current] == index[current]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == current:
                        break
                if len(component) > 1 or current in graph.get(current, ()):
                    sccs.append(sorted(component))

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)

    findings = []
    for component in sccs:
        anchor = project.modules.get(component[0])
        findings.append(Finding(
            check="import-cycle",
            path=str(anchor.path) if anchor else component[0],
            line=1, col=1,
            message=(
                f"eager import cycle: {' -> '.join(component)} -> "
                f"{component[0]}; break it with a deferred import or by "
                f"moving the shared piece down a layer"
            ),
        ))
    return findings
