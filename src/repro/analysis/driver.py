"""The analyzer driver: ``python -m repro.analysis [paths...]``.

It discovers the files once, builds one
:class:`~repro.flow.project.Project` and one
:class:`~repro.flow.callgraph.CallGraph`, and runs every selected tool
over them:

=========  ======================  ==========================================
tool       suppression tag         checks
=========  ======================  ==========================================
lint       ``# repro-lint:``       one per rule (``no-wall-clock``, ...)
flow       ``# repro-flow:``       ``exceptions``, ``options``, ``layers``
hotpath    ``# repro-hotpath:``    the cost rules and ``@cost`` contracts
bounds     ``# repro-bounds:``     five resource-bound rule families
proto      ``# repro-proto:``      five protocol rule families
=========  ======================  ==========================================

``--check`` takes any of those check names or a tool name, which
selects all of that tool's checks; without it every tool runs.  Each
finding is filtered by its own tool's suppression tag and by the one
relaxed-profile exemption table (:data:`repro.analysis.RELAXED_EXEMPT`).
Exit status is 0 clean, 1 findings, 2 usage errors: an unknown or
empty ``--check``, a missing path, no Python files, or a file that does
not parse.

``--report NAME`` prints an informational report instead of checking
and always exits 0: ``rules`` (every check by tool), ``dead-code``
(unreachable-function candidates), ``raises`` (ready-to-paste
``@declared_raises`` lines for entry points with undeclared escapes),
``hot-set`` and ``scope`` (the hotpath and bounds scopes with
provenance) and ``protocols`` (declared protocols with their bindings
and transition sites).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable

from .. import bounds, flow, hotpath, lint, proto
from ..bounds.scope import derive_bounds_scope
from ..flow.callgraph import CallGraph, build_callgraph
from ..flow.deadcode import analyze_dead_code
from ..flow.excflow import analyze_exceptions
from ..flow.hotset import HotSet, derive_hot_set
from ..flow.project import Project
from ..proto.declarations import collect_protocols
from ..proto.inventory import ProtoInventory
from .harness import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    PROFILES,
    Finding,
    UsageError,
    discover,
    keep_finding,
    parse_suppressions,
)
from .output import FORMATS, github_annotation

PROG = "repro-analysis"

#: (project, graph, selected checks) -> (findings, summary detail).
Runner = Callable[[Project, CallGraph, frozenset[str]],
                  tuple[list[Finding], str]]


@dataclass(frozen=True)
class Tool:
    name: str
    checks: tuple[str, ...]
    run: Runner

    @property
    def tag(self) -> str:
        return f"repro-{self.name}"


def _run_lint(project, graph, selected):
    return lint.analyze(project, graph, selected), ""


def _run_flow(project, graph, selected):
    return flow.analyze(project, graph, selected), (
        f"{len(project.functions)} functions, {len(graph.edges)} call "
        f"edges, {graph.unresolved_calls} unresolved calls")


def _run_hotpath(project, graph, selected):
    result = hotpath.analyze(project, graph, selected)
    return result.findings, (
        f"{len(result.hotset.members)} hot functions from "
        f"{len(result.hotset.roots)} roots")


def _run_bounds(project, graph, selected):
    result = bounds.analyze(project, graph, selected)
    return result.findings, (
        f"{len(result.inventory.containers)} containers tracked, "
        f"{len(result.scope.members)} functions in scope from "
        f"{len(result.scope.roots)} roots")


def _run_proto(project, graph, selected):
    result = proto.analyze(project, graph, selected)
    inventory = result.inventory
    return result.findings, (
        f"{len(result.protocols)} protocols, {len(inventory.bindings)} "
        f"bindings, {len(inventory.sites)} transition sites")


#: The five static tools, in run order; ``--check`` keys on their names.
TOOLS = (
    Tool("lint", tuple(rule.name for rule in lint.all_rules()), _run_lint),
    Tool("flow", flow.ALL_CHECKS, _run_flow),
    Tool("hotpath", hotpath.ALL_CHECKS, _run_hotpath),
    Tool("bounds", bounds.ALL_CHECKS, _run_bounds),
    Tool("proto", proto.ALL_CHECKS, _run_proto),
)


def select(arg: str | None) -> dict[Tool, frozenset[str]]:
    """Resolve ``--check NAME[,NAME...]`` (``None``: everything) to each
    tool's selected checks; tools with nothing selected do not run.  An
    unknown name or an empty list is a usage error, never a pass."""
    vocabulary = [tool.name for tool in TOOLS]
    vocabulary += [check for tool in TOOLS for check in tool.checks]
    if arg is None:
        names = frozenset(vocabulary)
    else:
        listed = [name.strip() for name in arg.split(",") if name.strip()]
        if not listed:
            raise UsageError(f"empty check selection {arg!r}")
        unknown = [name for name in listed if name not in vocabulary]
        if unknown:
            raise UsageError(f"unknown check {', '.join(unknown)} "
                             f"(choose from {', '.join(vocabulary)})")
        names = frozenset(listed)
    chosen = {}
    for tool in TOOLS:
        checks = frozenset(tool.checks) if tool.name in names \
            else names & frozenset(tool.checks)
        if checks:
            chosen[tool] = checks
    return chosen


def kept_findings(findings: list[Finding], project: Project, tag: str,
                  profile: str) -> list[Finding]:
    """Drop the findings the reporting tool's suppression comments
    (``# <tag>: disable=...``) silence and the ones the file's resolved
    profile exempts."""
    suppressions = {
        module.path: parse_suppressions(module.source_lines, tag)
        for module in project.modules.values()
    }
    return [finding for finding in findings
            if keep_finding(finding, suppressions.get(finding.path, {}),
                            profile)]


def _plural(count: int, noun: str) -> str:
    return f"{count} {noun}{'' if count == 1 else 's'}"


# -- reports ---------------------------------------------------------------------


def _report_rules() -> str:
    invariants = {rule.name: rule.invariant for rule in lint.all_rules()}
    for tool in TOOLS:
        print(f"{tool.name} (# {tool.tag}: disable=<check>)")
        for check in tool.checks:
            print(f"  {check}")
            if check in invariants:
                print(f"      {invariants[check]}")
    return f"{PROG}: {_plural(sum(len(t.checks) for t in TOOLS), 'check')}"


def _report_dead_code(project: Project, graph: CallGraph) -> str:
    candidates = analyze_dead_code(graph)
    for candidate in candidates:
        print(f"{candidate.path}:{candidate.line}: dead-code: "
              f"{candidate.fqn}: {candidate.reason}")
    return f"repro-flow: {_plural(len(candidates), 'dead-code candidate')}"


def _report_raises(project: Project, graph: CallGraph) -> str:
    undeclared = analyze_exceptions(graph).undeclared
    for fqn, names in undeclared.items():
        func = project.functions[fqn]
        module = project.modules.get(func.module)
        path = module.path if module else func.module
        print(f"{path}:{func.line}: {fqn}\n"
              f"    @declared_raises({', '.join(map(repr, names))})")
    return (f"repro-flow: {_plural(len(undeclared), 'entry point')} "
            f"with undeclared escapes")


def _print_members(project: Project, scope: HotSet) -> None:
    for fqn in sorted(scope.members):
        func = project.functions.get(fqn)
        print(f"{fqn}:{func.line if func else 0}: {scope.why(fqn)}")


def _report_hot_set(project: Project, graph: CallGraph) -> str:
    hotset = derive_hot_set(project, graph)
    _print_members(project, hotset)
    return (f"repro-hotpath: {len(hotset.members)} hot functions from "
            f"{len(hotset.roots)} roots")


def _report_scope(project: Project, graph: CallGraph) -> str:
    scope = derive_bounds_scope(project, graph)
    _print_members(project, scope)
    return (f"repro-bounds: {len(scope.members)} functions in scope from "
            f"{len(scope.roots)} roots")


def _report_protocols(project: Project, graph: CallGraph) -> str:
    protocols = collect_protocols(project)
    inventory = ProtoInventory(project, protocols)
    for name in sorted(protocols):
        spec = protocols[name]
        print(f"{spec.module}:{spec.line}: protocol {name} ({spec.kind}) "
              f"states={len(spec.states)} "
              f"transitions={len(spec.transitions)}"
              + (f" order={' -> '.join(spec.order)}" if spec.order else ""))
        for binding in inventory.bindings:
            if binding.spec is not spec:
                continue
            owner = binding.owner.rsplit(".", 1)[-1]
            print(f"  binding {owner}.{binding.attr} "
                  f"(module {binding.owner_module})")
            for site in inventory.sites:
                if site.binding is not binding:
                    continue
                dst = site.dst if site.dst is not None else \
                    (f"<param {site.param}>" if site.param else "<dynamic>")
                print(f"    {site.kind:<7} {site.path}:{site.line} "
                      f"{site.receiver} = {dst} in {site.func}")
    return (f"repro-proto: {len(protocols)} protocols, "
            f"{len(inventory.bindings)} bindings, "
            f"{len(inventory.sites)} transition sites")


REPORTS: dict[str, Callable[[Project, CallGraph], str]] = {
    "dead-code": _report_dead_code,
    "raises": _report_raises,
    "hot-set": _report_hot_set,
    "scope": _report_scope,
    "protocols": _report_protocols,
}


# -- command line ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis of the repro package: lint, flow, "
                    "hotpath, bounds and proto over one parsed program.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze as one program "
             "(default: src/repro)",
    )
    parser.add_argument(
        "--check", metavar="NAME[,NAME...]", default=None,
        help="run only these checks or tools (default: every tool; "
             "--report rules lists the names)",
    )
    parser.add_argument(
        "--profile", choices=("auto",) + PROFILES, default="auto",
        help="auto (default) is strict under src/repro and relaxed "
             "elsewhere; relaxed exempts the checks harness and demo "
             "code need not meet",
    )
    parser.add_argument(
        "--format", choices=FORMATS, default="text", dest="output_format",
        help="text (default) prints path:line:col lines; github emits "
             "::error workflow commands that become inline PR annotations",
    )
    parser.add_argument(
        "--report", choices=("rules",) + tuple(REPORTS), default=None,
        help="print an informational report instead of checking "
             "(always exits 0)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress the summary lines",
    )
    return parser


def _render(finding: Finding, tool: Tool, output_format: str) -> str:
    if output_format == "github":
        return github_annotation(
            finding.message, title=f"{tool.tag}: {finding.check}",
            path=finding.path, line=finding.line, col=finding.col,
        )
    return finding.format()


def _finish_report(summary: str, quiet: bool) -> int:
    if not quiet:
        print(f"{summary} (informational; not a gate)")
    return EXIT_CLEAN


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.report == "rules":
        return _finish_report(_report_rules(), args.quiet)
    try:
        chosen = select(args.check)
        files = discover(args.paths)
    except UsageError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    project = Project.build(files)
    if project.parse_errors:
        for path, line, message in project.parse_errors:
            print(f"{PROG}: {path}:{line}: {message}", file=sys.stderr)
        return EXIT_USAGE
    graph = build_callgraph(project)

    if args.report is not None:
        return _finish_report(REPORTS[args.report](project, graph),
                              args.quiet)

    total = 0
    for tool, selected in chosen.items():
        findings, detail = tool.run(project, graph, selected)
        findings = kept_findings(findings, project, tool.tag, args.profile)
        for finding in findings:
            print(_render(finding, tool, args.output_format))
        if not args.quiet:
            print(f"{tool.tag}: {_plural(len(findings), 'finding')} in "
                  f"{len(files)} files" + (f" ({detail})" if detail else ""))
        total += len(findings)
    return EXIT_FINDINGS if total else EXIT_CLEAN
