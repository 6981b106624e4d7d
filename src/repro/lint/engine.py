"""The rule harness: contexts, registry, and the per-module pass.

Each rule lives in its own module under :mod:`repro.lint.rules` and
subclasses :class:`Rule`; :func:`analyze` hands every rule one
:class:`LintContext` per module of the already-parsed
:class:`~repro.flow.project.Project`, so the analyzer driver parses each
file once for all five tools.  The point of the shared context is that
a future rule is ~one small file: subclass, ``@register_rule``, yield
:class:`~repro.analysis.Finding` objects.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from ..analysis.harness import (
    Finding,
    UsageError,
    keep_finding,
    module_name_for,
    parse_suppressions,
)
from ..flow.project import ModuleInfo, Project


@dataclass
class LintContext:
    """Everything a rule needs to check one file."""

    path: str
    module: str
    tree: ast.Module
    #: (first, last) line ranges of ``if TYPE_CHECKING:`` bodies -- imports
    #: inside are erased at runtime, so reach-through rules ignore them.
    type_checking_ranges: list[tuple[int, int]]

    @classmethod
    def of(cls, info: ModuleInfo) -> "LintContext":
        return cls(path=info.path, module=info.name, tree=info.tree,
                   type_checking_ranges=info.type_checking_ranges)

    def in_type_checking_block(self, node: ast.AST) -> bool:
        line = getattr(node, "lineno", 0)
        return any(first <= line <= last
                   for first, last in self.type_checking_ranges)

    def module_in(self, prefixes: Iterable[str]) -> bool:
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )


class Rule:
    """Base class for one lint rule.

    Subclasses set :attr:`name` (the suppression/CLI identifier),
    :attr:`invariant` (the one-line statement of what the rule guards,
    surfaced by ``--report rules`` and DESIGN.md), and implement
    :meth:`check`.
    """

    name: str = ""
    invariant: str = ""

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def violation(self, ctx: LintContext, node: ast.AST,
                  message: str) -> Finding:
        return Finding(
            check=self.name,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


_REGISTRY: dict[str, Rule] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    rule = cls()
    if not rule.name:
        raise _ConfigError(f"rule {cls.__name__} has no name")
    if rule.name in _REGISTRY:
        raise _ConfigError(f"duplicate rule name {rule.name!r}")
    _REGISTRY[rule.name] = rule
    return cls


class _ConfigError(Exception):
    """Bad linter configuration (a nameless or duplicate rule)."""


def all_rules() -> list[Rule]:
    """Every registered rule, importing the rule modules on first use."""
    from . import rules  # noqa: F401  (import populates the registry)
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def analyze(project: Project, graph=None,
            selected: frozenset[str] | None = None) -> list[Finding]:
    """Run the selected rules (all by default) over every module of the
    project.  Lint is per-file, so ``graph`` is accepted for the
    driver's uniform signature and not used."""
    rules = [rule for rule in all_rules()
             if selected is None or rule.name in selected]
    findings: list[Finding] = []
    for info in project.modules.values():
        ctx = LintContext.of(info)
        for rule in rules:
            findings.extend(rule.check(ctx))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.check))
    return findings


def lint_source(source: str, path: str = "<string>",
                module: str | None = None, profile: str = "strict",
                select: Iterable[str] | None = None) -> list[Finding]:
    """Lint one source string with its ``# repro-lint:`` suppressions
    and the profile's exemptions applied.  ``module`` defaults from
    ``path``; pass it explicitly in fixture tests to exercise
    package-scoped rules."""
    selected = None
    if select is not None:
        selected = frozenset(select)
        unknown = selected - {rule.name for rule in all_rules()}
        if unknown:
            raise UsageError(f"unknown rule(s): {', '.join(sorted(unknown))}")
    project = Project()
    project.add_source(source, path, module or module_name_for(Path(path)))
    if project.parse_errors:
        _, line, message = project.parse_errors[0]
        return [Finding(check="parse-error", path=path, line=line, col=1,
                        message=f"file does not parse: {message}")]
    suppressions = parse_suppressions(source.splitlines(), "repro-lint")
    return [finding for finding in analyze(project, None, selected)
            if keep_finding(finding, suppressions, profile)]
