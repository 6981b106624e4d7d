"""Exit codes, findings, suppressions, discovery and profiles.

Everything here is tool-agnostic: the static analyzers (lint, flow,
hotpath, bounds, proto) report :class:`Finding` records through the one
driver in :mod:`repro.analysis.driver`, and repro-sanitize shares the
exit contract.  The driver owns check selection and rendering and
applies the suppression + relaxed-profile filter (:func:`keep_finding`);
the tools keep only their rules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

#: The shared CLI exit contract: CI gates on these next to ruff.
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

PROFILES = ("strict", "relaxed")

#: Checks the relaxed profile (examples/, benchmarks/, fixture trees run
#: without ``--profile strict``) does not enforce, keyed by check name:
#: harness code legitimately measures wall-clock time and keeps
#: module-level result tables (lint); demo scripts drive the cluster
#: without a raises contract (flow), mark a hot root without a ``@cost``
#: bound (hotpath), memo into a dict without an eviction policy (bounds)
#: and flip state without wiring metrics (proto).
RELAXED_EXEMPT = frozenset({
    "no-wall-clock",
    "declared-shared-state",
    "exception-escape",
    "cost-undeclared",
    "cache-without-eviction",
    "silent-transition",
})


@dataclass(frozen=True)
class Finding:
    """One finding of any analyzer: where, which check, what to do."""

    check: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.check}: " \
               f"{self.message}"


#: Compiled suppression patterns, one per tool tag (``repro-lint``,
#: ``repro-flow``, ...).  Same-line ``disable=`` covers that line;
#: ``disable-next=`` on the line before covers multi-line statements.
_SUPPRESS_RES: dict[str, re.Pattern[str]] = {}


def _suppress_re(tool: str) -> re.Pattern[str]:
    pattern = _SUPPRESS_RES.get(tool)
    if pattern is None:
        pattern = re.compile(
            r"#\s*" + re.escape(tool)
            + r":\s*(disable|disable-next)\s*=\s*([a-z0-9_,\- ]+)"
        )
        _SUPPRESS_RES[tool] = pattern
    return pattern


def parse_suppressions(source_lines: list[str],
                       tool: str = "repro-lint") -> dict[int, set[str]]:
    """Map line number -> names disabled on that line ("all" disables
    everything the tool checks)."""
    suppressed_lines: dict[int, set[str]] = {}
    matcher = _suppress_re(tool)
    for index, line in enumerate(source_lines, start=1):
        match = matcher.search(line)
        if match is None:
            continue
        kind, names = match.groups()
        target = index + 1 if kind == "disable-next" else index
        names_set = {name.strip() for name in names.split(",") if name.strip()}
        suppressed_lines.setdefault(target, set()).update(names_set)
    return suppressed_lines


def suppressed(name: str, line: int,
               suppressions: dict[int, set[str]]) -> bool:
    disabled = suppressions.get(line, set())
    return name in disabled or "all" in disabled


def module_name_for(path: Path) -> str:
    """Dotted module path for a file: everything from the ``repro``
    package component down; bare stem for scripts outside the package."""
    parts = list(path.parts)
    name = path.stem
    if "repro" in parts[:-1]:
        package_parts = parts[parts.index("repro"):-1]
        if name == "__init__":
            return ".".join(package_parts)
        return ".".join(package_parts + [name])
    return name


class UsageError(ValueError):
    """A bad command line (unknown or empty check selection, a missing
    path, no Python files): exit 2."""


def discover(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.
    A path that does not exist, or a path set with no Python file in
    it, is a usage error rather than a vacuously clean tree."""
    paths = [Path(raw) for raw in paths]
    files: set[Path] = set()
    for path in paths:
        if not path.exists():
            raise UsageError(f"no such file or directory: {path}")
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
    if not files:
        raise UsageError(
            f"no Python files under {', '.join(map(str, paths))}")
    return sorted(files)


def profile_for(path: Path, requested: str = "auto") -> str:
    """``auto`` resolves per file: strict inside the ``repro`` package
    tree (``src/repro``), relaxed for harness code outside it."""
    if requested != "auto":
        return requested
    parts = path.parts
    for index, part in enumerate(parts[:-1]):
        if part == "src" and index + 1 < len(parts) and parts[index + 1] == "repro":
            return "strict"
    return "relaxed"


def keep_finding(finding: Finding, suppressions: dict[int, set[str]],
                 requested: str) -> bool:
    """The shared finding filter: the file's per-line suppressions for
    the reporting tool first, then the relaxed-profile exemptions for
    files resolving to relaxed."""
    if suppressed(finding.check, finding.line, suppressions):
        return False
    return not (finding.check in RELAXED_EXEMPT
                and profile_for(Path(finding.path), requested) == "relaxed")
