"""The tree itself must lint clean -- this is the tier-1 gate that keeps
the invariants true going forward, mirroring the CI analyzer step."""

from __future__ import annotations

from pathlib import Path

from repro import lint
from repro.analysis.driver import kept_findings, main

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repro_package_is_strictly_clean(repro_program):
    project, graph = repro_program
    findings = kept_findings(lint.analyze(project, graph), project,
                             "repro-lint", "strict")
    assert findings == [], "\n".join(f.format() for f in findings)


def test_harness_code_is_clean_under_relaxed_profile(capsys):
    code = main([str(REPO_ROOT / "examples"), str(REPO_ROOT / "benchmarks"),
                 "--profile", "relaxed", "--check", "lint"])
    out = capsys.readouterr().out
    assert code == 0, out
