"""Every broken fixture must fail with exactly its intended check, and
the tree itself must analyze clean -- the tier-1 gate that keeps the
flow invariants true going forward, mirroring the CI analyzer step
(and the shape of ``tests/lint/test_tree_clean.py``)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import flow
from repro.analysis.driver import kept_findings, main

FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: fixture directory -> the single check its defect must trip.
EXPECTED = {
    "exc_undeclared": "exception-escape",
    "exc_swallow": "swallowed-exception",
    "exc_pump": "exception-escape",
    "opt_dropped": "option-dropped",
    "opt_renamed": "option-renamed",
    "opt_domain": "option-domain",
    "layer_up": "layer-violation",
    "layer_restricted": "layer-restricted",
    "layer_cycle": "import-cycle",
}


def test_every_fixture_is_covered():
    assert sorted(EXPECTED) == sorted(
        p.name for p in FIXTURES.iterdir() if p.is_dir()
    )


@pytest.mark.parametrize("fixture,check", sorted(EXPECTED.items()))
def test_fixture_fails_with_its_intended_check(fixture, check, capsys):
    code = main([str(FIXTURES / fixture), "--check", "flow",
                 "--profile", "strict"])
    out = capsys.readouterr().out
    assert code == 1, out
    finding_lines = [
        line for line in out.splitlines()
        if line and not line.startswith("repro-flow:")
    ]
    assert finding_lines, out
    assert all(f" {check}: " in line for line in finding_lines), out


def test_repro_package_is_strictly_clean(repro_program):
    project, graph = repro_program
    remaining = kept_findings(flow.analyze(project, graph), project,
                              "repro-flow", "strict")
    assert remaining == [], "\n".join(f.format() for f in remaining)


def test_tree_clean_through_the_cli(tree_driver_run):
    code, out = tree_driver_run
    assert code == 0, out
    assert "\nrepro-flow: 0 findings" in out, out
