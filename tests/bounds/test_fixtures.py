"""Every broken fixture must fail with exactly its intended check, and
the tree itself must analyze clean -- the tier-1 gate that keeps the
resource-bounds invariants true going forward, mirroring the CI
analyzer step (and the shape of ``tests/hotpath/test_fixtures.py``)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.driver import kept_findings, main
from repro.bounds import ALL_CHECKS, analyze

FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: fixture directory -> the single check its defect must trip.
EXPECTED = {
    "unbounded_buffer": "unbounded-buffer",
    "cache_without_eviction": "cache-without-eviction",
    "charge_balance": "charge-balance",
    "retry_without_backoff": "retry-without-backoff",
    "leak_on_error": "leak-on-error",
}


def test_every_fixture_is_covered():
    assert sorted(EXPECTED) == sorted(
        p.name for p in FIXTURES.iterdir() if p.is_dir()
    )


def test_every_check_has_a_fixture():
    assert sorted(EXPECTED.values()) == sorted(ALL_CHECKS)


@pytest.mark.parametrize("fixture,check", sorted(EXPECTED.items()))
def test_fixture_fails_with_its_intended_check(fixture, check, capsys):
    code = main([str(FIXTURES / fixture), "--check", "bounds",
                 "--profile", "strict"])
    out = capsys.readouterr().out
    assert code == 1, out
    finding_lines = [
        line for line in out.splitlines()
        if line and not line.startswith("repro-bounds:")
    ]
    assert finding_lines, out
    assert all(f" {check}: " in line for line in finding_lines), out


def test_repro_package_is_strictly_clean(repro_program):
    project, graph = repro_program
    result = analyze(project, graph)
    remaining = kept_findings(result.findings, project, "repro-bounds",
                              "strict")
    assert remaining == [], "\n".join(f.format() for f in remaining)
    # The derived scope must stay non-trivial: pumps, RPC handlers, and
    # @hot_path roots pull in the whole data path.
    assert len(result.scope.roots) > 40
    assert len(result.scope.members) > len(result.scope.roots)
    # And the inventory actually tracks the system's containers.
    assert len(result.inventory.containers) > 100


def test_tree_clean_via_cli(tree_driver_run):
    code, out = tree_driver_run
    assert code == 0, out
    assert "\nrepro-bounds: 0 findings" in out, out
