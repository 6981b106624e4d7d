"""Every broken fixture must fail with exactly its intended check, and
the tree itself must analyze clean with *zero* suppressions -- the
tier-1 gate that keeps the declared lifecycles true going forward,
mirroring the CI analyzer step (and the shape of
``tests/bounds/test_fixtures.py``)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.driver import main
from repro.proto import ALL_CHECKS, analyze

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: fixture directory -> the single check its defect must trip.
EXPECTED = {
    "illegal_transition": "illegal-transition",
    "unguarded_transition": "unguarded-transition",
    "handoff_order": "handoff-order",
    "outside_owner": "transition-outside-owner",
    "silent_transition": "silent-transition",
}


def test_every_fixture_is_covered():
    assert sorted(EXPECTED) == sorted(
        p.name for p in FIXTURES.iterdir() if p.is_dir()
    )


def test_every_check_has_a_fixture():
    assert sorted(EXPECTED.values()) == sorted(ALL_CHECKS)


@pytest.mark.parametrize("fixture,check", sorted(EXPECTED.items()))
def test_fixture_fails_with_its_intended_check(fixture, check, capsys):
    code = main([str(FIXTURES / fixture), "--check", "proto",
                 "--profile", "strict"])
    out = capsys.readouterr().out
    assert code == 1, out
    finding_lines = [
        line for line in out.splitlines()
        if line and not line.startswith("repro-proto:")
    ]
    assert finding_lines, out
    assert all(f" {check}: " in line for line in finding_lines), out


def test_repro_package_is_strictly_clean(repro_program):
    result = analyze(*repro_program)
    # Zero suppressions: the raw findings themselves must be empty, not
    # merely silenced.
    assert result.findings == [], "\n".join(
        f.format() for f in result.findings
    )
    # The declared surface must stay non-trivial: the vBucket, breaker,
    # DCP and XDCR lifecycles at minimum.
    assert len(result.protocols) >= 4
    assert len(result.inventory.bindings) >= 4
    assert len(result.inventory.sites) >= 15
    assert {spec.name for spec in result.protocols.values()} >= {
        "VBucketState", "CircuitBreaker", "DcpStreamState", "XdcrStreamState",
    }


def test_no_proto_suppressions_in_tree():
    proto_pkg = REPO_ROOT / "src" / "repro" / "proto"
    offenders = [
        path for path in (REPO_ROOT / "src" / "repro").rglob("*.py")
        # The analyzer's own package documents the syntax; everywhere
        # else the string can only be a live suppression comment.
        if proto_pkg not in path.parents
        and "repro-proto: disable" in path.read_text()
    ]
    assert offenders == []


def test_tree_clean_via_cli(tree_driver_run):
    code, out = tree_driver_run
    assert code == 0, out
    assert "\nrepro-proto: 0 findings" in out, out
