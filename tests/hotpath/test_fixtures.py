"""Every broken fixture must fail with exactly its intended check, and
the tree itself must analyze clean -- the tier-1 gate that keeps the
hot-path cost invariants true going forward, mirroring the CI
analyzer step (and the shape of ``tests/flow/test_fixtures.py``)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.driver import kept_findings, main
from repro.hotpath import analyze

FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: fixture directory -> the single check its defect must trip.
EXPECTED = {
    "quadratic_membership": "quadratic-membership",
    "list_shift": "list-shift",
    "sort_in_loop": "sort-in-loop",
    "str_concat_in_loop": "str-concat-in-loop",
    "copy_in_loop": "copy-in-loop",
    "invariant_in_loop": "invariant-in-loop",
    "n_plus_one_rpc": "n-plus-one-rpc",
    "cost_undeclared": "cost-undeclared",
    "cost_exceeds_caller": "cost-exceeds-caller",
    "cost_loop_amplified": "cost-loop-amplified",
}


def test_every_fixture_is_covered():
    assert sorted(EXPECTED) == sorted(
        p.name for p in FIXTURES.iterdir() if p.is_dir()
    )


def test_every_check_has_a_fixture():
    from repro.hotpath import ALL_CHECKS

    assert sorted(EXPECTED.values()) == sorted(ALL_CHECKS)


@pytest.mark.parametrize("fixture,check", sorted(EXPECTED.items()))
def test_fixture_fails_with_its_intended_check(fixture, check, capsys):
    code = main([str(FIXTURES / fixture), "--check", "hotpath",
                 "--profile", "strict"])
    out = capsys.readouterr().out
    assert code == 1, out
    finding_lines = [
        line for line in out.splitlines()
        if line and not line.startswith("repro-hotpath:")
    ]
    assert finding_lines, out
    assert all(f" {check}: " in line for line in finding_lines), out


def test_repro_package_is_strictly_clean(repro_program):
    project, graph = repro_program
    result = analyze(project, graph)
    remaining = kept_findings(result.findings, project, "repro-hotpath",
                              "strict")
    assert remaining == [], "\n".join(f.format() for f in remaining)
    # The hot set itself must stay non-trivial: the KV ops, client
    # senders, and operator bodies are decorated roots.
    assert len(result.hotset.roots) > 40
    assert len(result.hotset.members) > len(result.hotset.roots)


def test_tree_clean_through_the_cli(tree_driver_run):
    code, out = tree_driver_run
    assert code == 0, out
    assert "\nrepro-hotpath: 0 findings" in out, out
