"""Harness self-tests: suppressions, profiles, module naming, the
driver's exit-code contract for lint, and the registry."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import UsageError, module_name_for, profile_for
from repro.analysis.driver import main
from repro.lint import all_rules, lint_source


def run(source: str, **kwargs):
    return lint_source(textwrap.dedent(source), path="fixture.py", **kwargs)


# -- suppressions -----------------------------------------------------------


def test_same_line_suppression():
    violations = run("""
        import time

        def stamp():
            return time.time()  # repro-lint: disable=no-wall-clock
    """)
    assert violations == []


def test_disable_next_covers_following_line():
    violations = run("""
        import time

        def stamp():
            # repro-lint: disable-next=no-wall-clock
            return time.time()
    """)
    assert violations == []


def test_disable_all_suppresses_every_rule():
    violations = run("""
        import time

        def stamp():
            return time.time()  # repro-lint: disable=all
    """)
    assert violations == []


def test_suppressing_a_different_rule_does_not_hide():
    violations = run("""
        import time

        def stamp():
            return time.time()  # repro-lint: disable=error-taxonomy
    """)
    assert [v.check for v in violations] == ["no-wall-clock"]


def test_suppression_list_is_comma_separated():
    violations = run("""
        import time, random

        def stamp():
            return time.time(), random.random()  # repro-lint: disable=no-wall-clock, no-unseeded-random
    """)
    assert violations == []


# -- profiles ---------------------------------------------------------------


def test_relaxed_profile_allows_wall_clock():
    source = """
        import time

        def stamp():
            return time.time()
    """
    assert run(source, profile="strict") != []
    assert run(source, profile="relaxed") == []


def test_relaxed_profile_still_enforces_other_rules():
    violations = run("""
        import random

        def pick():
            return random.random()
    """, profile="relaxed")
    assert [v.check for v in violations] == ["no-unseeded-random"]


def test_profile_for_auto_resolution():
    assert profile_for(Path("src/repro/kv/engine.py"), "auto") == "strict"
    assert profile_for(Path("/abs/src/repro/kv/engine.py"), "auto") == "strict"
    assert profile_for(Path("benchmarks/test_figure15_ycsb_a.py"), "auto") == "relaxed"
    assert profile_for(Path("examples/quickstart.py"), "auto") == "relaxed"
    assert profile_for(Path("benchmarks/x.py"), "strict") == "strict"


# -- module naming ----------------------------------------------------------


def test_module_name_inside_package():
    assert module_name_for(Path("src/repro/kv/engine.py")) == "repro.kv.engine"
    assert module_name_for(Path("src/repro/kv/__init__.py")) == "repro.kv"


def test_module_name_outside_package_is_stem():
    assert module_name_for(Path("examples/quickstart.py")) == "quickstart"


# -- parse errors and selection ---------------------------------------------


def test_syntax_error_reports_parse_error_violation():
    violations = run("""
        def broken(:
    """)
    assert [v.check for v in violations] == ["parse-error"]


def test_select_unknown_rule_raises():
    with pytest.raises(UsageError):
        run("x = 1", select=["no-such-rule"])


def test_select_limits_to_named_rules():
    violations = run("""
        import time, random

        def stamp():
            return time.time(), random.random()
    """, select=["no-wall-clock"])
    assert {v.check for v in violations} == {"no-wall-clock"}


def test_registry_has_the_nine_rules():
    names = {rule.name for rule in all_rules()}
    assert names == {
        "no-wall-clock",
        "no-unseeded-random",
        "no-cross-service-reach-through",
        "error-taxonomy",
        "pump-contract",
        "metrics-naming",
        "missing-null-discipline",
        "no-pump-reentrancy",
        "declared-shared-state",
    }
    assert all(rule.invariant for rule in all_rules())


# -- driver exit codes ------------------------------------------------------


def test_cli_exits_zero_on_clean_file(tmp_path, capsys):
    clean = tmp_path / "src" / "repro" / "clean.py"
    clean.parent.mkdir(parents=True)
    clean.write_text("def nothing():\n    return 1\n")
    assert main([str(clean), "--check", "lint"]) == 0
    assert "repro-lint: 0 findings" in capsys.readouterr().out


def test_cli_exits_one_on_violation(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n\ndef stamp():\n    return time.time()\n")
    assert main([str(bad), "--check", "lint"]) == 1
    out = capsys.readouterr().out
    assert "no-wall-clock" in out


def test_cli_exits_two_on_empty_path(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main([str(empty), "--check", "lint"]) == 2


def test_cli_exits_two_on_unknown_rule(tmp_path, capsys):
    f = tmp_path / "x.py"
    f.write_text("x = 1\n")
    assert main([str(f), "--check", "bogus"]) == 2


def test_cli_list_rules(capsys):
    assert main(["--report", "rules"]) == 0
    out = capsys.readouterr().out
    assert "no-wall-clock" in out and "pump-contract" in out


def test_lint_paths_auto_profile(tmp_path, capsys):
    repro_file = tmp_path / "src" / "repro" / "mod.py"
    repro_file.parent.mkdir(parents=True)
    repro_file.write_text("import time\nt = time.time()\n")
    bench_file = tmp_path / "benchmarks" / "bench.py"
    bench_file.parent.mkdir(parents=True)
    bench_file.write_text("import time\nt = time.time()\n")
    assert main([str(tmp_path), "--check", "lint", "-q"]) == 1
    flagged = capsys.readouterr().out.splitlines()
    assert [Path(line.split(":")[0]).name for line in flagged] == ["mod.py"]
