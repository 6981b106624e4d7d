"""The analyzer driver itself: one parse per run, one shared program,
check selection across the five tools, and the usage errors that keep a
bad command line from passing as a clean tree."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import hotpath
from repro.analysis import discover
from repro.analysis.driver import TOOLS, main, select
from repro.flow.callgraph import build_callgraph
from repro.flow.project import Project

TESTS = Path(__file__).resolve().parents[1]

#: One known-bad fixture per whole-program tool.
BAD_FIXTURES = {
    "flow": TESTS / "flow" / "fixtures" / "exc_swallow",
    "hotpath": TESTS / "hotpath" / "fixtures" / "list_shift",
    "bounds": TESTS / "bounds" / "fixtures" / "unbounded_buffer",
    "proto": TESTS / "proto" / "fixtures" / "illegal_transition",
}

ALL_FIXTURES = sorted(
    path for tool in ("flow", "hotpath", "bounds", "proto")
    for path in (TESTS / tool / "fixtures").iterdir() if path.is_dir()
)


class TestUsageErrors:
    @pytest.mark.parametrize("selection", ["", ",", " , "])
    @pytest.mark.parametrize("tool", sorted(BAD_FIXTURES))
    def test_empty_check_selection_exits_two(self, tool, selection, capsys):
        code = main([str(BAD_FIXTURES[tool]), "--profile", "strict",
                     "--check", selection])
        captured = capsys.readouterr()
        assert code == 2, captured.out
        assert "empty check selection" in captured.err
        assert "0 findings" not in captured.out

    def test_missing_directory_next_to_a_valid_one_exits_two(
            self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir"
        code = main([str(BAD_FIXTURES["flow"]), str(missing),
                     "--profile", "strict"])
        captured = capsys.readouterr()
        assert code == 2, captured.out
        assert f"no such file or directory: {missing}" in captured.err

    def test_missing_python_file_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "gone.py"
        code = main([str(missing), "--check", "flow"])
        assert code == 2
        assert "no such file or directory" in capsys.readouterr().err

    def test_a_module_defined_twice_exits_two(self, capsys):
        """Two trees that both define ``repro.common.errors`` cannot be
        one program; lint would otherwise skip one of the files."""
        flow_fixtures = TESTS / "flow" / "fixtures"
        code = main([str(flow_fixtures / "exc_swallow"),
                     str(flow_fixtures / "exc_undeclared")])
        assert code == 2
        assert "module repro.common.errors is already defined" \
            in capsys.readouterr().err


class TestSelection:
    def test_check_names_are_unique_across_tools(self):
        names = [tool.name for tool in TOOLS]
        names += [check for tool in TOOLS for check in tool.checks]
        assert len(names) == len(set(names))

    def test_tool_name_selects_all_of_its_checks(self):
        chosen = select("hotpath,no-wall-clock")
        assert {tool.name: checks for tool, checks in chosen.items()} == {
            "lint": {"no-wall-clock"},
            "hotpath": set(hotpath.ALL_CHECKS),
        }


class TestSuppressionTags:
    """Each check is suppressed only by its own tool's tag, even when
    every tool runs over the same file."""

    SOURCE = (BAD_FIXTURES["bounds"] / "buffers.py").read_text()

    def _run(self, tmp_path, capsys, tag: str) -> tuple[int, str]:
        lines = self.SOURCE.splitlines()
        target = next(index for index, line in enumerate(lines)
                      if ".append(" in line)
        indent = lines[target][:-len(lines[target].lstrip())]
        lines.insert(target,
                     f"{indent}# {tag}: disable-next=unbounded-buffer")
        (tmp_path / "buffers.py").write_text("\n".join(lines) + "\n")
        code = main([str(tmp_path), "--profile", "strict"])
        return code, capsys.readouterr().out

    def test_another_tools_tag_does_not_silence(self, tmp_path, capsys):
        code, out = self._run(tmp_path, capsys, "repro-lint")
        assert code == 1
        assert " unbounded-buffer: " in out

    def test_the_owning_tools_tag_silences(self, tmp_path, capsys):
        code, out = self._run(tmp_path, capsys, "repro-bounds")
        assert " unbounded-buffer: " not in out, out


class TestSharedProgram:
    def test_one_project_build_per_run(self, monkeypatch, capsys):
        builds: list[int] = []
        graphs: list[int] = []
        real_build = Project.build.__func__

        def counting_build(cls, files):
            builds.append(1)
            return real_build(cls, files)

        def counting_callgraph(project):
            graphs.append(1)
            return build_callgraph(project)

        monkeypatch.setattr(Project, "build", classmethod(counting_build))
        monkeypatch.setattr("repro.analysis.driver.build_callgraph",
                            counting_callgraph)
        assert main([str(BAD_FIXTURES["hotpath"]), "--profile",
                     "strict"]) == 1
        capsys.readouterr()
        assert len(builds) == 1
        assert len(graphs) == 1

    @pytest.mark.parametrize(
        "fixture", ALL_FIXTURES,
        ids=[f"{path.parent.parent.name}-{path.name}"
             for path in ALL_FIXTURES])
    def test_tool_order_does_not_change_findings(self, fixture):
        """Every tool reads the one shared program; none may mutate it,
        so running them in reverse order finds exactly the same."""
        project = Project.build(discover([fixture]))
        assert not project.parse_errors
        graph = build_callgraph(project)
        chosen = select(None)

        def run(order):
            return {tool.name: tool.run(project, graph, chosen[tool])
                    for tool in order}

        assert run(TOOLS) == run(tuple(reversed(TOOLS)))

    def test_tree_run_reports_every_tool_clean(self, tree_driver_run):
        code, out = tree_driver_run
        assert code == 0, out
        for tool in TOOLS:
            assert f"{tool.tag}: 0 findings" in out, out


class TestReports:
    def test_rules_report_lists_every_tools_checks(self, capsys):
        assert main(["--report", "rules"]) == 0
        out = capsys.readouterr().out
        for tool in TOOLS:
            assert f"{tool.name} (# {tool.tag}: disable=<check>)" in out
            assert all(f"  {check}\n" in out for check in tool.checks)
