"""Shared test fixtures: the runtime wall-clock guard and the one
parsed ``src/repro`` program the analyzer tree-clean tests share.

repro-lint's ``no-wall-clock`` rule catches wall-clock reads statically;
the autouse fixture below is its runtime counterpart.  It wraps
``time.time`` and ``time.sleep`` so that any call whose *direct caller*
is a frame inside ``src/repro`` fails the test immediately -- simulation
code must go through the injected :class:`~repro.common.clock.Clock`.
Harness code (tests, benchmarks, pytest internals) passes through to the
real functions untouched.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time
from pathlib import Path

import pytest

_REPRO_MARKER = os.path.join("src", "repro") + os.sep
REPRO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _guarded(real, name: str):
    def wrapper(*args, **kwargs):
        caller = sys._getframe(1).f_code.co_filename
        if _REPRO_MARKER in caller:
            raise AssertionError(
                f"time.{name}() called from simulation code "
                f"({caller}); use the injected Clock "
                f"(repro.common.clock) instead"
            )
        return real(*args, **kwargs)

    return wrapper


@pytest.fixture(autouse=True)
def forbid_wall_clock_in_repro(monkeypatch):
    monkeypatch.setattr(time, "time", _guarded(time.time, "time"))
    monkeypatch.setattr(time, "sleep", _guarded(time.sleep, "sleep"))


@pytest.fixture(scope="session")
def repro_program():
    """``(project, graph)`` for ``src/repro``, parsed and linked once
    per session; the lint, flow, hotpath, bounds and proto tree-clean
    tests all analyze this one program."""
    from repro.analysis import discover
    from repro.flow.callgraph import build_callgraph
    from repro.flow.project import Project

    project = Project.build(discover([REPRO_SRC]))
    assert not project.parse_errors
    return project, build_callgraph(project)


@pytest.fixture(scope="session")
def tree_driver_run():
    """``(exit code, stdout)`` of one ``python -m repro.analysis
    src/repro --profile strict`` run, shared by every tool's "tree clean
    through the driver" test."""
    from repro.analysis.driver import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(REPRO_SRC), "--profile", "strict"])
    return code, out.getvalue()
