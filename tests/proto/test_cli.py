"""Proto through the analyzer driver (``python -m repro.analysis
--check proto``): exit codes, check selection, profiles, suppressions
(including cross-tool isolation), declaration forms, output formats,
the protocols report, and call-graph indirection."""

from __future__ import annotations

import pytest

from repro.analysis import driver


def main(argv):
    """``python -m repro.analysis --check proto ...``; a test's own
    ``--check`` comes later on the command line and wins."""
    return driver.main(["--check", "proto", *argv])


#: Stubs every fixture source starts from: the zero-overhead declaration
#: marker (read off the AST by name) and a metrics-shaped emitter.
STUBS = '''\
def protocol(*transitions, field=None, order=()):
    def mark(cls):
        return cls
    return mark


class Enum:
    pass


class Metrics:
    def inc(self, name):
        pass


'''

#: A guard that still admits an undeclared source: one illegal-transition.
BAD_MACHINE = STUBS + '''\
@protocol("IDLE->RUNNING", "RUNNING->DONE")
class Phase(Enum):
    IDLE = "idle"
    RUNNING = "running"
    DONE = "done"


class Machine:
    def __init__(self):
        self.phase = Phase.IDLE
        self.metrics = Metrics()

    def finish(self):
        if self.phase is not Phase.DONE:
            self.phase = Phase.DONE
            self.metrics.inc("machine.finished")
'''

#: The same machine guarded on the declared source: clean.
CLEAN_MACHINE = BAD_MACHINE.replace(
    "if self.phase is not Phase.DONE:",
    "if self.phase is Phase.RUNNING:",
)

#: A guarded, legal, but unobservable transition: silent-transition only.
SILENT = STUBS + '''\
@protocol("OFF->ON", "ON->OFF")
class Power(Enum):
    OFF = "off"
    ON = "on"


class Switch:
    def __init__(self):
        self.power = Power.OFF

    def turn_on(self):
        if self.power is Power.OFF:
            self.power = Power.ON
'''


def _write(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(source)
    return str(tmp_path)


class TestExitContract:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        code = main([_write(tmp_path, CLEAN_MACHINE), "--profile", "strict"])
        assert code == 0, capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        code = main([_write(tmp_path, BAD_MACHINE), "--profile", "strict"])
        out = capsys.readouterr().out
        assert code == 1
        assert "illegal-transition" in out
        assert "{IDLE}->DONE" in out

    def test_unknown_check_exits_two(self, tmp_path, capsys):
        code = main([_write(tmp_path, CLEAN_MACHINE), "--check", "nope"])
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_no_files_exits_two(self, tmp_path, capsys):
        code = main([str(tmp_path)])
        assert code == 2
        assert "no Python files" in capsys.readouterr().err

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        code = main([_write(tmp_path, "def broken(:\n")])
        assert code == 2
        assert "mod.py" in capsys.readouterr().err


class TestCheckSelection:
    def test_deselected_check_is_silent(self, tmp_path, capsys):
        code = main([_write(tmp_path, BAD_MACHINE),
                     "--check", "handoff-order", "--profile", "strict"])
        assert code == 0, capsys.readouterr().out

    def test_selected_check_still_fires(self, tmp_path, capsys):
        code = main([_write(tmp_path, BAD_MACHINE),
                     "--check", "illegal-transition,handoff-order",
                     "--profile", "strict"])
        assert code == 1, capsys.readouterr().out


class TestProfiles:
    def test_relaxed_exempts_silent_transition(self, tmp_path, capsys):
        root = _write(tmp_path, SILENT)
        assert main([root, "--profile", "relaxed"]) == 0
        assert main([root, "--profile", "strict"]) == 1
        capsys.readouterr()

    def test_relaxed_still_enforces_illegal_transitions(self, tmp_path, capsys):
        code = main([_write(tmp_path, BAD_MACHINE), "--profile", "relaxed"])
        assert code == 1, capsys.readouterr().out


class TestSuppressions:
    def test_disable_next_silences(self, tmp_path, capsys):
        suppressed = BAD_MACHINE.replace(
            "            self.phase = Phase.DONE",
            "            # justified: recovery path revalidates the log\n"
            "            # repro-proto: disable-next=illegal-transition\n"
            "            self.phase = Phase.DONE",
        )
        code = main([_write(tmp_path, suppressed), "--profile", "strict"])
        assert code == 0, capsys.readouterr().out

    def test_other_tools_comments_do_not_silence(self, tmp_path, capsys):
        not_ours = BAD_MACHINE.replace(
            "            self.phase = Phase.DONE",
            "            # repro-lint: disable-next=illegal-transition\n"
            "            # repro-bounds: disable-next=illegal-transition\n"
            "            self.phase = Phase.DONE",
        )
        code = main([_write(tmp_path, not_ours), "--profile", "strict"])
        assert code == 1, capsys.readouterr().out


class TestDeclarations:
    #: The ``__protocol__`` tuple form binds a *field* protocol whose
    #: states are plain module-level constants.
    DOOR = '''\
OPENED = "opened"
SHUT = "shut"
LOCKED = "locked"


class Metrics:
    def inc(self, name):
        pass


class Door:
    __protocol__ = ("state", "OPENED->SHUT", "SHUT->OPENED", "SHUT->LOCKED")

    def __init__(self):
        self.state = OPENED
        self.metrics = Metrics()

    def lock(self):
        self.state = LOCKED
        self.metrics.inc("door.locked")
'''

    def test_decorator_form_is_read(self, tmp_path, capsys):
        code = main([_write(tmp_path, BAD_MACHINE), "--profile", "strict"])
        out = capsys.readouterr().out
        assert code == 1
        assert "Phase" in out

    def test_dunder_tuple_form_is_read(self, tmp_path, capsys):
        code = main([_write(tmp_path, self.DOOR), "--profile", "strict"])
        out = capsys.readouterr().out
        assert code == 1
        assert "unguarded-transition" in out
        assert "{OPENED}" in out


class TestOutputFormats:
    def test_github_annotations(self, tmp_path, capsys):
        code = main([_write(tmp_path, BAD_MACHINE), "--profile", "strict",
                     "--format", "github"])
        out = capsys.readouterr().out
        assert code == 1
        assert "::error " in out
        assert "title=repro-proto%3A illegal-transition" in out

    def test_quiet_drops_summary(self, tmp_path, capsys):
        main([_write(tmp_path, CLEAN_MACHINE), "--profile", "strict", "-q"])
        assert capsys.readouterr().out == ""


class TestProtocolReport:
    def test_report_lists_protocols_bindings_and_sites(self, tmp_path, capsys):
        code = main([_write(tmp_path, BAD_MACHINE), "--report", "protocols"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Phase" in out
        assert "Machine.phase" in out
        assert "write" in out
        assert "init" in out


class TestHelperIndirection:
    """State written through a helper is judged at each *call site* with
    the caller's narrowed state -- the flow call graph supplies the
    edges."""

    HELPER = STUBS + '''\
@protocol("A->B", "B->C")
class St(Enum):
    A = "a"
    B = "b"
    C = "c"


class M:
    def __init__(self):
        self.st = St.A
        self.metrics = Metrics()

    def _finish(self):
        self.st = St.C
        self.metrics.inc("m.finished")

    def shutdown(self):
        if self.st is St.A:
            self._finish()
            self.metrics.inc("m.shutdown")
'''

    def test_illegal_helper_write_lands_on_the_call_site(self, tmp_path, capsys):
        code = main([_write(tmp_path, self.HELPER), "--profile", "strict"])
        out = capsys.readouterr().out
        assert code == 1
        call_line = self.HELPER.splitlines().index(
            "            self._finish()") + 1
        finding_lines = [
            line for line in out.splitlines()
            if " illegal-transition: " in line
        ]
        assert len(finding_lines) == 1, out
        assert f"mod.py:{call_line}:" in finding_lines[0]
        assert "_finish()" in finding_lines[0]
        assert "{A}->C" in finding_lines[0]

    def test_guarded_callers_make_the_helper_clean(self, tmp_path, capsys):
        guarded = self.HELPER.replace(
            "if self.st is St.A:",
            "if self.st is St.B:",
        )
        code = main([_write(tmp_path, guarded), "--profile", "strict"])
        assert code == 0, capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--profile", "--format", "--report"])
def test_bad_flag_values_exit_two(tmp_path, flag, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main([str(tmp_path), flag, "bogus-value"])
    capsys.readouterr()
    assert exc_info.value.code == 2
