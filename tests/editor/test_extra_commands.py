"""Tests for the estimate / profile / goto editor commands and the
usage errors of commands that take arguments."""

import pytest

from repro.editor import CommandInterpreter, PedSession
from repro.workloads import SUITE


@pytest.fixture
def ped():
    session = PedSession(SUITE["pneoss"].source)
    return CommandInterpreter(session)


class TestEstimate:
    def test_requires_selection(self, ped):
        assert ped.execute("estimate").startswith("error:")

    def test_reports_cycles_and_speedup(self, ped):
        ped.execute("unit eos")
        ped.execute("select 0")
        out = ped.execute("estimate")
        assert "sequential" in out and "speedup" in out
        assert "trip ≈ 48" in out


class TestProfile:
    def test_hottest_loops_listed(self, ped):
        out = ped.execute("profile")
        assert "iterations" in out
        assert "eos" in out or "init" in out

    def test_profile_counts_plausible(self, ped):
        out = ped.execute("profile")
        # All three sweeps run 47-48 iterations.
        assert "48" in out or "47" in out


class TestGoto:
    def test_shows_both_endpoints(self, ped):
        ped.execute("unit relax")
        ped.execute("select 0")
        deps = ped.execute("deps")
        dep_id = int(deps.split("#")[1].split()[0])
        out = ped.execute(f"goto {dep_id}")
        assert "source:" in out and "sink:" in out

    def test_usage_error(self, ped):
        assert ped.execute("goto notanumber").startswith("error:")

    def test_unknown_id(self, ped):
        assert ped.execute("goto 99999").startswith("error:")


USAGE_ERRORS = {
    "advice": "error: usage: advice <transformation> [key=value ...]",
    "apply": "error: usage: apply <transformation> [key=value ...]",
    "apply unroll factor=x": "error: bad transformation argument 'factor=x'",
    "select": "error: usage: select <loop-index>",
    "select x": "error: usage: select <loop-index>",
    "mark x y": "error: usage: mark <dep-id> accepted|rejected|pending",
    "edit a b | x = 1": "error: usage: edit <first> <last> | <replacement>",
    "goto x": "error: usage: goto <dep-id>",
}


@pytest.mark.parametrize(
    "command,reply",
    list(USAGE_ERRORS.items()),
    ids=[c.split("|")[0].strip().replace(" ", "-") for c in USAGE_ERRORS],
)
def test_usage_errors_name_their_own_command(ped, command, reply):
    assert ped.execute(command) == reply
