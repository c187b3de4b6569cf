"""Tests for the command-line interface (python -m repro)."""

import io
import sys

import pytest

from repro.__main__ import main
from repro.workloads import SUITE


@pytest.fixture
def arc3d_file(tmp_path):
    f = tmp_path / "arc3d.f"
    f.write_text(SUITE["arc3d"].source)
    return str(f)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestAnalyzeCommand:
    def test_full_analysis(self, arc3d_file, capsys):
        code, out = run_cli(["analyze", arc3d_file], capsys)
        assert code == 0
        assert "filtall" in out
        assert "8/8 loops parallelizable" in out

    def test_minimal_analysis(self, arc3d_file, capsys):
        code, out = run_cli(["analyze", arc3d_file, "--minimal"], capsys)
        assert code == 0
        assert "minimal analysis" in out
        assert "serial" in out

    def test_verbose_shows_obstacles(self, arc3d_file, capsys):
        code, out = run_cli(
            ["analyze", arc3d_file, "--minimal", "-v"], capsys
        )
        assert "dependence" in out


class TestAutoCommand:
    def test_auto_writes_output(self, arc3d_file, tmp_path, capsys):
        out_file = tmp_path / "par.f"
        code, out = run_cli(
            ["auto", arc3d_file, "--eager", "-o", str(out_file)], capsys
        )
        assert code == 0
        assert "parallelized:" in out
        text = out_file.read_text()
        assert "c$par doall" in text
        # The rewritten program still runs identically.
        from repro.fortran import parse_and_bind
        from repro.perf import Interpreter

        ref = Interpreter(parse_and_bind(SUITE["arc3d"].source)).run()
        got = Interpreter(parse_and_bind(text), doall_order="reversed").run()
        assert got == ref

    def test_auto_prints_when_no_output(self, arc3d_file, capsys):
        code, out = run_cli(["auto", arc3d_file, "--eager"], capsys)
        assert "program arc3d" in out


class TestSuiteCommand:
    def test_list(self, capsys):
        code, out = run_cli(["suite"], capsys)
        assert code == 0
        for name in SUITE:
            assert name in out

    def test_dump(self, capsys):
        code, out = run_cli(["suite", "pneoss"], capsys)
        assert "program pneoss" in out


class TestPedCommand:
    def test_scripted_session(self, arc3d_file, tmp_path, capsys, monkeypatch):
        commands = iter(["unit filtall", "select 0", "apply parallelize", "quit"])

        def fake_input(prompt=""):
            try:
                return next(commands)
            except StopIteration:
                raise EOFError

        monkeypatch.setattr("builtins.input", fake_input)
        out_file = tmp_path / "edited.f"
        code, out = run_cli(["ped", arc3d_file, "-o", str(out_file)], capsys)
        assert code == 0
        assert "DOALL" in out
        assert "c$par doall" in out_file.read_text()


class TestCorpusCommand:
    def test_jobs_sets_width_not_results(self, capsys):
        outs = []
        for jobs in ("1", "2"):
            code, out = run_cli(
                ["corpus", "analyze", "--generate", "4", "--jobs", jobs],
                capsys,
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert outs[0].startswith("4 program(s), 0 error(s)")

    def test_cache_dir_is_not_a_corpus_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "corpus", "analyze", "--generate", "1",
                    "--cache-dir", str(tmp_path),
                ]
            )
        assert exc.value.code == 2
        assert "--cache-dir" in capsys.readouterr().err


class TestFrontEndErrors:
    @pytest.mark.parametrize("command", ["analyze", "auto", "ped"])
    def test_unparsable_file_is_one_line(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.f"
        bad.write_text(
            "      program p\n      do 10 i =\n 10   continue\n      end\n"
        )
        code = main([command, str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            f"repro: {bad}: line 2:9: unexpected end of statement\n"
        )

    @pytest.mark.parametrize("command", ["analyze", "auto", "ped"])
    def test_jobs_is_a_usage_error(self, command, arc3d_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, arc3d_file, "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
