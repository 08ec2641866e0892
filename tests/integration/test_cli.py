"""The command line interface."""

import io
import re

import pytest

from repro.cli import main


def run_cli(*argv) -> str:
    out = io.StringIO()
    status = main(list(argv), out=out)
    assert status == 0
    return out.getvalue()


class TestCli:
    def test_list(self):
        text = run_cli("list")
        assert "pathfinder" in text
        assert "Rodinia" in text
        assert text.count("\n") >= 12

    def test_show_prints_ir(self):
        text = run_cli("show", "nw", "--scale", "test")
        assert "func @main() : void {" in text
        assert "icmp" in text

    def test_analyze(self):
        text = run_cli("analyze", "pathfinder", "--scale", "test",
                       "--samples", "200", "--top", "3")
        assert "overall SDC probability" in text
        assert "overall crash probability" in text
        assert text.count("%") > 5

    def test_analyze_simpler_model(self):
        text = run_cli("analyze", "pathfinder", "--scale", "test",
                       "--samples", "200", "--model", "fs")
        assert "model:   fs" in text
        assert "crash probability" not in text  # trident-only extension

    def test_inject(self):
        text = run_cli("inject", "pathfinder", "--scale", "test",
                       "--runs", "100")
        assert "sdc" in text
        assert "crash" in text
        assert "±" in text

    def test_protect(self):
        text = run_cli("protect", "pathfinder", "--scale", "test",
                       "--runs", "150", "--budget", "0.5")
        assert "SDC reduction" in text
        assert "instructions protected" in text

    def test_experiment_table1(self):
        text = run_cli("experiment", "table1", "--scale", "test",
                       "--fi-samples", "100")
        assert "Table I" in text

    def test_input_seed_changes_program(self):
        a = run_cli("show", "pathfinder", "--scale", "test")
        b = run_cli("show", "pathfinder", "--scale", "test",
                    "--input-seed", "1")
        assert a != b

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("analyze", "doom", "--scale", "test")

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("frobnicate")


def test_analyze_explain_says_where_the_time_went(tmp_path):
    argv = ("--cache-dir", str(tmp_path), "analyze", "pathfinder",
            "--scale", "test", "--samples", "200", "--explain")
    cold = run_cli(*argv)
    assert re.search(r"^profiling: \d+\.\d{3} s$", cold, re.M)
    assert re.search(r"^inference: \d+\.\d{3} s$", cold, re.M)
    warm = run_cli(*argv)
    assert "profiling: profile replayed from the artifact store" in warm
    assert re.search(r"^inference: \d+\.\d{3} s$", warm, re.M)
