"""Tests for the `python -m repro` command-line entry point."""

import pytest

from repro.__main__ import EXPERIMENTS, main
from repro.telemetry.perfetto import validate_perfetto


class TestCli:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in EXPERIMENTS:
            assert key in out

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_runs_a_cheap_experiment(self, capsys):
        assert main(["fig17"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 17" in out
        assert "freq MHz" in out

    def test_table4_style_experiment(self, capsys):
        assert main(["table3"]) == 0
        assert "preprocessing time" in capsys.readouterr().out

    def test_list_includes_trace(self, capsys):
        assert main(["list"]) == 0
        assert "trace" in capsys.readouterr().out

    def test_trace_subcommand_exports_and_validates(self, capsys,
                                                    tmp_path):
        prefix = str(tmp_path / "out" / "run")
        assert main([
            "trace", "--graph", "RV", "--algorithm", "bfs",
            "--interval", "128", "--out", prefix, "--csv",
        ]) == 0
        out = capsys.readouterr().out
        assert "PE cycle accounting" in out
        assert "validated" in out
        assert "per-stage latency decomposition" in out
        for suffix in (".trace.json", ".timeline.jsonl",
                       ".timeline.csv", ".summary.json",
                       ".spans.jsonl", ".spansummary.json"):
            assert (tmp_path / "out" / f"run{suffix}").exists()
        # One Perfetto file carries both observers' tracks.
        counts = validate_perfetto(tmp_path / "out" / "run.trace.json")
        assert counts["C"] and counts["X"] and counts["s"] == counts["f"]

    def test_spans_subcommand_and_flag_are_gone(self):
        with pytest.raises(SystemExit):
            main(["spans"])
        with pytest.raises(SystemExit):
            main(["trace", "--spans-out", "x"])
