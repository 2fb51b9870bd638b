"""Sweep-runner environment wiring for span tracing (REPRO_SPANS)."""

import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.experiments.common import (
    run_point,
    spans_from_env,
    telemetry_from_env,
)
from repro.fabric.design import MOMS_TWO_LEVEL
from repro.graph import web_graph
from repro.tracing import SpansConfig

GRAPH = web_graph(900, 4500, seed=11)


def _config():
    return ArchitectureConfig(
        _design(4, 4, MOMS_TWO_LEVEL, "pagerank", n_channels=2),
        **SCALED_DEFAULTS,
    )


class TestSpansFromEnv:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPANS", raising=False)
        assert spans_from_env() is None
        monkeypatch.setenv("REPRO_SPANS", "0")
        assert spans_from_env() is None

    def test_enabled_with_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPANS", "1")
        assert spans_from_env() == SpansConfig()

    def test_rate_and_depth_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPANS", "32")
        monkeypatch.setenv("REPRO_SPANS_DEPTH", "17")
        assert spans_from_env() == SpansConfig(
            sample_rate=32, recorder_depth=17
        )


class TestRunPointWiring:
    def test_spans_env_attaches_tracer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPANS", "8")
        monkeypatch.delenv("REPRO_RESUME", raising=False)
        system, result = run_point(GRAPH, "pagerank", _config())
        assert system.tracer is not None
        summary = result.stats["spans"]
        assert summary["sample_rate"] == 8
        assert summary["spans_completed"] > 0

    def test_requested_but_absent_summaries_are_explicit_null(
            self, monkeypatch):
        """Journal rows must say ``null``, not omit the key, when the
        environment asked for a summary the run could not produce
        (satellite: resume-path rows with REPRO_TELEMETRY=1)."""
        from repro.experiments.common import _normalize_observability_stats

        class FakeResult:
            stats = {}

        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_SPANS", "1")
        result = FakeResult()
        _normalize_observability_stats(result)
        assert result.stats["telemetry"] is None
        assert result.stats["spans"] is None

        # Present summaries are never clobbered.
        result.stats["telemetry"] = {"cycles": 5}
        _normalize_observability_stats(result)
        assert result.stats["telemetry"] == {"cycles": 5}

        # With collection off, the keys stay absent.
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        monkeypatch.delenv("REPRO_SPANS", raising=False)
        bare = FakeResult()
        bare.stats = {}
        _normalize_observability_stats(bare)
        assert "telemetry" not in bare.stats
        assert "spans" not in bare.stats

    def test_telemetry_env_still_works_alongside(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_SPANS", "1")
        monkeypatch.delenv("REPRO_RESUME", raising=False)
        assert telemetry_from_env() is not None
        system, result = run_point(GRAPH, "pagerank", _config())
        assert result.stats["telemetry"] is not None
        assert result.stats["spans"] is not None
        assert system.telemetry is not None


class TestCliParser:
    def test_engine_and_kernels_flags_parse_once(self, capsys):
        """The shared parser must accept the engine flag exactly once
        (a duplicate add_argument would crash at parser build)."""
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "spans" in out and "trace" in out
