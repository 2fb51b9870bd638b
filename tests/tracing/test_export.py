"""Exporters emit what their validators accept -- and only that."""

import json

import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.fabric.design import MOMS_TWO_LEVEL
from repro.graph import web_graph
from repro.telemetry.perfetto import validate_perfetto, write_perfetto
from repro.tracing import SpansConfig
from repro.tracing.export import (
    spans_jsonl_bytes,
    validate_span_summary,
    validate_spans_jsonl,
    write_span_summary,
    write_spans_jsonl,
)

GRAPH = web_graph(900, 4500, seed=11)


@pytest.fixture(scope="module")
def traced():
    config = ArchitectureConfig(
        _design(4, 4, MOMS_TWO_LEVEL, "pagerank", n_channels=2),
        **SCALED_DEFAULTS,
    )
    system = AcceleratorSystem(
        GRAPH, "pagerank", config, spans=SpansConfig(sample_rate=8)
    )
    result = system.run(max_iterations=2)
    return system, result


class TestSpansJsonl:
    def test_roundtrip_validates(self, traced, tmp_path):
        system, _ = traced
        path = write_spans_jsonl(system.tracer, tmp_path / "s.jsonl")
        info = validate_spans_jsonl(path)
        assert info["spans"] == len(system.tracer.spans)
        assert info["meta"]["requests_seen"] == system.tracer.requests_seen

    def test_stream_is_ascii_and_sorted(self, traced):
        system, _ = traced
        blob = spans_jsonl_bytes(system.tracer)
        text = blob.decode("ascii")  # raises on non-ascii
        spans = [json.loads(line) for line in text.splitlines()[1:]]
        keys = [(s["issue"], s["pe"], s["seq"]) for s in spans]
        assert keys == sorted(keys)
        # Internal bookkeeping must not leak into the export.
        assert all("sampled" not in s for s in spans)
        assert all("stages" in s for s in spans)

    def test_validator_rejects_corruption(self, traced, tmp_path):
        system, _ = traced
        blob = spans_jsonl_bytes(system.tracer).decode("ascii")
        lines = blob.splitlines()

        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="spans"):
            validate_spans_jsonl(truncated)

        bad_header = tmp_path / "badheader.jsonl"
        bad_header.write_text(
            "\n".join([json.dumps({"kind": "nope"})] + lines[1:]) + "\n"
        )
        with pytest.raises(ValueError, match="meta header"):
            validate_spans_jsonl(bad_header)

        span = json.loads(lines[1])
        span["stages"]["queue"] += 1  # break the exact accounting
        bad_sum = tmp_path / "badsum.jsonl"
        bad_sum.write_text("\n".join([lines[0], json.dumps(span)]
                                     + lines[2:]) + "\n")
        # Header count is now wrong only if we dropped lines; keep all.
        with pytest.raises(ValueError, match="stage sum"):
            validate_spans_jsonl(bad_sum)


class TestFlowTrace:
    def test_roundtrip_validates(self, traced, tmp_path):
        system, _ = traced
        path = tmp_path / "f.json"
        write_perfetto(path, tracer=system.tracer)
        counts = validate_perfetto(path)
        # One flow start and one finish per completed span.
        assert counts["s"] == len(system.tracer.spans)
        assert counts["f"] == len(system.tracer.spans)
        assert counts["X"] >= len(system.tracer.spans)

    def test_validator_rejects_malformed_flow(self, traced, tmp_path):
        system, _ = traced
        path = tmp_path / "f.json"
        write_perfetto(path, tracer=system.tracer)
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        # Drop the first flow-start: its flow now begins with "t"/"f".
        start = next(e for e in events if e.get("ph") == "s")
        events.remove(start)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="malformed"):
            validate_perfetto(bad)


class TestSpanSummary:
    def test_roundtrip_validates(self, traced, tmp_path):
        system, result = traced
        path = write_span_summary(
            result.stats["spans"], tmp_path / "sum.json"
        )
        summary = validate_span_summary(path)
        assert summary["spans_completed"] == len(system.tracer.spans)
        assert "_totals" in summary["stages"]

    def test_validator_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "sum.json"
        path.write_text(json.dumps({"schema": 1}))
        with pytest.raises(ValueError, match="missing"):
            validate_span_summary(path)
