"""Span streams are deterministic and the tracer never perturbs.

Three contracts from DESIGN 6.8:

* the exported span JSONL is **byte-identical** across the demand and
  legacy engines (sampling depends only on schedule-determined
  (pe, seq) coordinates);
* that identity survives an active fault plan (a DRAM-spike plan
  shifts every timestamp, but shifts them identically in all modes);
* attaching a tracer changes nothing the model computes.
"""

import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.fabric.design import MOMS_TWO_LEVEL
from repro.faults.plan import FaultPlan, install_faults
from repro.graph import web_graph
from repro.tracing import SpansConfig
from repro.tracing.export import spans_jsonl_bytes

GRAPH = web_graph(900, 4500, seed=11)

MODES = ["demand", "legacy"]


def _run(engine_env, algorithm, monkeypatch, spans=True, fault_plan=None):
    monkeypatch.setenv("REPRO_ENGINE", engine_env)
    config = ArchitectureConfig(
        _design(4, 4, MOMS_TWO_LEVEL, algorithm, n_channels=2),
        **SCALED_DEFAULTS,
    )
    system = AcceleratorSystem(
        GRAPH, algorithm, config,
        spans=SpansConfig(sample_rate=8) if spans else None,
    )
    if fault_plan is not None:
        install_faults(system, fault_plan)
    result = system.run(max_iterations=2)
    return system, result


def _fingerprint(result):
    return {
        "cycles": result.cycles,
        "gteps": result.gteps,
        "edges": result.edges_processed,
        "hit_rate": result.hit_rate,
        "dram_bytes_read": result.dram_bytes_read,
        "values": result.values.tobytes(),
    }


class TestSpanStreamDeterminism:
    @pytest.mark.parametrize("algorithm", ["pagerank", "bfs"])
    def test_byte_identical_across_engines_and_kernels(
            self, algorithm, monkeypatch):
        # One kernel path remains, so the engines are the modes to race.
        streams = {}
        for engine_env in MODES:
            system, result = _run(engine_env, algorithm, monkeypatch)
            streams[engine_env] = (
                result.cycles, spans_jsonl_bytes(system.tracer)
            )
        reference_cycles, reference = streams["demand"]
        # Not vacuous: the stream carries actual sampled spans.
        assert reference.count(b"\n") > 10
        for mode, (cycles, stream) in streams.items():
            assert cycles == reference_cycles, mode
            assert stream == reference, mode

    def test_byte_identical_under_dram_fault_plan(self, monkeypatch):
        streams = {}
        for engine_env in MODES:
            system, _result = _run(
                engine_env, "pagerank", monkeypatch,
                fault_plan=FaultPlan.dram_plan(seed=1),
            )
            streams[engine_env] = spans_jsonl_bytes(system.tracer)
        reference = streams["demand"]
        assert reference.count(b"\n") > 10
        for mode, stream in streams.items():
            assert stream == reference, mode

    def test_fault_plan_actually_shifts_the_stream(self, monkeypatch):
        """The fault-plan test above must not be comparing no-op runs."""
        clean_sys, _ = _run("demand", "pagerank", monkeypatch)
        faulty_sys, _ = _run(
            "demand", "pagerank", monkeypatch,
            fault_plan=FaultPlan.dram_plan(seed=1),
        )
        assert spans_jsonl_bytes(clean_sys.tracer) \
            != spans_jsonl_bytes(faulty_sys.tracer)


class TestTracerNeverPerturbs:
    @pytest.mark.parametrize("engine_env", ["demand", "legacy"])
    def test_tracing_on_matches_off(self, engine_env, monkeypatch):
        _off_sys, off_res = _run(
            engine_env, "pagerank", monkeypatch, spans=False
        )
        on_sys, on_res = _run(engine_env, "pagerank", monkeypatch, spans=True)
        assert _fingerprint(on_res) == _fingerprint(off_res)
        # Not vacuous: the traced run actually collected spans.
        assert on_sys.tracer.spans
        assert on_res.stats["spans"]["spans_completed"] > 0
