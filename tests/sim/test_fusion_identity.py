"""Fused macro-tick runs are bit-identical to per-cycle execution.

The contract (DESIGN.md Section 6.9): ``REPRO_FUSION=on`` may only
change *how* the engine advances time, never what the model computes
-- same final cycle count, same iteration count, same stats dict,
same output values, and the same byte-identical span stream -- across
algorithms, organizations, active fault plans, and a
checkpoint/restore boundary landing where a fused run would otherwise
be in flight.

Every point here is *structure-starved* (tiny MSHR budget against a
long-latency, deep-queued DRAM channel) so fused retry/drain runs
actually occur; each fused leg asserts nonzero coverage, so the suite
cannot green-wash by silently never fusing.
"""

import hashlib

import numpy as np
import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.checkpoint import load_snapshot, read_header
from repro.faults.plan import NAMED_PLANS
from repro.graph import web_graph
from repro.mem.dram import DramTimings
from repro.tracing import SpansConfig
from repro.tracing.export import spans_jsonl_bytes

GRAPH = web_graph(400, 2000, seed=7)

ALGORITHMS = ("pagerank", "bfs", "sssp", "scc")
ORGANIZATIONS = ("shared", "private", "two-level", "traditional")


def _starved_config(organization, algorithm):
    config = ArchitectureConfig(
        _design(2, 2, organization, algorithm, n_channels=1,
                private_cache_kib=16),
        **dict(SCALED_DEFAULTS, structure_scale=1 / 256),
    )
    config.dram_timings = DramTimings(latency=300,
                                      request_queue_depth=256)
    return config


def _run(fusion, algorithm, organization, monkeypatch, **system_kwargs):
    monkeypatch.setenv("REPRO_ENGINE", "demand")
    monkeypatch.setenv("REPRO_FUSION", fusion)
    system = AcceleratorSystem(
        GRAPH, algorithm, _starved_config(organization, algorithm),
        **system_kwargs,
    )
    result = system.run(max_iterations=2)
    return system, result


def _assert_identical(fused, unfused):
    assert fused.cycles == unfused.cycles
    assert fused.iterations == unfused.iterations
    assert fused.stats == unfused.stats
    assert np.array_equal(fused.values, unfused.values)


class TestAlgorithmOrganizationMatrix:
    @pytest.mark.parametrize("organization", ORGANIZATIONS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_fused_matches_unfused(self, algorithm, organization,
                                   monkeypatch):
        fused_system, fused = _run(
            "on", algorithm, organization, monkeypatch)
        assert fused_system.engine.fused_runs > 0, \
            "starved point stopped producing fused runs"
        _, unfused = _run("off", algorithm, organization, monkeypatch)
        _assert_identical(fused, unfused)

    def test_integer_cap_matches_too(self, monkeypatch):
        """A small REPRO_FUSION=K cap splits runs differently but must
        not change the model either."""
        capped_system, capped = _run("8", "pagerank", "two-level",
                                     monkeypatch)
        assert capped_system.engine.fused_runs > 0
        _, unfused = _run("off", "pagerank", "two-level", monkeypatch)
        _assert_identical(capped, unfused)


class TestUnderFaultPlan:
    @pytest.mark.parametrize("plan_name", sorted(NAMED_PLANS))
    def test_fused_matches_unfused(self, plan_name, monkeypatch):
        """Fault hooks make the affected components decline fusion
        (their per-cycle injection sites must see every cycle), but
        the engine still fuses elsewhere and the model must not
        move."""
        factory = NAMED_PLANS[plan_name]
        _, fused = _run("on", "pagerank", "two-level", monkeypatch,
                        fault_plan=factory())
        _, unfused = _run("off", "pagerank", "two-level", monkeypatch,
                          fault_plan=factory())
        _assert_identical(fused, unfused)


class TestCheckpointAcrossFusedRun:
    def test_restore_resumes_fusing_bit_identically(self, tmp_path,
                                                    monkeypatch):
        """A checkpoint interval short enough to land inside the
        starved point's fused windows: the stability oracle clamps
        each run at the hook point, the snapshot is written on the
        real tick, and the resumed engine must re-enter fusion and
        finish bit-identical to the unfused straight run."""
        _, unfused = _run("off", "pagerank", "shared", monkeypatch)
        fused_system, fused = _run("on", "pagerank", "shared", monkeypatch)
        assert fused_system.engine.fused_runs > 0
        _assert_identical(fused, unfused)

        snap = str(tmp_path / "mid.snap")
        ck_system, checkpointed = _run(
            "on", "pagerank", "shared", monkeypatch,
            checkpoint=f"{snap}:2000",
        )
        assert ck_system.engine.fused_runs > 0
        _assert_identical(checkpointed, unfused)

        header = read_header(snap)
        assert 0 < header["cycle"] < unfused.cycles  # genuinely mid-run
        resumed_system, _ = load_snapshot(snap)
        replayed = resumed_system.resume_run()
        # The snapshot carries the fusion cap, so the restored engine
        # must fuse again over the remaining cycles, not fall back to
        # per-cycle ticking.
        assert resumed_system.engine.fused_runs > 0
        _assert_identical(replayed, unfused)


class TestSpanStream:
    def test_span_stream_sha_unchanged(self, monkeypatch):
        """Span tracing makes traced components decline fusion, so the
        sampled stream -- pinned by SHA-256 of the canonical JSONL
        bytes -- must come out byte-identical either way."""

        def leg(fusion):
            system, result = _run(
                fusion, "pagerank", "two-level", monkeypatch,
                spans=SpansConfig(sample_rate=8),
            )
            sha = hashlib.sha256(
                spans_jsonl_bytes(system.tracer)).hexdigest()
            return result, sha

        fused, fused_sha = leg("on")
        unfused, unfused_sha = leg("off")
        assert fused_sha == unfused_sha
        _assert_identical(fused, unfused)
