"""Replay bit-identity: resume-from-snapshot == uninterrupted run.

The contract (DESIGN.md Section 6.7): restoring a mid-run snapshot and
resuming must produce *exactly* the result the uninterrupted run
produces -- same final cycle count, same iteration count, same stats
dict, same output values -- across engines, algorithms, organizations,
and with a fault plan actively injecting mid-window.
"""

import numpy as np
import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.checkpoint import read_header, replay_snapshot
from repro.faults.plan import NAMED_PLANS
from repro.graph import web_graph

GRAPH = web_graph(600, 3000, seed=7)
INTERVAL = 2000


def _config(organization, algorithm):
    return ArchitectureConfig(
        _design(4, 4, organization, algorithm, n_channels=2,
                private_cache_kib=64),
        **SCALED_DEFAULTS,
    )


def _assert_replay_identical(algorithm, organization, tmp_path,
                             fault_plan=None):
    config = _config(organization, algorithm)

    def plan():
        return fault_plan() if fault_plan else None

    baseline = AcceleratorSystem(GRAPH, algorithm, config,
                                 fault_plan=plan()).run(max_iterations=2)

    snap = str(tmp_path / "mid.snap")
    checkpointed = AcceleratorSystem(
        GRAPH, algorithm, config, fault_plan=plan(),
        checkpoint=f"{snap}:{INTERVAL}",
    ).run(max_iterations=2)
    # Checkpointing itself must not perturb the model.
    assert checkpointed.cycles == baseline.cycles

    header = read_header(snap)
    assert 0 < header["cycle"] < baseline.cycles  # genuinely mid-run
    replayed, _ = replay_snapshot(snap)
    assert replayed.cycles == baseline.cycles
    assert replayed.iterations == baseline.iterations
    assert replayed.stats == baseline.stats
    assert np.array_equal(replayed.values, baseline.values)
    return header


class TestEngines:
    @pytest.mark.parametrize("engine", ["demand", "legacy"])
    def test_replay_identity(self, engine, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", engine)
        header = _assert_replay_identical("pagerank", "shared", tmp_path)
        # The snapshot records the engine it was built under.
        assert header["engine"] == engine


class TestAlgorithms:
    @pytest.mark.parametrize("algorithm",
                             ["pagerank", "bfs", "sssp", "scc"])
    def test_replay_identity(self, algorithm, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "demand")
        _assert_replay_identical(algorithm, "two-level", tmp_path)


class TestOrganizations:
    @pytest.mark.parametrize("organization",
                             ["shared", "private", "two-level",
                              "traditional"])
    def test_replay_identity(self, organization, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "demand")
        _assert_replay_identical("pagerank", organization, tmp_path)


class TestUnderFaultPlan:
    @pytest.mark.parametrize("plan_name", sorted(NAMED_PLANS))
    def test_replay_identity_with_active_faults(self, plan_name, tmp_path,
                                                monkeypatch):
        """The snapshot lands mid-run with fault windows armed (and the
        splitmix chain mid-stream); replay must re-attach the plan state
        and keep injecting identically."""
        monkeypatch.setenv("REPRO_ENGINE", "demand")
        _assert_replay_identical(
            "pagerank", "two-level", tmp_path,
            fault_plan=NAMED_PLANS[plan_name],
        )
