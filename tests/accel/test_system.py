"""End-to-end accelerator tests: every organization, every algorithm.

Each test builds a full system (DRAM + fabric + MOMS + PEs + scheduler)
on a small graph and checks bit-exact (integer algorithms) or
tolerance (PageRank) agreement with the software references.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.accel import named_architectures
from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.baselines.reference import (
    reference_bfs,
    reference_min_label,
    reference_pagerank,
    reference_sssp,
)
from repro.fabric.design import (
    MOMS_PRIVATE,
    MOMS_SHARED,
    MOMS_TRADITIONAL,
    MOMS_TWO_LEVEL,
)
from repro.graph import web_graph
from repro.graph.generators import social_graph


GRAPH = web_graph(1500, 7000, seed=21)
WEIGHTED = GRAPH.with_weights(np.random.default_rng(42))


def arch(organization, algorithm, n_pes=4, n_banks=4, n_channels=2,
         **extra):
    return ArchitectureConfig(
        _design(n_pes, n_banks if organization != MOMS_PRIVATE else 0,
                organization, algorithm, n_channels, **extra),
        **SCALED_DEFAULTS,
    )


class TestAllOrganizationsCorrect:
    @pytest.mark.parametrize("organization", [
        MOMS_SHARED, MOMS_PRIVATE, MOMS_TWO_LEVEL, MOMS_TRADITIONAL,
    ])
    def test_scc_exact(self, organization):
        system = AcceleratorSystem(
            GRAPH, "scc", arch(organization, "scc")
        )
        result = system.run()
        expected, _ = reference_min_label(GRAPH)
        assert np.array_equal(result.values.astype(np.int64), expected)

    def test_pagerank_matches_reference(self):
        system = AcceleratorSystem(
            GRAPH, "pagerank", arch(MOMS_TWO_LEVEL, "pagerank")
        )
        result = system.run(max_iterations=3)
        expected = reference_pagerank(GRAPH, 3)
        np.testing.assert_allclose(result.values, expected, rtol=1e-4)

    def test_sssp_exact(self):
        system = AcceleratorSystem(
            WEIGHTED, "sssp", arch(MOMS_TWO_LEVEL, "sssp"), source=0
        )
        result = system.run()
        expected, _ = reference_sssp(WEIGHTED, 0)
        assert np.array_equal(result.values.astype(np.int64), expected)

    def test_bfs_extension_exact(self):
        system = AcceleratorSystem(
            GRAPH, "bfs", arch(MOMS_TWO_LEVEL, "scc"), source=3
        )
        result = system.run()
        expected, _ = reference_bfs(GRAPH, 3)
        assert np.array_equal(result.values.astype(np.int64), expected)


class TestPreprocessingVariants:
    def test_hashing_preserves_results(self):
        base = AcceleratorSystem(GRAPH, "scc", arch(MOMS_TWO_LEVEL, "scc"),
                                 use_hashing=False).run()
        hashed = AcceleratorSystem(GRAPH, "scc", arch(MOMS_TWO_LEVEL, "scc"),
                                   use_hashing=True).run()
        assert np.array_equal(base.values, hashed.values)

    def test_dbg_preserves_results(self):
        scrambled = social_graph(1200, 6000, seed=33)
        plain = AcceleratorSystem(scrambled, "scc",
                                  arch(MOMS_TWO_LEVEL, "scc"),
                                  use_hashing=True, use_dbg=False).run()
        dbg = AcceleratorSystem(scrambled, "scc",
                                arch(MOMS_TWO_LEVEL, "scc"),
                                use_hashing=True, use_dbg=True).run()
        assert np.array_equal(plain.values, dbg.values)

    def test_hashing_balances_jobs(self):
        """Hashing evens the per-interval edge counts on clustered graphs."""
        hashed = AcceleratorSystem(GRAPH, "scc", arch(MOMS_TWO_LEVEL, "scc"),
                                   use_hashing=True)
        plain = AcceleratorSystem(GRAPH, "scc", arch(MOMS_TWO_LEVEL, "scc"),
                                  use_hashing=False)
        hashed_counts = hashed.partitioning.dst_interval_edge_counts()
        plain_counts = plain.partitioning.dst_interval_edge_counts()
        assert hashed_counts.std() <= plain_counts.std()


class TestRunResultAccounting:
    def test_pagerank_processes_all_edges_every_iteration(self):
        system = AcceleratorSystem(GRAPH, "pagerank",
                                   arch(MOMS_TWO_LEVEL, "pagerank"))
        result = system.run(max_iterations=2)
        assert result.iterations == 2
        assert result.edges_processed == 2 * GRAPH.n_edges
        assert result.cycles > 0
        assert result.gteps > 0
        assert result.seconds > 0

    def test_scc_converges_and_stops(self):
        system = AcceleratorSystem(GRAPH, "scc", arch(MOMS_TWO_LEVEL, "scc"))
        result = system.run(max_iterations=100)
        # Converged before the budget (small graph).
        assert result.iterations < 100

    def test_dram_traffic_accounted(self):
        system = AcceleratorSystem(GRAPH, "scc", arch(MOMS_TWO_LEVEL, "scc"))
        result = system.run()
        # At least the edges and node arrays moved once.
        assert result.dram_bytes_read > GRAPH.n_edges * 4
        assert result.dram_bytes_written > 0
        assert 0 <= result.hit_rate <= 1
        assert result.bandwidth_gb_s > 0

    def test_stats_keys(self):
        system = AcceleratorSystem(GRAPH, "scc", arch(MOMS_TWO_LEVEL, "scc"))
        result = system.run()
        for key in ("raw_stalls", "moms_reads", "local_reads", "jobs",
                    "stall_breakdown", "dram_lines_single"):
            assert key in result.stats

    def test_deterministic_cycle_counts(self):
        runs = [
            AcceleratorSystem(GRAPH, "scc", arch(MOMS_TWO_LEVEL, "scc"))
            .run().cycles
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestArchitectureBehaviour:
    def test_local_reads_used_by_scc_not_pagerank(self):
        scc_run = AcceleratorSystem(GRAPH, "scc",
                                    arch(MOMS_TWO_LEVEL, "scc")).run()
        pr_run = AcceleratorSystem(GRAPH, "pagerank",
                                   arch(MOMS_TWO_LEVEL, "pagerank")).run(
            max_iterations=1
        )
        assert scc_run.stats["local_reads"] > 0
        assert pr_run.stats["local_reads"] == 0

    def test_pagerank_suffers_raw_stalls(self):
        """The 4-cycle fp pipeline stalls on same-destination bursts."""
        result = AcceleratorSystem(GRAPH, "pagerank",
                                   arch(MOMS_TWO_LEVEL, "pagerank")).run(
            max_iterations=1
        )
        assert result.stats["raw_stalls"] > 0

    def test_private_moms_issues_more_dram_lines_than_two_level(self):
        private = AcceleratorSystem(
            GRAPH, "pagerank",
            arch(MOMS_PRIVATE, "pagerank",
                 private_cache_kib=0)
        ).run(max_iterations=1)
        two_level = AcceleratorSystem(
            GRAPH, "pagerank", arch(MOMS_TWO_LEVEL, "pagerank")
        ).run(max_iterations=1)
        assert private.stats["dram_lines_single"] >= \
            two_level.stats["dram_lines_single"]

    def test_named_architectures_instantiable(self):
        for name, config in named_architectures("scc", n_channels=2).items():
            system = AcceleratorSystem(GRAPH, "scc", config)
            assert system.frequency_mhz > 80, name

    def test_sssp_uses_id_pool(self):
        config = arch(MOMS_TWO_LEVEL, "sssp")
        config.id_pool_size = 16  # tiny pool -> stalls but stays correct
        system = AcceleratorSystem(WEIGHTED, "sssp", config, source=0)
        result = system.run()
        expected, _ = reference_sssp(WEIGHTED, 0)
        assert np.array_equal(result.values.astype(np.int64), expected)
        assert result.stats["id_stalls"] > 0


class TestWeightedGraphInput:
    @pytest.mark.parametrize("algorithm", ["bfs", "scc", "pagerank"])
    def test_unweighted_algorithm_ignores_weights(self, algorithm):
        # The layout takes its edge width from the graph, so weights
        # must not reach an unweighted kernel's 1-word edge decoder.
        graph = web_graph(300, 1200, seed=4)
        config = arch(MOMS_TWO_LEVEL, algorithm, n_pes=2, n_banks=2)
        plain = AcceleratorSystem(graph, algorithm, config).run(
            max_iterations=2)
        weighted = AcceleratorSystem(
            graph.with_weights(np.random.default_rng(9)), algorithm,
            config,
        ).run(max_iterations=2)
        assert weighted.cycles == plain.cycles
        assert np.array_equal(weighted.values, plain.values)


# Runs in a fresh interpreter: REPRO_POOL is read at import time.
_POOL_POINT = """
import hashlib, json
import numpy as np
from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.core.messages import POOLING_ENABLED
from repro.graph import web_graph
graph = web_graph(400, 1600, seed=5).with_weights(np.random.default_rng(1))
out = {"pooling": POOLING_ENABLED}
for algorithm in ("scc", "sssp"):
    config = ArchitectureConfig(
        _design(2, 2, "two-level", algorithm, 2), **SCALED_DEFAULTS)
    result = AcceleratorSystem(graph, algorithm, config).run()
    digest = hashlib.sha256(result.values.tobytes())
    digest.update(json.dumps(result.stats, sort_keys=True,
                             default=repr).encode())
    out[algorithm] = [result.cycles, digest.hexdigest()]
print(json.dumps(out))
"""


class TestTokenPooling:
    @staticmethod
    def _run(pool):
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "REPRO_POOL": pool,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", _POOL_POINT],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_freelists_off_changes_nothing_observable(self):
        # REPRO_POOL=0 swaps every token freelist for plain
        # construction; cycles, values and stats must not move.
        pooled = self._run("1")
        unpooled = self._run("0")
        assert pooled.pop("pooling") is True
        assert unpooled.pop("pooling") is False
        assert unpooled == pooled
