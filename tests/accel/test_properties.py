"""Property-based end-to-end tests: the accelerator equals the math.

Hypothesis drives random graphs and random structural parameters; the
cycle-level system must stay bit-exact against the fixpoint reference
regardless of timing, stalls, structure sizes, or organizations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.baselines.reference import reference_min_label, reference_sssp
from repro.fabric.design import ORGANIZATIONS
from repro.graph import Graph


def random_graph(draw_data, max_nodes=200, max_edges=600):
    n = draw_data.draw(st.integers(min_value=2, max_value=max_nodes))
    m = draw_data.draw(st.integers(min_value=1, max_value=max_edges))
    seed = draw_data.draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    return Graph(n, rng.integers(0, n, m), rng.integers(0, n, m))


def make_config(organization, algorithm, data=None):
    n_banks = 0 if organization == "private" else 2
    return ArchitectureConfig(
        _design(2, n_banks, organization, algorithm, n_channels=2),
        **SCALED_DEFAULTS,
    )


class TestEndToEndProperties:
    @given(st.data())
    @settings(max_examples=10, deadline=None)
    def test_scc_exact_on_random_graphs(self, data):
        graph = random_graph(data)
        organization = data.draw(st.sampled_from(ORGANIZATIONS))
        system = AcceleratorSystem(
            graph, "scc", make_config(organization, "scc")
        )
        result = system.run()
        expected, _ = reference_min_label(graph)
        assert np.array_equal(result.values.astype(np.int64), expected)

    @given(st.data())
    @settings(max_examples=6, deadline=None)
    def test_sssp_exact_on_random_weighted_graphs(self, data):
        graph = random_graph(data, max_edges=300)
        seed = data.draw(st.integers(min_value=0, max_value=1000))
        graph = graph.with_weights(np.random.default_rng(seed))
        source = data.draw(
            st.integers(min_value=0, max_value=graph.n_nodes - 1)
        )
        system = AcceleratorSystem(
            graph, "sssp", make_config("two-level", "sssp"), source=source
        )
        result = system.run()
        expected, _ = reference_sssp(graph, source)
        assert np.array_equal(result.values.astype(np.int64), expected)

    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=8, max_value=64))
    @settings(max_examples=6, deadline=None)
    def test_tiny_structures_stay_correct(self, id_pool, subentry_scale):
        """Starved ID pools / subentry stores stall but never corrupt."""
        rng = np.random.default_rng(13)
        graph = Graph(100, rng.integers(0, 100, 400),
                      rng.integers(0, 100, 400)).with_weights(rng)
        config = make_config("two-level", "sssp")
        config.id_pool_size = id_pool
        config.structure_scale = subentry_scale / 4096
        system = AcceleratorSystem(graph, "sssp", config, source=0)
        result = system.run()
        expected, _ = reference_sssp(graph, 0)
        assert np.array_equal(result.values.astype(np.int64), expected)

    @given(st.sampled_from(["none", "hash", "dbg", "both"]))
    @settings(max_examples=4, deadline=None)
    def test_preprocessing_never_changes_results(self, variant):
        rng = np.random.default_rng(7)
        graph = Graph(300, rng.integers(0, 300, 900),
                      rng.integers(0, 300, 900))
        system = AcceleratorSystem(
            graph, "scc", make_config("two-level", "scc"),
            use_hashing=variant in ("hash", "both"),
            use_dbg=variant in ("dbg", "both"),
        )
        result = system.run()
        expected, _ = reference_min_label(graph)
        assert np.array_equal(result.values.astype(np.int64), expected)


# Every run-shaping ArchitectureConfig field with an impossible range,
# the values drawn for it (boundaries included), and which of them a
# run can finish with.  Anything else must be rejected, by name, when
# the system is built.
CONFIG_SURFACE = {
    "burst_bytes": ([0, 1, 32, 63, 64, 65, 96, 128, 192, 4096],
                    lambda v: v > 0 and v % 64 == 0),
    "max_outstanding_edge_bursts": ([0, 1, 2], lambda v: v >= 1),
    "dma_queue_beats": ([0, 1, 2], lambda v: v >= 1),
    "init_nodes_per_cycle": ([0, 1, 3], lambda v: v >= 1),
    "nodes_per_dst_interval": ([0, 16, 17], lambda v: v >= 1),
    "min_jobs_per_pe": ([0, 0.5, 1], lambda v: v > 0),
    "id_pool_size": ([0, 1, 2], lambda v: v >= 1),
}


class TestConfigSurface:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_accepted_is_exact_rejected_is_named(self, data):
        """Accepted means bit-exact; rejected means a ValueError naming
        the field at construction, never a mid-run failure."""
        field = data.draw(st.sampled_from(sorted(CONFIG_SURFACE)))
        values, valid = CONFIG_SURFACE[field]
        value = data.draw(st.sampled_from(values))
        rng = np.random.default_rng(5)
        graph = Graph(100, rng.integers(0, 100, 400),
                      rng.integers(0, 100, 400)).with_weights(rng)
        config = make_config("two-level", "sssp")
        setattr(config, field, value)
        if not valid(value):
            with pytest.raises(ValueError, match=field):
                AcceleratorSystem(graph, "sssp", config, source=0)
            return
        result = AcceleratorSystem(graph, "sssp", config, source=0).run()
        expected, _ = reference_sssp(graph, 0)
        assert np.array_equal(result.values.astype(np.int64), expected)

    def test_id_pool_only_binds_weighted_algorithms(self):
        rng = np.random.default_rng(5)
        graph = Graph(100, rng.integers(0, 100, 400),
                      rng.integers(0, 100, 400))
        config = make_config("two-level", "scc")
        config.id_pool_size = 0
        result = AcceleratorSystem(graph, "scc", config).run()
        expected, _ = reference_min_label(graph)
        assert np.array_equal(result.values.astype(np.int64), expected)
