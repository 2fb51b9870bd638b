"""The benchmark's workloads: figure points of the paper reproduction.

Each workload is one (graph, algorithm, architecture) point that a
figure sweep of this repository already runs, built only through the
public API.  Instance k of a seed simulates
``load_benchmark(key, seed_offset=seed + k * SEED_STRIDE)`` on
``AcceleratorSystem(seed=seed + k * SEED_STRIDE)``, so instance 0 is
the plain seed.  Everything else is fixed.  Why each point was chosen
is recorded in ``BENCHMARK.json``.

A timed run simulates ``INSTANCES`` instances because the simulator's
cycles/s depends on the graph: over seeds 1-10 the component ticks
per simulated cycle of ``scc-uk-traditional`` ranged 13.3-18.7, so
single-instance runs spread by the input as much as by the host.  A
traced run simulates instance 0 of its seed.

The timed run of the MSHR-starved point is pinned to the instance its
figure sweep runs (seed 0).  In that regime each graph and hashing seed
lands somewhere else between light and heavy cuckoo retry spinning:
over seeds 0-10 its simulated GTEPS ranged 0.27-0.40 and the
simulator's cycles/s had an interquartile range of 30% of the median.
At about 30 s per run to convergence, no timed run can average over
enough instances to be steady.  Its traced run follows the seed like
every other, so the layer split can be checked on other graphs.
"""

import copy
from dataclasses import dataclass

import numpy as np

from repro.accel.config import named_architectures
from repro.accel.system import AcceleratorSystem
from repro.baselines.reference import reference_min_label, reference_pagerank
from repro.experiments.common import QUICK_SHRINK
from repro.graph import datasets

SEED_STRIDE = 1_000_003  # keeps the instances of nearby seeds apart
INSTANCES = 4  # per timed run


@dataclass(frozen=True)
class Workload:
    name: str
    graph_key: str
    algorithm: str
    architecture: str
    structure_factor: float = 1.0  # multiplies config.structure_scale
    max_iterations: int = None  # None: run to convergence
    pinned_seed: int = None  # set: a timed run's only instance

    def timed_seeds(self, seed):
        """The instances a timed run of *seed* simulates."""
        if self.pinned_seed is not None:
            return [self.pinned_seed]
        return [seed + k * SEED_STRIDE for k in range(INSTANCES)]

    def config(self):
        config = copy.deepcopy(
            named_architectures(self.algorithm, 2)[self.architecture]
        )
        config.structure_scale *= self.structure_factor
        return config

    def build(self, graph, config, seed):
        return AcceleratorSystem(graph, self.algorithm, config, seed=seed)

    def run(self, system):
        return system.run(max_iterations=self.max_iterations)

    def reference(self, graph):
        """The values a correct run must produce on *graph*."""
        if self.algorithm == "pagerank":
            return reference_pagerank(graph, self.max_iterations)
        return reference_min_label(graph)[0]

    def check(self, expected, result):
        """Compare a RunResult with :meth:`reference`.

        Returns an error message, or None when the values match:
        PageRank to ``rtol=1e-4`` at the same iteration count (the
        tier-1 tests' tolerance), SCC labels exactly at convergence.
        """
        if self.algorithm == "pagerank":
            if result.iterations != self.max_iterations:
                return (f"ran {result.iterations} PageRank iterations, "
                        f"expected {self.max_iterations}")
            if not np.allclose(result.values, expected, rtol=1e-4, atol=0):
                worst = np.max(np.abs(result.values - expected)
                               / np.abs(expected))
                return f"PageRank values off by up to {worst:.3g} (rtol 1e-4)"
            return None
        mismatched = int(np.count_nonzero(
            np.asarray(result.values, dtype=np.int64) != expected))
        if mismatched:
            return f"{mismatched} SCC labels differ from the fixpoint"
        return None


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("pagerank-rv-twolevel", "RV", "pagerank",
                 "16/16 two-level", max_iterations=2),
        Workload("scc-uk-traditional", "UK", "scc", "18/16 traditional"),
        Workload("scc-rv-mshr-starved", "RV", "scc", "16/16 two-level",
                 structure_factor=1 / 16, pinned_seed=0),
    )
}


def cold_graph(workload, seed):
    """Generate the workload's graph with the in-process cache empty."""
    datasets._cache.clear()
    return datasets.load_benchmark(workload.graph_key, seed_offset=seed,
                                   shrink=QUICK_SHRINK)
