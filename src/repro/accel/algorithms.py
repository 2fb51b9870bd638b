"""Algorithm definitions for Template 1 (paper Table I).

* PageRank with ForeGraph's normalization trick: DRAM stores the
  pre-normalized score ``y[i] = d * PR[i] / OD[i]`` so each irregular
  read is 32 bits and normalization happens once per node in apply()
  instead of once per edge.  Synchronous, floating point, always
  active, 4-cycle gather pipeline.  Sink nodes (OD = 0) store y = 0 --
  they are never read as sources -- so, like the paper's scheme, the
  reported score of a sink is its teleport term.
* SCC -- min-label propagation (the coloring kernel FPGA graph
  processors call SCC): every node converges to the smallest label
  among its ancestors.  Asynchronous, integer min, uses local sources.
* SSSP -- Bellman-Ford relaxation over weighted edges with saturating
  uint32 distances.  Asynchronous, uses local sources.
* BFS -- extension (not in Table I): SSSP with unit weights.

The scalar hooks run identically in the cycle-level PE and in the
software reference executor, so functional equality is checkable.
"""

import numpy as np

from repro.accel.template import AlgorithmSpec

DAMPING = 0.85
INFINITY = int(np.uint32(0xFFFFFFFF))


def f32_to_bits(value):
    """Raw uint32 bit pattern of a float32 scalar."""
    return int(np.float32(value).view(np.uint32))


def bits_to_f32(word):
    """float32 scalar from a raw uint32 bit pattern."""
    return float(np.uint32(word).view(np.float32))


def pagerank_spec():
    """PageRank per Table I: V_const = OD, DRAM holds normalized scores."""

    def initial_values(graph):
        degrees = graph.out_degrees().astype(np.float64)
        scores = np.full(graph.n_nodes, 1.0 / graph.n_nodes)
        with np.errstate(divide="ignore", invalid="ignore"):
            normalized = np.where(degrees > 0,
                                  DAMPING * scores / degrees, 0.0)
        return normalized.astype(np.float32).view(np.uint32)

    def const_values(graph):
        return graph.out_degrees().astype(np.uint32)

    def apply(v_bram, const_c, base):
        """y_out = d * (base + accumulated) / OD; 0 for sinks."""
        if const_c == 0:
            return 0.0
        return DAMPING * (base + v_bram) / const_c

    def finalize(dram_words, graph):
        """PR[i] = y[i] * OD[i] / d; sinks report the teleport term."""
        y = dram_words.view(np.float32).astype(np.float64)
        degrees = graph.out_degrees().astype(np.float64)
        base = 0.15 / graph.n_nodes
        return np.where(degrees > 0, y * degrees / DAMPING, base)

    return AlgorithmSpec(
        name="pagerank",
        weighted=False,
        use_local_src=False,   # partial sums must not be read early
        always_active=True,
        synchronous=True,
        gather_latency=4,      # HLS floating-point accumulator
        use_const=True,
        node_bytes=4,
        bram_node_bits=64,     # accumulator + out-degree
        init=lambda c, v: 0.0,  # accumulator cleared; base added in apply
        gather=lambda u, v, w: v + u,
        apply=apply,
        decode=bits_to_f32,
        encode=f32_to_bits,
        initial_values=initial_values,
        const_values=const_values,
        finalize=finalize,
        global_const=lambda graph: 0.15 / graph.n_nodes,
    )


def scc_spec():
    """Min-label propagation (Table I's SCC column)."""

    def initial_values(graph):
        return np.arange(graph.n_nodes, dtype=np.uint32)

    return AlgorithmSpec(
        name="scc",
        weighted=False,
        use_local_src=True,
        always_active=False,
        synchronous=False,
        gather_latency=1,      # combinational integer min
        use_const=False,
        node_bytes=4,
        init=lambda c, v: v,
        gather=lambda u, v, w: min(u, v),
        apply=lambda v, c, base: v,
        decode=int,
        encode=lambda value: int(value),
        initial_values=initial_values,
        finalize=lambda words, graph: words.copy(),
    )


def sssp_spec(source=0):
    """Single-source shortest paths with saturating uint32 distances."""

    def initial_values(graph):
        values = np.full(graph.n_nodes, INFINITY, dtype=np.uint32)
        values[source] = 0
        return values

    def gather(u, v, w):
        candidate = u + w if u < INFINITY else INFINITY
        return min(candidate, v, INFINITY)

    return AlgorithmSpec(
        name="sssp",
        weighted=True,
        use_local_src=True,
        always_active=False,
        synchronous=False,
        gather_latency=1,
        use_const=False,
        node_bytes=4,
        init=lambda c, v: v,
        gather=gather,
        apply=lambda v, c, base: v,
        decode=int,
        encode=lambda value: int(value),
        initial_values=initial_values,
        finalize=lambda words, graph: words.copy(),
    )


def bfs_spec(source=0):
    """Breadth-first search distances (unit-weight SSSP); an extension."""

    def initial_values(graph):
        values = np.full(graph.n_nodes, INFINITY, dtype=np.uint32)
        values[source] = 0
        return values

    def gather(u, v, w):
        candidate = u + 1 if u < INFINITY else INFINITY
        return min(candidate, v)

    return AlgorithmSpec(
        name="bfs",
        weighted=False,
        use_local_src=True,
        always_active=False,
        synchronous=False,
        gather_latency=1,
        use_const=False,
        node_bytes=4,
        init=lambda c, v: v,
        gather=gather,
        apply=lambda v, c, base: v,
        decode=int,
        encode=lambda value: int(value),
        initial_values=initial_values,
        finalize=lambda words, graph: words.copy(),
    )


def get_spec(name, **kwargs):
    """Look up an algorithm spec by name ('pagerank' | 'scc' | 'sssp' | 'bfs')."""
    makers = {
        "pagerank": pagerank_spec,
        "scc": scc_spec,
        "sssp": sssp_spec,
        "bfs": bfs_spec,
    }
    if name not in makers:
        raise ValueError(f"unknown algorithm {name!r}")
    spec = makers[name](**kwargs)
    # The recipe lets snapshots rebuild the spec (its hooks are
    # closures, which do not pickle); see AlgorithmSpec.__reduce__.
    spec.recipe = (name, dict(kwargs))
    return spec
