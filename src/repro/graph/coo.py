"""Directed graphs in coordinate (COO) format.

The accelerator accepts a plain edge list -- (src, dst, optional
weight) -- exactly as the paper's preprocessing does (Section III-C).
Arrays are numpy-backed; node labels are dense integers in [0, n).
"""

import numpy as np


class Graph:
    """A directed graph as parallel src/dst (and optional weight) arrays."""

    def __init__(self, n_nodes, src, dst, weights=None, name="graph"):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same length")
        if len(src) and (src.min() < 0 or src.max() >= n_nodes):
            raise ValueError("src labels out of range")
        if len(dst) and (dst.min() < 0 or dst.max() >= n_nodes):
            raise ValueError("dst labels out of range")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.int64)
            if weights.shape != src.shape:
                raise ValueError("weights must match the edge count")
        self.n_nodes = int(n_nodes)
        self.src = src
        self.dst = dst
        self.weights = weights
        self.name = name

    @property
    def n_edges(self):
        return len(self.src)

    @property
    def weighted(self):
        return self.weights is not None

    def out_degrees(self):
        """Out-degree of every node."""
        return np.bincount(self.src, minlength=self.n_nodes)

    def in_degrees(self):
        return np.bincount(self.dst, minlength=self.n_nodes)

    def with_weights(self, rng=None, max_weight=255):
        """Copy with random integer weights in [0, max_weight] (paper SSSP)."""
        rng = rng or np.random.default_rng(42)
        weights = rng.integers(0, max_weight + 1, size=self.n_edges)
        return Graph(self.n_nodes, self.src, self.dst, weights,
                     name=self.name)

    def without_weights(self):
        """Copy with the weights dropped (for unweighted algorithms)."""
        return Graph(self.n_nodes, self.src, self.dst, name=self.name)

    def relabel(self, permutation):
        """Apply a node permutation: node i becomes permutation[i].

        The permutation must be a bijection on [0, n).  Edge order is
        unchanged; only labels move, so the graph stays isomorphic.
        """
        permutation = np.asarray(permutation, dtype=np.int64)
        if len(permutation) != self.n_nodes:
            raise ValueError("permutation length must equal n_nodes")
        check = np.zeros(self.n_nodes, dtype=bool)
        check[permutation] = True
        if not check.all():
            raise ValueError("not a permutation")
        return Graph(
            self.n_nodes,
            permutation[self.src],
            permutation[self.dst],
            self.weights,
            name=self.name,
        )

    def subgraph_stats(self):
        """Summary used by dataset tables (Table II style)."""
        degrees = self.out_degrees()
        return {
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "avg_degree": self.n_edges / self.n_nodes if self.n_nodes else 0,
            "max_out_degree": int(degrees.max()) if self.n_nodes else 0,
        }

    def __repr__(self):
        return (f"Graph({self.name!r}, N={self.n_nodes:,}, "
                f"M={self.n_edges:,}{', weighted' if self.weighted else ''})")
