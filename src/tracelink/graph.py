"""Per-window directed multigraphs.

Each time window becomes a graph over the full node id space: parallel
arrays of edge sources and destinations, one row per call.  Repeated calls
stay repeated (multigraph), and are also coalesced once into distinct pairs
with call counts.  Whether a pair is a call is read from a boolean table
over the window's active nodes, built per query batch and never stored on
the graph (`WindowedGraph.call_lookup`).  Node features are
the identity matrix by convention, kept implicit: with X = I the first-layer
transform XW is just W, so no n_nodes x n_nodes array is ever materialized.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import GraphError
from .preprocess import TimeWindow


@dataclass
class WindowedGraph:
    """Directed multigraph for one window, over ids 0..n_nodes-1.

    `edge_*` hold one row per call.  `pair_codes` are the distinct codes
    src * n_nodes + dst, sorted, `pair_src`/`pair_dst`/`pair_count` (float)
    their pairs and call counts.
    """

    n_nodes: int
    edge_src: np.ndarray
    edge_dst: np.ndarray
    pair_codes: np.ndarray = field(init=False, repr=False)
    pair_count: np.ndarray = field(init=False, repr=False)
    pair_src: np.ndarray = field(init=False, repr=False)
    pair_dst: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.n_nodes
        self.pair_codes, counts = np.unique(self.edge_src * n + self.edge_dst, return_counts=True)
        self.pair_count = counts.astype(np.float64)
        self.pair_src, self.pair_dst = np.divmod(self.pair_codes, n)

    @property
    def n_edges(self) -> int:
        return int(self.edge_src.shape[0])

    def call_lookup(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """A function telling whether each (src, dst) is a call of this
        window; ids must lie in [0, n_nodes).

        Every call joins two active nodes, those that send or receive one.
        So the answer is one read of a boolean table over the m active nodes
        plus one spare rank, to which every other id maps and whose row and
        column are all False: (m + 1)^2 bytes and n ranks, ~27 KB and 16 KB
        for the busiest window of a 2,000-service fleet (162 active nodes,
        seed 0).  The table lives as long as the function, so a caller that
        asks many times (a sampler's rejection rounds, both directions of a
        pair) builds it once.
        """
        active = np.zeros(self.n_nodes, dtype=bool)
        active[self.pair_src] = active[self.pair_dst] = True
        nodes = np.flatnonzero(active)
        width = len(nodes) + 1
        rank = np.full(self.n_nodes, len(nodes))
        rank[nodes] = np.arange(len(nodes))
        table = np.zeros(width * width, dtype=bool)
        table[rank[self.pair_src] * width + rank[self.pair_dst]] = True
        return lambda src, dst: table[rank[src] * width + rank[dst]]

    def is_call(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Whether each (src, dst) is a call of this window (`call_lookup`,
        for one question)."""
        return self.call_lookup()(src, dst)


def build_graph(window: TimeWindow, n_nodes: int) -> WindowedGraph:
    """Wrap the window's event columns as edge arrays; ids must be in range."""
    if n_nodes <= 0:
        raise GraphError(f"graph needs a positive node count, got {n_nodes}")
    src = np.asarray(window.src, dtype=np.int64)
    dst = np.asarray(window.dst, dtype=np.int64)
    if src.size:
        low = min(src.min(), dst.min())
        high = max(src.max(), dst.max())
        if low < 0 or high >= n_nodes:
            bad = high if high >= n_nodes else low
            raise GraphError(
                f"edge references node id {bad} outside the known range [0, {n_nodes})"
            )
    return WindowedGraph(n_nodes, src, dst)


def degree_counts(graph: WindowedGraph) -> np.ndarray:
    """Total degree (in + out, multiplicity counted) per node id.

    Sums to exactly twice the edge count.
    """
    out_deg = np.bincount(graph.edge_src, minlength=graph.n_nodes)
    in_deg = np.bincount(graph.edge_dst, minlength=graph.n_nodes)
    return (out_deg + in_deg).astype(np.int64)
