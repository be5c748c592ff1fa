"""Per-window directed multigraphs.

Each time window becomes a graph over the full node id space: parallel
arrays of edge sources and destinations, one row per call.  Repeated calls
stay repeated (multigraph), and are also coalesced once into distinct pairs
with call counts, which answer whether a pair is a call.  Node features are
the identity matrix by convention, kept implicit: with X = I the first-layer
transform XW is just W, so no n_nodes x n_nodes array is ever materialized.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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

    def is_call(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Whether each (src, dst) is a call of this window; ids must lie in
        [0, n_nodes), where codes are unique."""
        codes = src * self.n_nodes + dst
        if not self.pair_codes.size:
            return np.zeros(codes.shape, dtype=bool)
        idx = np.minimum(np.searchsorted(self.pair_codes, codes), self.pair_codes.size - 1)
        return self.pair_codes[idx] == codes


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
