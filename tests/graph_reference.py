"""The pair-code call test, kept as the reference for
`graph.WindowedGraph.call_lookup`.

It answers whether (src, dst) is a call by a binary search for the code
src * n + dst in the window's sorted distinct pair codes.  The production
lookup reads a boolean table over the window's active nodes instead;
`test_sampling` requires both samplers to draw the same arrays through
either.
"""
from __future__ import annotations

import numpy as np

from tracelink.graph import WindowedGraph


def call_lookup(graph: WindowedGraph):
    """A function telling whether each (src, dst) is a call of `graph`; ids
    must lie in [0, n_nodes), where codes are unique."""
    pair_codes = graph.pair_codes

    def is_call(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        codes = src * graph.n_nodes + dst
        if not pair_codes.size:
            return np.zeros(codes.shape, dtype=bool)
        idx = np.minimum(np.searchsorted(pair_codes, codes), pair_codes.size - 1)
        return pair_codes[idx] == codes

    return is_call
