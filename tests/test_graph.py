"""Per-window multigraph construction."""
from __future__ import annotations

import numpy as np
import pytest

from tracelink.errors import GraphError
from tracelink.graph import (
    WindowedGraph,
    build_graph,
    degree_counts,
)
from tracelink.preprocess import TimeWindow


def make_window(triples, start=0, end=100, index=0):
    src, dst, ts = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    return TimeWindow(index, start, end, src, dst, ts)


def test_build_graph_keeps_parallel_edges():
    w = make_window([(0, 1, 5), (0, 1, 9), (1, 2, 12)])
    g = build_graph(w, n_nodes=3)
    assert g.n_edges == 3
    assert g.edge_src.tolist() == [0, 0, 1]
    assert g.edge_dst.tolist() == [1, 1, 2]


def test_build_graph_empty_window():
    g = build_graph(make_window([]), n_nodes=4)
    assert g.n_edges == 0
    assert g.edge_src.dtype == np.int64


def test_build_graph_rejects_out_of_range_ids():
    with pytest.raises(GraphError):
        build_graph(make_window([(0, 3, 1)]), n_nodes=3)
    with pytest.raises(GraphError):
        build_graph(make_window([(-1, 0, 1)]), n_nodes=3)


def test_build_graph_coalesces_duplicates():
    g = build_graph(make_window([(2, 0, 1), (0, 1, 5), (0, 1, 9), (2, 2, 9)]), n_nodes=3)
    assert g.pair_codes.tolist() == [1, 6, 8]  # src * 3 + dst, sorted
    assert g.pair_src.tolist() == [0, 2, 2]
    assert g.pair_dst.tolist() == [1, 0, 2]
    assert g.pair_count.tolist() == [2.0, 1.0, 1.0]
    assert g.n_edges == 4  # instances stay as they were
    empty = build_graph(make_window([]), n_nodes=3)
    assert empty.pair_codes.size == empty.pair_count.size == 0


def test_degree_counts_sum_to_twice_edges():
    g = build_graph(make_window([(0, 1, 1), (0, 1, 2), (1, 2, 3)]), n_nodes=4)
    deg = degree_counts(g)
    # node 0: two outgoing; node 1: two incoming + one outgoing; node 2: one in
    assert deg.tolist() == [2, 3, 1, 0]
    assert deg.sum() == 2 * g.n_edges


def test_self_loop_counts_twice_in_degree():
    g = build_graph(make_window([(1, 1, 0)]), n_nodes=2)
    assert degree_counts(g).tolist() == [0, 2]


def test_graph_is_plain_dataclass():
    g = WindowedGraph(
        n_nodes=2,
        edge_src=np.array([0], dtype=np.int64),
        edge_dst=np.array([1], dtype=np.int64),
    )
    assert g.n_edges == 1
    assert g.pair_src.tolist() == [0] and g.pair_count.tolist() == [1.0]



# ---------------------------------------------------------------------------
# is_call against a set of (src, dst) tuples

def assert_is_call_matches_set(calls, n):
    g = build_graph(make_window([(s, d, 0) for s, d in calls]), n_nodes=n)
    existing = set(map(tuple, calls))
    src, dst = np.divmod(np.arange(n * n, dtype=np.int64), n)  # every ordered pair, self-loops too
    pairs = list(zip(src.tolist(), dst.tolist()))
    assert g.is_call(src, dst).tolist() == [(s, d) in existing for s, d in pairs]
    assert g.is_call(dst, src).tolist() == [(d, s) in existing for s, d in pairs]  # the reverses


def test_is_call_on_an_empty_graph():
    assert_is_call_matches_set([], 4)


def test_is_call_with_repeats_and_a_self_loop():
    assert_is_call_matches_set([(2, 0), (0, 1), (0, 1), (2, 2)], 3)


@pytest.mark.parametrize("seed", range(20))
def test_is_call_matches_a_set_of_pairs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    assert_is_call_matches_set(rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2)).tolist(), n)
