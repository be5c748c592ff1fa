"""Negative-edge samplers and the regime chooser."""
from __future__ import annotations

import numpy as np
import pytest

from tracelink.errors import ConfigError, SamplingError
from tracelink.graph import build_graph, degree_counts
from tracelink.preprocess import TimeWindow
from tracelink.sampling import (
    DEFAULT_ALPHA,
    SamplingKind,
    SamplingStrategy,
    advanced_negative_sample,
    analyze_sampling,
    degree_source_distribution,
    draw_negatives,
    simple_negative_sample,
)


def graph_of(pairs, n_nodes):
    src, dst = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return build_graph(TimeWindow(0, 0, 100, src, dst, np.arange(len(src), dtype=np.int64)), n_nodes)


# ---------------------------------------------------------------------------
# strategy selection

def test_strategy_fills_default_alpha_for_advanced():
    assert SamplingStrategy(SamplingKind.ADVANCED).alpha == 0.1
    for kind in (SamplingKind.NONE, SamplingKind.SIMPLE):
        assert SamplingStrategy(kind).alpha is None


def test_analyze_balanced_boundary():
    # 10 nodes -> 90 ordered pairs; 40 positives leave 50 negatives, ratio 0.8
    assert analyze_sampling(40, 10).kind is SamplingKind.NONE
    assert analyze_sampling(39, 10).kind is SamplingKind.SIMPLE


def test_analyze_moderate_boundary():
    # 101 nodes -> 10100 ordered pairs; 100 positives give ratio exactly 0.01
    assert analyze_sampling(100, 101).kind is SamplingKind.SIMPLE
    assert analyze_sampling(99, 101).kind is SamplingKind.ADVANCED


def test_analyze_saturated_graph_needs_no_sampling():
    assert analyze_sampling(2, 2).kind is SamplingKind.NONE


def test_analyze_rejects_degenerate_inputs():
    with pytest.raises(ConfigError):
        analyze_sampling(0, 1)
    with pytest.raises(ConfigError):
        analyze_sampling(-1, 10)


# ---------------------------------------------------------------------------
# source distribution

def test_degree_distribution_linear_alpha():
    p = degree_source_distribution(np.array([2, 1, 1]), alpha=1.0)
    assert np.allclose(p, [0.5, 0.25, 0.25])


def test_degree_distribution_alpha_zero_is_uniform_even_for_isolated():
    p = degree_source_distribution(np.array([0, 5, 0]), alpha=0.0)
    assert np.allclose(p, [1 / 3, 1 / 3, 1 / 3])


def test_degree_distribution_isolated_nodes_excluded_when_alpha_positive():
    p = degree_source_distribution(np.array([0, 1, 3]), alpha=1.0)
    assert p[0] == 0.0
    assert np.allclose(p, [0.0, 0.25, 0.75])


def test_degree_distribution_all_isolated_is_an_error():
    with pytest.raises(SamplingError):
        degree_source_distribution(np.zeros(4), alpha=1.0)


def test_degree_distribution_rejects_bad_alpha():
    with pytest.raises(ConfigError):
        degree_source_distribution(np.array([1.0]), alpha=-1.0)


# ---------------------------------------------------------------------------
# simple sampler

def test_simple_sampler_finds_the_only_missing_pair():
    rng = np.random.default_rng(0)
    out = simple_negative_sample(graph_of([(0, 1)], 2), rng)
    assert out.tolist() == [[1, 0]]
    assert len(out) == 1


def test_simple_sampler_raises_when_space_exhausted():
    # two instances of the one edge ask for two negatives; one non-edge exists
    rng = np.random.default_rng(0)
    with pytest.raises(SamplingError):
        simple_negative_sample(graph_of([(0, 1), (0, 1)], 2), rng)


def test_simple_sampler_self_loops_never_reduce_room():
    # a recorded self-loop is outside the candidate space anyway
    rng = np.random.default_rng(1)
    out = simple_negative_sample(graph_of([(0, 0), (0, 0)], 2), rng)
    assert sorted(map(tuple, out.tolist())) == [(0, 1), (1, 0)]


def test_simple_sampler_draws_independently():
    # seed 10 produces the same pair twice out of a 2-candidate space,
    # which sampling without replacement could never do
    rng = np.random.default_rng(10)
    out = simple_negative_sample(graph_of([(0, 0), (1, 1)], 2), rng)
    assert out.tolist() == [[1, 0], [1, 0]]


def test_simple_sampler_respects_exclusions_in_bulk():
    rng = np.random.default_rng(7)
    existing = {(0, 1), (1, 2), (2, 3), (3, 0), (4, 4)}
    out = simple_negative_sample(graph_of(sorted(existing) * 4, 6), rng)
    assert out.shape == (20, 2)
    for s, d in out.tolist():
        assert s != d
        assert (s, d) not in existing


# ---------------------------------------------------------------------------
# advanced sampler

def test_advanced_sampler_one_negative_per_edge_instance():
    g = graph_of([(0, 1), (0, 1), (1, 2)], 5)  # parallel edge counts twice
    out = advanced_negative_sample(g, DEFAULT_ALPHA, np.random.default_rng(3))
    assert out.shape == (3, 2)


def test_advanced_sampler_empty_graph_yields_empty():
    g = graph_of([], 4)
    out = advanced_negative_sample(g, DEFAULT_ALPHA, np.random.default_rng(0))
    assert out.shape == (0, 2)


def test_advanced_sampler_excludes_existing_reverse_and_self():
    pairs = [(0, 1), (1, 2), (2, 0), (3, 1)]
    g = graph_of(pairs * 5, 8)
    existing = set(pairs)
    reversed_pairs = {(d, s) for s, d in existing}
    for seed in range(10):
        out = advanced_negative_sample(g, alpha=0.1,
                                       rng=np.random.default_rng(seed))
        for s, d in out.tolist():
            assert s != d
            assert (s, d) not in existing
            assert (s, d) not in reversed_pairs


def test_advanced_sampler_never_draws_isolated_sources():
    # nodes 5..9 appear in no edge, so their degree weight is 0 for alpha>0
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    g = graph_of(pairs * 40, 10)
    out = advanced_negative_sample(g, alpha=0.1,
                                   rng=np.random.default_rng(11))
    assert out[:, 0].max() < 5
    assert out[:, 1].max() >= 5  # destinations stay uniform over everyone


def test_advanced_sampler_degree_bias_is_visible():
    # node 0 carries 45% of the total degree; with alpha=1 its share of the
    # drawn sources should sit near that, far above the uniform 1/40
    pairs = ([(0, i % 4 + 1) for i in range(18)] + [(1, 2), (2, 3)]) * 10
    g = graph_of(pairs, 40)
    out = advanced_negative_sample(g, alpha=1.0,
                                   rng=np.random.default_rng(5))
    share0 = (out[:, 0] == 0).mean()
    assert 0.3 < share0 < 0.6


def test_advanced_sampler_gives_up_on_saturated_graph():
    # complete directed triangle: every ordered pair already exists
    pairs = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]
    g = graph_of(pairs, 3)
    with pytest.raises(SamplingError):
        advanced_negative_sample(g, DEFAULT_ALPHA, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# dispatcher

def test_draw_negatives_none_is_empty():
    g = graph_of([(0, 1)], 3)
    out = draw_negatives(SamplingStrategy(SamplingKind.NONE), g,
                         np.random.default_rng(0))
    assert out.shape == (0, 2)


def test_draw_negatives_matches_positive_count():
    g = graph_of([(0, 1), (1, 2), (0, 1)], 6)
    rng = np.random.default_rng(2)
    for kind in (SamplingKind.SIMPLE, SamplingKind.ADVANCED):
        out = draw_negatives(SamplingStrategy(kind), g, rng)
        assert out.shape == (3, 2)


# ---------------------------------------------------------------------------
# set-based reference: the samplers as they were written over Python sets of
# (src, dst) tuples, kept to pin the array samplers' draws

def set_codes(pairs, n):
    return np.array(sorted(s * n + d for s, d in pairs), dtype=np.int64)


def set_member(codes, queries):
    return np.isin(queries, codes)


def set_simple(existing, n, k, rng):
    ex_codes = set_codes(existing, n)
    out = np.empty((k, 2), dtype=np.int64)
    filled = 0
    while filled < k:
        src = rng.integers(0, n, size=k - filled)
        dst = rng.integers(0, n, size=k - filled)
        ok = (src != dst) & ~set_member(ex_codes, src * n + dst)
        out[filled : filled + ok.sum()] = np.stack([src[ok], dst[ok]], axis=1)
        filled += int(ok.sum())
    return out


def set_advanced(graph, existing, alpha, rng):
    n, k = graph.n_nodes, graph.n_edges
    cum = np.cumsum(degree_source_distribution(degree_counts(graph), alpha))
    cum[-1] = 1.0
    ex_codes = set_codes(existing, n)
    rev_codes = set_codes({(d, s) for s, d in existing}, n)
    out = np.empty((k, 2), dtype=np.int64)
    filled = 0
    for _ in range(10 * n):
        if filled == k:
            return out
        src = np.searchsorted(cum, rng.random(k - filled), side="right")
        dst = rng.integers(0, n, size=k - filled)
        codes = src * n + dst
        ok = (src != dst) & ~set_member(ex_codes, codes) & ~set_member(rev_codes, codes)
        out[filled : filled + ok.sum()] = np.stack([src[ok], dst[ok]], axis=1)
        filled += int(ok.sum())
    return out if filled == k else None


@pytest.mark.parametrize("seed", range(30))
def test_array_samplers_draw_what_the_set_based_ones_did(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 25))
    pairs = rng.integers(0, n, size=(int(rng.integers(1, 3 * n)), 2))
    g = graph_of(np.concatenate([pairs, pairs[: len(pairs) // 3]]), n)  # duplicates
    existing = {(int(s), int(d)) for s, d in pairs}
    k = g.n_edges
    if k <= n * (n - 1) - sum(1 for s, d in existing if s != d):
        simple = simple_negative_sample(g, np.random.default_rng(seed))
        assert np.array_equal(simple, set_simple(existing, n, k, np.random.default_rng(seed)))
    alpha = float(rng.uniform(0, 1))
    want = set_advanced(g, existing, alpha, np.random.default_rng(seed))
    if want is None:
        with pytest.raises(SamplingError):
            advanced_negative_sample(g, alpha, np.random.default_rng(seed))
    else:
        assert np.array_equal(advanced_negative_sample(g, alpha, np.random.default_rng(seed)), want)


@pytest.mark.parametrize("seed", range(10))
def test_repeated_draws_from_one_window_depend_only_on_their_generator(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 25))
    g = graph_of(rng.integers(0, n, size=(int(rng.integers(1, 2 * n)), 2)), n)
    alpha = float(rng.uniform(0, 1))
    first = [advanced_negative_sample(g, alpha, np.random.default_rng([seed, draw])) for draw in range(3)]
    for draw in reversed(range(3)):  # training draws from each window once an epoch
        assert np.array_equal(advanced_negative_sample(g, alpha, np.random.default_rng([seed, draw])), first[draw])
