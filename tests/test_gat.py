"""Attention network: forward pass, loss, gradients, optimizer, training."""
from __future__ import annotations

import contextlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import tracelink
from tracelink import autodiff as ad
from tracelink import gat
from tracelink.autodiff import Tensor
from tracelink.errors import CheckpointError, LossError, ModelError, TracelinkError, TrainingError
from tracelink.gat import (
    _head_rows,
    _link_loss,
    _message_rows,
    _scores_through_gram,
    AdamState,
    GatParams,
    LayerParams,
    attention_coefficients,
    bce_loss,
    compute_gradients,
    init_adam_state,
    init_params,
    link_probability,
    load_checkpoint,
    model_forward,
    optimizer_step,
    save_checkpoint,
    train,
)
from tracelink.graph import build_graph
from tracelink.preprocess import TimeWindow, apply_mapping, build_node_mapping, segment_windows
from tracelink.sampling import SamplingKind, SamplingStrategy, draw_negatives
from tracelink.seeding import derive_rng
from tracelink.synth import WINDOW_HINT, SynthConfig, generate_trace

import tape_reference as ref


def graph_of(pairs, n_nodes):
    return build_graph(window_of(pairs), n_nodes)


def window_of(pairs, n_nodes=None, index=0):
    src, dst = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return TimeWindow(index, 0, 100, src, dst, np.arange(len(src), dtype=np.int64))


# ---------------------------------------------------------------------------
# dense oracles: slow, loopy recomputations of the attention formulas

def with_self_loops(src, dst, n):
    loops = np.arange(n, dtype=np.int64)
    return np.concatenate([src, loops]), np.concatenate([dst, loops])


def dense_attention(weights, atts, features, graph):
    """Per-position softmax coefficients, one destination at a time."""
    n = graph.n_nodes
    src, dst = with_self_loops(graph.edge_src, graph.edge_dst, n)
    coeffs = np.zeros((len(src), len(weights)))
    for k, (w, a) in enumerate(zip(weights, atts)):
        wh = features @ w
        raw = np.empty(len(src))
        for e, (s, d) in enumerate(zip(src, dst)):
            z = np.concatenate([wh[d], wh[s]]) @ a  # destination half first
            raw[e] = z if z >= 0 else 0.2 * z
        for i in range(n):
            mask = dst == i
            ex = np.exp(raw[mask] - raw[mask].max())
            coeffs[mask, k] = ex / ex.sum()
    return coeffs


def dense_layer(weights, atts, features, graph):
    n = graph.n_nodes
    src, dst = with_self_loops(graph.edge_src, graph.edge_dst, n)
    coeffs = dense_attention(weights, atts, features, graph)
    outs = []
    for k, w in enumerate(weights):
        wh = features @ w
        out = np.zeros((n, w.shape[1]))
        for e, (s, d) in enumerate(zip(src, dst)):
            out[d] += coeffs[e, k] * wh[s]
        outs.append(out)
    return np.concatenate(outs, axis=1)


def random_layer(rng, n, fan_in, hidden, heads):
    return LayerParams(
        [rng.normal(size=(fan_in, hidden)) for _ in range(heads)],
        [rng.normal(size=2 * hidden) for _ in range(heads)],
    )


def grads_like(params, value):
    return GatParams(
        LayerParams(
            [np.full_like(w, value) for w in params.layer1.weights],
            [np.full_like(a, value) for a in params.layer1.att],
        ),
        LayerParams(
            [np.full_like(params.layer2.weights[0], value)],
            [np.full_like(params.layer2.att[0], value)],
        ),
    )


# ---------------------------------------------------------------------------
# initialization

def test_init_shapes():
    params = init_params(10, 8, 2, np.random.default_rng(0))
    assert [w.shape for w in params.layer1.weights] == [(10, 8), (10, 8)]
    assert [a.shape for a in params.layer1.att] == [(16,), (16,)]
    assert params.layer2.weights[0].shape == (16, 8)
    assert params.layer2.att[0].shape == (16,)
    assert params.dims == params.dims  # dataclass sanity


def test_init_minimal_shapes():
    params = init_params(3, 1, 1, np.random.default_rng(0))
    assert params.layer1.weights[0].shape == (3, 1)
    assert params.layer1.att[0].shape == (2,)


def test_init_deterministic_under_seed():
    a = init_params(6, 4, 2, np.random.default_rng(42))
    b = init_params(6, 4, 2, np.random.default_rng(42))
    for x, y in zip(a.layer1.weights + a.layer1.att, b.layer1.weights + b.layer1.att):
        assert np.array_equal(x, y)
    assert np.array_equal(a.layer2.weights[0], b.layer2.weights[0])


def test_init_respects_glorot_bounds():
    params = init_params(50, 16, 2, np.random.default_rng(1))
    limit1 = math.sqrt(6 / (50 + 16))
    assert all(np.abs(w).max() <= limit1 for w in params.layer1.weights)
    limit2 = math.sqrt(6 / (32 + 16))
    assert np.abs(params.layer2.weights[0]).max() <= limit2


def test_init_rejects_bad_dims():
    with pytest.raises(ModelError):
        init_params(0, 4, 2, np.random.default_rng(0))
    with pytest.raises(ModelError):
        init_params(5, 4, 0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# attention coefficients

def test_attention_self_loop_only_is_one():
    rng = np.random.default_rng(2)
    layer = random_layer(rng, 4, 3, 2, 2)
    record = attention_coefficients(layer, rng.normal(size=(4, 3)), graph_of([], 4))
    assert np.allclose(record.coeffs, 1.0)


def test_attention_identical_neighbors_split_evenly():
    layer = LayerParams([np.eye(3)], [np.arange(6, dtype=float)])
    features = np.tile([0.3, -0.7, 1.1], (3, 1))  # all nodes identical
    record = attention_coefficients(layer, features, graph_of([(1, 0), (2, 0)], 3))
    # destination 0 sees {1, 2, itself}, all indistinguishable
    dst0 = record.coeffs[record.edge_dst == 0, 0]
    assert len(dst0) == 3
    assert np.allclose(dst0, 1 / 3)


def test_attention_matches_dense_oracle():
    rng = np.random.default_rng(3)
    g = graph_of([(0, 1), (1, 2), (2, 3), (3, 0), (0, 1), (4, 1), (5, 5)], 6)
    layer = random_layer(rng, 6, 5, 3, 2)
    features = rng.normal(size=(6, 5))
    record = attention_coefficients(layer, features, g)
    oracle = dense_attention(layer.weights, layer.att, features, g)
    assert record.coeffs.shape == oracle.shape == (7 + 6, 2)
    assert np.allclose(record.coeffs, oracle, atol=1e-12)


def merged_multigraph(rng, n):
    """A few pairs (self-loops allowed), each called often enough that
    merging at least halves a head's rows."""
    pool = rng.integers(0, n, size=(int(rng.integers(1, n + 1)), 2))
    calls = rng.integers(0, len(pool), size=2 * len(pool) + n + int(rng.integers(0, 3 * n)))
    return graph_of(pool[calls], n)


def test_rows_merge_only_when_that_halves_them():
    # 3 nodes: one pair called c times has 1 + 3 merged rows against c + 3
    for calls, merged in ((4, False), (5, True)):
        src, dst, counts = _message_rows(graph_of([(0, 1)] * calls, 3))
        assert (src.tolist(), dst.tolist()) == (([0], [1]) if merged else ([0] * calls, [1] * calls))
        assert counts.tolist() == ([float(calls)] if merged else [1.0] * calls)


def per_pair(graph, instance_values):
    """Sum per-instance rows (edge instances, then self-loops) onto the
    merged layout: the graph's distinct pairs, then self-loops."""
    pair_codes = graph.pair_src * graph.n_nodes + graph.pair_dst
    codes = graph.edge_src * graph.n_nodes + graph.edge_dst
    rows = np.concatenate([np.searchsorted(pair_codes, codes), len(pair_codes) + np.arange(graph.n_nodes)])
    out = np.zeros((len(pair_codes) + graph.n_nodes,) + instance_values.shape[1:])
    np.add.at(out, rows, instance_values)
    return out


@pytest.mark.parametrize("seed", range(20))
def test_pair_coefficients_sum_instance_coefficients(seed):
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(2, 9))
    g = merged_multigraph(rng, n)
    layer = random_layer(rng, n, 3, 2, 1 + seed % 3)
    features = rng.normal(size=(n, 3))
    record = attention_coefficients(layer, features, g)
    oracle = per_pair(g, dense_attention(layer.weights, layer.att, features, g))
    assert record.edge_src.tolist() == g.pair_src.tolist() + list(range(n))
    assert record.edge_dst.tolist() == g.pair_dst.tolist() + list(range(n))
    np.testing.assert_allclose(record.coeffs, oracle, rtol=1e-12, atol=1e-15)


def test_attention_rows_sum_to_one_per_destination():
    rng = np.random.default_rng(4)
    g = graph_of([(0, 1), (2, 1), (2, 1), (3, 0), (1, 4)], 5)
    layer = random_layer(rng, 5, 4, 3, 2)
    record = attention_coefficients(layer, rng.normal(size=(5, 4)), g)
    for i in range(5):
        sums = record.coeffs[record.edge_dst == i].sum(axis=0)
        assert np.allclose(sums, 1.0, atol=1e-6)


def test_attention_rejects_mismatched_features():
    layer = LayerParams([np.eye(3)], [np.zeros(6)])
    with pytest.raises(ModelError):
        attention_coefficients(layer, np.zeros((4, 7)), graph_of([], 4))


# ---------------------------------------------------------------------------
# full model forward

def test_forward_zero_weights_give_zero_embeddings():
    params = init_params(4, 3, 2, np.random.default_rng(0))
    for arr in params.layer1.weights + params.layer1.att:
        arr[:] = 0.0
    params.layer2.weights[0][:] = 0.0
    params.layer2.att[0][:] = 0.0
    emb, _ = model_forward(params, graph_of([(0, 1), (1, 2)], 4))
    assert np.array_equal(emb, np.zeros((4, 3)))


def test_forward_shape_and_record():
    params = init_params(5, 8, 2, np.random.default_rng(1))
    g = graph_of([(0, 1), (1, 2), (2, 3)], 5)
    emb, record = model_forward(params, g)
    assert emb.shape == (5, 8)
    assert record.coeffs.shape == (3 + 5, 2)
    assert np.isfinite(emb).all()


def test_layer_identity_on_isolated_nodes():
    # A node with no incoming edge attends only to itself (alpha = 1), so
    # each layer passes its transformed features through unchanged.
    rng = np.random.default_rng(5)
    params = init_params(5, 3, 1, rng)
    emb, _ = model_forward(params, graph_of([(0, 1), (1, 2)], 5))
    x2 = np.where(params.layer1.weights[0] > 0, params.layer1.weights[0],
                  np.expm1(params.layer1.weights[0]))
    untouched = [0, 3, 4]
    assert np.allclose(emb[untouched], (x2 @ params.layer2.weights[0])[untouched], atol=1e-12)


def test_layer_concat_dimension():
    # Layer 2 reads the layer-1 heads side by side: (n, heads * hidden).
    params = init_params(6, 4, 2, np.random.default_rng(7))
    emb, _ = model_forward(params, graph_of([], 6))
    h1 = np.hstack(params.layer1.weights)
    assert h1.shape == (6, 8) and params.layer2.weights[0].shape == (8, 4)
    x2 = np.where(h1 > 0, h1, np.expm1(h1))
    assert emb.shape == (6, 4)
    assert np.allclose(emb, x2 @ params.layer2.weights[0], atol=1e-12)


def test_layer_matches_dense_oracle():
    rng = np.random.default_rng(6)
    g = graph_of([(0, 1), (1, 2), (2, 0), (3, 1), (0, 1)], 5)
    params = init_params(5, 3, 2, rng)
    for arr in params.layer1.weights + params.layer1.att + params.layer2.weights + params.layer2.att:
        arr[:] = rng.normal(size=arr.shape)
    emb, _ = model_forward(params, g)
    h1 = dense_layer(params.layer1.weights, params.layer1.att, np.eye(5), g)
    x2 = np.where(h1 > 0, h1, np.expm1(h1))  # ELU between the layers
    oracle = dense_layer(params.layer2.weights, params.layer2.att, x2, g)
    assert np.allclose(emb, oracle, atol=1e-10)


def test_forward_rejects_wrong_node_count():
    params = init_params(5, 4, 2, np.random.default_rng(2))
    with pytest.raises(ModelError):
        model_forward(params, graph_of([(0, 1)], 6))


def test_forward_for_scored_nodes_keeps_their_bits():
    # Layer 2's input is computed on the scored and the active nodes alone:
    # those rows keep the bits of the every-row forward and the rest are zero.
    n = 200
    params = init_params(n, 64, 2, np.random.default_rng(31))
    g = graph_of([(0, 1), (1, 2), (2, 0)], n)
    full, full_record = model_forward(params, g)
    emb, record = model_forward(params, g, np.array([[5, 150], [7, 0]]))
    used = [0, 1, 2, 5, 7, 150]
    assert np.array_equal(emb[used], full[used])
    assert not np.delete(emb, used, axis=0).any()
    assert np.array_equal(record.coeffs, full_record.coeffs)
    every, _ = model_forward(params, g, np.arange(n))
    assert np.array_equal(every, full)
    # one row alone: a self-call scored by itself
    g = graph_of([(4, 4)], n)
    assert np.array_equal(model_forward(params, g, [4])[0][4], model_forward(params, g)[0][4])
    with pytest.raises(ModelError, match=r"\[0, 200\)"):
        model_forward(params, g, [0, n])


def test_forward_permutation_equivariance():
    rng = np.random.default_rng(8)
    n = 7
    params = init_params(n, 3, 2, rng)
    pairs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 1)]
    emb, _ = model_forward(params, graph_of(pairs, n))

    perm = np.array([3, 5, 0, 6, 1, 2, 4])  # old id -> new id
    permuted = init_params(n, 3, 2, np.random.default_rng(8))
    for w_new, w_old in zip(permuted.layer1.weights, params.layer1.weights):
        w_new[perm] = w_old  # identity features select rows, so rows move
    emb_p, _ = model_forward(permuted, graph_of([(perm[s], perm[d]) for s, d in pairs], n))
    assert np.array_equal(emb_p[perm], emb)


# ---------------------------------------------------------------------------
# link scoring

def test_link_probability_half_for_zero_or_orthogonal():
    emb = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    assert link_probability(emb, np.array([0, 1]), np.array([1, 2])).tolist() == [0.5, 0.5]


def test_link_probability_sigma_ln3():
    h = math.sqrt(math.log(3) / 2)
    emb = np.array([[h, h], [h, h]])
    assert abs(link_probability(emb, np.array([0]), np.array([1]))[0] - 0.75) < 1e-12


def test_link_probability_vectorized_matches_scalar():
    rng = np.random.default_rng(9)
    emb = rng.normal(size=(6, 4))
    src = np.array([0, 2, 5])
    dst = np.array([1, 3, 4])
    vec = link_probability(emb, src, dst)
    assert vec.shape == (3,)
    for i in range(3):  # each pair scored on its own
        assert vec[i] == link_probability(emb, src[i:i + 1], dst[i:i + 1])[0]


def test_link_probability_stable_at_extremes():
    # moderate magnitudes stay strictly inside (0, 1)
    emb = np.array([[30.0], [1.0], [-1.0]])
    low, high = link_probability(emb, np.array([0, 0]), np.array([2, 1]))
    assert 0.0 < low < 0.5 < high < 1.0
    # huge magnitudes saturate cleanly instead of overflowing
    big = np.array([[1e3], [1e3], [-1e3]])
    assert link_probability(big, np.array([0, 0]), np.array([1, 2])).tolist() == [1.0, 0.0]


# ---------------------------------------------------------------------------
# loss

def test_bce_perfect_prediction_near_zero():
    loss = bce_loss(np.array([1.0 - 1e-7]), np.array([1e-7]))
    assert loss < 1e-6


def test_bce_coin_flip_is_ln2():
    loss = bce_loss(np.full(3, 0.5), np.full(5, 0.5))
    assert abs(loss - math.log(2)) < 1e-12


def test_bce_hand_computed_example():
    loss = bce_loss(np.array([0.9]), np.array([0.4]))
    assert abs(loss - (-(math.log(0.9) + math.log(0.6)) / 2)) < 1e-12
    assert abs(loss - 0.308) < 1e-3


def test_bce_clamps_exact_zero_and_one():
    loss = bce_loss(np.array([0.0]), np.array([1.0]))
    assert np.isfinite(loss)
    assert loss == pytest.approx(-math.log(1e-7), rel=1e-6)


def test_bce_requires_some_pairs():
    with pytest.raises(LossError):
        bce_loss(np.array([]), np.array([]))
    assert bce_loss(np.array([0.5]), np.array([])) == pytest.approx(math.log(2))


# ---------------------------------------------------------------------------
# gradients

def test_gradients_dead_parameter_rows_are_zero():
    # node 3 touches no edge and no scored pair; with identity features its
    # layer-1 weight rows influence nothing but its own (unused) embedding
    params = init_params(4, 3, 2, np.random.default_rng(10))
    g = graph_of([(0, 1), (1, 2)], 4)
    pos = np.array([[0, 1], [1, 2]])
    neg = np.array([[2, 0]])
    grads, loss, _ = compute_gradients(params, g, pos, neg)
    assert loss > 0
    for gw in grads.layer1.weights:
        assert np.array_equal(gw[3], np.zeros(3))
        assert np.abs(gw[:3]).sum() > 0  # live rows do move


def test_gradients_invariant_under_duplication():
    params = init_params(5, 4, 2, np.random.default_rng(11))
    g = graph_of([(0, 1), (1, 2), (2, 3)], 5)
    pos = np.array([[0, 1], [1, 2]])
    neg = np.array([[3, 0]])
    g1, l1, _ = compute_gradients(params, g, pos, neg)
    g2, l2, _ = compute_gradients(params, g, np.tile(pos, (2, 1)), np.tile(neg, (2, 1)))
    assert l1 == pytest.approx(l2, abs=1e-12)
    for a, b in zip(
        g1.layer1.weights + g1.layer1.att + g1.layer2.weights + g1.layer2.att,
        g2.layer1.weights + g2.layer1.att + g2.layer2.weights + g2.layer2.att,
    ):
        assert np.allclose(a, b, atol=1e-12)


def test_gradients_loss_agrees_with_plain_forward():
    params = init_params(6, 4, 2, np.random.default_rng(12))
    g = graph_of([(0, 1), (1, 2), (3, 4), (4, 5)], 6)
    pos = np.stack([g.edge_src, g.edge_dst], axis=1)
    neg = np.array([[5, 0], [2, 4]])
    _, loss, _ = compute_gradients(params, g, pos, neg)
    emb, _ = model_forward(params, g)
    expected = bce_loss(
        link_probability(emb, pos[:, 0], pos[:, 1]),
        link_probability(emb, neg[:, 0], neg[:, 1]),
    )
    assert loss == pytest.approx(expected, abs=1e-12)


def test_gradients_match_finite_differences_spot_check():
    params = init_params(5, 3, 2, np.random.default_rng(13))
    g = graph_of([(0, 1), (1, 2), (2, 3), (3, 4)], 5)
    pos = np.stack([g.edge_src, g.edge_dst], axis=1)
    neg = np.array([[4, 1], [0, 3]])
    grads, _, _ = compute_gradients(params, g, pos, neg)

    def loss_at():
        emb, _ = model_forward(params, g)
        return bce_loss(
            link_probability(emb, pos[:, 0], pos[:, 1]),
            link_probability(emb, neg[:, 0], neg[:, 1]),
        )

    h = 1e-5
    checks = [
        (params.layer1.weights[0], grads.layer1.weights[0], (1, 2)),
        (params.layer1.att[1], grads.layer1.att[1], (4,)),
        (params.layer2.weights[0], grads.layer2.weights[0], (2, 1)),
        (params.layer2.att[0], grads.layer2.att[0], (3,)),
    ]
    for arr, grad, idx in checks:
        orig = arr[idx]
        arr[idx] = orig + h
        up = loss_at()
        arr[idx] = orig - h
        down = loss_at()
        arr[idx] = orig
        fd = (up - down) / (2 * h)
        assert abs(fd - grad[idx]) / max(1.0, abs(grad[idx])) < 1e-4


def test_saturated_pairs_keep_a_corrective_gradient():
    # Blow the weights up until every pair score saturates its sigmoid to an
    # exact float 0.0 or 1.0.  A mis-scored pair must still produce a strong
    # gradient through the logit-form loss; if saturation silenced it, a pair
    # that flips to the wrong side during training could never recover.
    params = init_params(6, 4, 2, np.random.default_rng(7))
    for layer in (params.layer1, params.layer2):
        layer.weights = [w * 50.0 for w in layer.weights]
    g = graph_of([(0, 1), (1, 2), (3, 4), (4, 5)], 6)
    pos = np.stack([g.edge_src, g.edge_dst], axis=1)
    neg = np.array([[5, 0], [2, 4]])

    emb, _ = model_forward(params, g)
    probs = np.concatenate([
        link_probability(emb, pos[:, 0], pos[:, 1]),
        link_probability(emb, neg[:, 0], neg[:, 1]),
    ])
    assert np.all((probs == 0.0) | (probs == 1.0))  # genuinely saturated
    assert probs[len(pos)] == 1.0  # and at least one negative is dead wrong

    grads, loss, _ = compute_gradients(params, g, pos, neg)
    assert np.isfinite(loss) and loss > 1.0
    total = sum(
        float(np.abs(a).sum())
        for a in grads.layer1.weights + grads.layer1.att
        + grads.layer2.weights + grads.layer2.att
    )
    assert np.isfinite(total) and total > 1.0


def test_gradients_return_the_forward_attention():
    params = init_params(5, 3, 2, np.random.default_rng(13))
    g = graph_of([(0, 1), (1, 2), (1, 2), (3, 4)], 5)
    pos = np.stack([g.edge_src, g.edge_dst], axis=1)
    _, _, record = compute_gradients(params, g, pos, np.array([[4, 0]]))
    _, expected = model_forward(params, g)
    assert np.array_equal(record.edge_src, expected.edge_src)
    assert np.array_equal(record.edge_dst, expected.edge_dst)
    assert np.array_equal(record.coeffs, expected.coeffs)


def composed_gradients(params, n, edges, pos, pos_counts, neg):
    """Loss, gradients and embeddings of the same model built from one tape
    op per array operation, over explicit (src, dst, count) edge arrays that
    already hold the self-loops: a reference for the fused head and loss
    nodes."""
    src, dst, counts = edges

    def head(wh, att):
        d = wh.data.shape[1]
        s_dst = ref.matmul(wh, ref.narrow(att, 0, d))
        s_src = ref.matmul(wh, ref.narrow(att, d, 2 * d))
        scores = ref.leaky_relu(ref.add(ref.gather(s_dst, dst), ref.gather(s_src, src)), 0.2)
        weights = ref.mul(counts, ref.exp(ref.sub(scores, ad.segment_max(scores.data, dst, n)[dst])))
        alpha = ref.div(weights, ref.gather(ref.scatter_add(weights, dst, n), dst))
        return ref.scatter_add(ref.mul(ref.gather(wh, src), ref.reshape(alpha, (-1, 1))), dst, n)

    def pair_scores(emb, pairs):
        return ref.tsum(ref.mul(ref.gather(emb, pairs[:, 0]), ref.gather(emb, pairs[:, 1])), axis=1)

    heads = params.dims.heads
    leaves = [Tensor(a, requires_grad=True) for a in flat_grads(params)]
    w1, a1, (w2, a2) = leaves[:heads], leaves[heads:2 * heads], leaves[2 * heads:]
    outs = [head(w, a) for w, a in zip(w1, a1)]
    h1 = outs[0] if heads == 1 else ref.concat(outs)
    emb = head(ref.matmul(ref.elu(h1, 1.0), w2), a2)
    terms = []
    if len(pos):
        terms.append(ref.tsum(ref.mul(pos_counts, ref.softplus(ref.neg(pair_scores(emb, pos))))))
    if len(neg):
        terms.append(ref.tsum(ref.softplus(pair_scores(emb, neg))))
    loss = ref.div(terms[0] if len(terms) == 1 else ref.add(terms[0], terms[1]), float(pos_counts.sum() + len(neg)))
    loss.backward()
    return float(loss.data), [t.grad for t in leaves], emb.data


def model_case(g, with_pos):
    """The rows the model itself uses for graph g: its loop edges, and the
    positives in the form train passes them."""
    src, dst, counts = _message_rows(g)
    edges = (*with_self_loops(src, dst, g.n_nodes), np.concatenate([counts, np.ones(g.n_nodes)]))
    if not with_pos:
        return edges, np.empty((0, 2), np.int64), np.empty(0)
    return edges, np.stack([src, dst], axis=1), counts


def instance_case(g, with_pos):
    """The same, one row per edge instance: the reference merging must match."""
    n = g.n_nodes
    edges = (*with_self_loops(g.edge_src, g.edge_dst, n), np.ones(g.n_edges + n))
    pos = np.stack([g.edge_src, g.edge_dst], axis=1) if with_pos else np.empty((0, 2), np.int64)
    return edges, pos, np.ones(len(pos))


def random_training_case(seed):
    """Seeds below 6 draw sparse multigraphs (rows stay per call); the rest
    draw multigraphs whose rows merge."""
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 12))
    if seed < 6:
        pairs = [tuple(p) for p in rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))]
        g = graph_of(pairs, n)  # duplicates and self-loops included
    else:
        g = merged_multigraph(rng, n)
    params = init_params(n, int(rng.integers(1, 6)), 1 + seed % 3, rng)
    neg = rng.integers(0, n, size=(int(rng.integers(1, 2 * n)), 2))
    return g, params, bool(seed % 4), neg


def flat_grads(grads):
    return grads.layer1.weights + grads.layer1.att + grads.layer2.weights + grads.layer2.att


#: Graphs the random cases may miss: no message rows at all (every head runs
#: on self-loops alone), self-calls u -> u beside the added self-loops, one
#: row per call and merged, a graph of 8 nodes where node 0 only sends,
#: node 7 only receives and nodes 1-4 and 6 have no rows (the heads' active
#: set is 0, 5 and 7), and a fleet of 300 nodes whose 12 rows touch 10 of
#: them, so nearly every node is idle.
EDGE_CASE_PAIRS = {
    "no-rows": [],
    "self-calls": [(0, 0), (1, 2), (2, 2), (0, 0), (3, 1)],
    "merged-self-calls": [(0, 0)] * 7 + [(1, 1)] * 2 + [(2, 0)],
    "idle-nodes": [(0, 5), (5, 7), (0, 7), (0, 5)],
    "fleet": [(3, 17), (17, 42), (42, 3), (88, 17), (120, 150), (150, 120), (201, 233),
              (233, 270), (270, 299), (299, 3), (88, 88), (3, 17)],
}


#: Cases at the model's real width (hidden 64, 2 heads), as (nodes, calls,
#: negatives, None for 3 random ones).  In "width-few-rows" 3 calls among 3
#: of 200 nodes and 3 negatives reach at most 9 rows of layer 2's input, few
#: enough that BLAS may round a product over those rows alone differently
#: from the same rows of the full product.  In "width-every-row" the calls
#: touch nodes 0-5 and the negatives reach 6 and 7, so every row is used.
WIDTH_CASES = {
    "width-few-rows": (200, [(0, 1), (1, 2), (2, 0)], None),
    "width-every-row": (8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)], [(6, 7), (7, 6), (0, 3)]),
}


def training_case(case):
    if case in WIDTH_CASES:
        n, pairs, neg = WIDTH_CASES[case]
        rng = np.random.default_rng(99)
        params = init_params(n, 64, 2, rng)
        return graph_of(pairs, n), params, True, rng.integers(0, n, size=(3, 2)) if neg is None else np.array(neg)
    if case not in EDGE_CASE_PAIRS:
        return random_training_case(case)
    rng = np.random.default_rng(99)
    pairs = EDGE_CASE_PAIRS[case]
    n = max([4, *(1 + max(pair) for pair in pairs)])
    g = graph_of(pairs, n)
    params = init_params(n, 3, 2, rng)
    return g, params, g.n_edges > 0, rng.integers(0, n, size=(5, 2))


@pytest.mark.parametrize("seed", [*range(12), *EDGE_CASE_PAIRS, *WIDTH_CASES])
def test_fused_gradients_equal_composed_tape_ops_bitwise(seed):
    g, params, with_pos, neg = training_case(seed)
    src, dst, counts = rows = _message_rows(g)
    if seed == "merged-self-calls":
        assert len(src) == len(g.pair_src) < g.n_edges
    # the heads' rows: the message rows, then one count-1.0 self-loop row per
    # active node, in ascending node order
    nodes, head_src, head_dst, head_counts = _head_rows(rows, g.n_nodes)
    assert np.array_equal(nodes, np.flatnonzero(np.isin(np.arange(g.n_nodes), [*src, *dst])))
    assert np.array_equal(nodes[head_src], [*src, *nodes]) and np.array_equal(nodes[head_dst], [*dst, *nodes])
    assert np.array_equal(head_counts, np.concatenate([counts, np.ones(len(nodes))]))
    if seed == "idle-nodes":
        assert np.array_equal(nodes, [0, 5, 7])
    if seed == "fleet":
        assert len(nodes) == 10 < 0.05 * g.n_nodes
    edges, pos, counts = model_case(g, with_pos)
    if seed in WIDTH_CASES:
        used = np.union1d(nodes, np.concatenate([pos, neg]))
        assert len(used) <= 9 if seed == "width-few-rows" else len(used) == g.n_nodes
    grads, loss, _ = compute_gradients(params, g, pos, neg, counts)
    ref_loss, ref_grads, _ = composed_gradients(params, g.n_nodes, edges, pos, counts, neg)
    assert loss == ref_loss
    flat = grads.layer1.weights + grads.layer1.att + grads.layer2.weights + grads.layer2.att
    for got, want in zip(flat, ref_grads):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(6, 46))
def test_merged_gradients_match_per_instance_reference(seed):
    g, params, with_pos, neg = random_training_case(seed)
    assert len(_message_rows(g)[0]) == len(g.pair_src) < g.n_edges  # rows merged
    _, pos, counts = model_case(g, with_pos)
    if len(pos) and seed % 5 == 1:
        neg = neg[:0]  # an empty negative set; never empty on both sides
    grads, loss, _ = compute_gradients(params, g, pos, neg, counts)
    emb, _ = model_forward(params, g)
    edges, inst_pos, inst_counts = instance_case(g, with_pos)
    ref_loss, ref_grads, ref_emb = composed_gradients(params, g.n_nodes, edges, inst_pos, inst_counts, neg)
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    # entries that cancel to ~0 in exact arithmetic keep rounding noise of
    # the size of the terms summed, so the floor is 1e-12 of the largest
    # gradient entry anywhere (of the largest embedding entry for embeddings)
    floor = 1e-12 * max(np.abs(want).max() for want in ref_grads)
    for got, want in zip(flat_grads(grads), ref_grads):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=floor)
    np.testing.assert_allclose(emb, ref_emb, rtol=1e-12, atol=1e-12 * np.abs(ref_emb).max())


def test_gradients_need_at_least_one_pair():
    params = init_params(3, 2, 2, np.random.default_rng(14))
    g = graph_of([(0, 1)], 3)
    with pytest.raises(LossError):
        compute_gradients(params, g, np.empty((0, 2)), np.empty((0, 2)))
    # positives that weigh nothing leave no pair to average over either
    with pytest.raises(LossError):
        compute_gradients(params, g, [[0, 1]], np.empty((0, 2)), [0.0])
    assert np.isfinite(compute_gradients(params, g, [[0, 1]], [[1, 2]], [0.0])[1])


def no_forward(monkeypatch):
    monkeypatch.setattr(gat, "_forward", lambda *args: pytest.fail("the forward pass ran"))


@pytest.mark.parametrize("pos, neg", [
    ([[0, 1]], [[-1, 2]]),
    ([[0, 3]], [[1, 2]]),
    ([[0, 1], [1, 2]], [[2, 7]]),
], ids=["negative", "n", "past-n"])
def test_gradients_reject_pair_ids_outside_the_fleet(pos, neg, monkeypatch):
    params = init_params(3, 2, 2, np.random.default_rng(14))
    g = graph_of([(0, 1)], 3)
    no_forward(monkeypatch)
    with pytest.raises(ModelError, match=r"\[0, 3\)"):
        compute_gradients(params, g, pos, neg)


@pytest.mark.parametrize("ids, named", [
    ([[0.7, 1.9]], r"\[0\.7, 1\.9\]"),
    ([[0, math.nan]], r"\[nan\]"),
    ([[math.inf, 1]], r"\[inf\]"),
    ([[-math.inf, 1]], r"\[-inf\]"),
    ([[True, False]], r"\[True, False\]"),
    ([["1", "2"]], r"\['1', '2'\]"),
    ([[0.0, 2.0]], None),  # an integer-valued float is an id
    (np.empty((0, 2)), None),
], ids=["fraction", "nan", "inf", "-inf", "bool", "str", "integral-float", "empty-float"])
@pytest.mark.parametrize("call", ["compute_gradients", "model_forward"])
def test_node_ids_must_be_integers_by_value(ids, named, call):
    params = init_params(3, 2, 2, np.random.default_rng(14))
    g = graph_of([(0, 1)], 3)
    if call == "compute_gradients":
        def run(pairs):
            return compute_gradients(params, g, pairs, [[1, 2]])[1]
    else:
        def run(pairs):
            return model_forward(params, g, pairs)[0]
    if named is None:
        assert np.array_equal(run(ids), run(np.asarray(ids).astype(np.int64)))
    else:
        with pytest.raises(ModelError, match=named):
            run(ids)


@pytest.mark.parametrize("counts", [
    [1.0],  # one count for two positives
    [1.0, 1.0, 1.0],
    [[1.0, 1.0]],
    [math.nan, 1.0],
    [math.inf, 1.0],
    [-1.0, 2.0],
])
def test_gradients_reject_pos_counts_not_one_finite_count_per_positive(counts, monkeypatch):
    params = init_params(3, 2, 2, np.random.default_rng(14))
    g = graph_of([(0, 1), (1, 2)], 3)
    no_forward(monkeypatch)
    with pytest.raises(LossError, match="pos_counts"):
        compute_gradients(params, g, [[0, 1], [1, 2]], [[2, 0]], counts)


# ---------------------------------------------------------------------------
# the loss's two kernels: per-row gathers, or scores read from h @ h.T

def loss_and_grad(h, pos, counts, neg):
    emb = Tensor(h, requires_grad=True)
    loss = _link_loss(emb, pos, counts, neg)
    loss.backward()
    return float(loss.data), emb.grad


def kernel_case(case):
    """Embeddings and scored rows of a Gram-sized step (n=30, 1,160 rows):
    count-weighted positives, or one group empty, or few distinct pairs
    repeated (self-pairs u -> u included)."""
    rng = np.random.default_rng(21)
    n = 30
    h = rng.normal(scale=0.8, size=(n, 8))
    pos, counts = rng.integers(0, n, size=(60, 2)), rng.integers(1, 50, size=60).astype(float)
    neg = rng.integers(0, n, size=(1100, 2))
    if case == "no-positives":
        pos, counts = pos[:0], counts[:0]
    elif case == "no-negatives":
        neg = neg[:0]
    elif case == "repeated":
        pos, counts = np.repeat([[0, 1], [2, 2], [1, 0]], 20, axis=0), np.repeat([3.0, 1.0, 7.0], 20)
        neg = np.tile([[4, 5], [6, 6], [5, 4], [7, 8]], (275, 1))
    return h, pos, counts, neg


@pytest.mark.parametrize("case", ["weighted", "no-positives", "no-negatives", "repeated"])
def test_gram_kernel_matches_per_row_kernel(case, monkeypatch):
    h, pos, counts, neg = kernel_case(case)
    results = []
    for use_gram in (False, True):
        monkeypatch.setattr(gat, "_scores_through_gram", lambda n_nodes, n_rows, use=use_gram: use)
        results.append(loss_and_grad(h, pos, counts, neg))
    (row_loss, row_grad), (gram_loss, gram_grad) = results
    assert gram_loss == pytest.approx(row_loss, rel=1e-12)
    # as in test_merged_gradients_match_per_instance_reference: entries that
    # cancel to ~0 keep rounding noise of the size of the terms summed
    floor = 1e-12 * np.abs(row_grad).max()
    np.testing.assert_allclose(gram_grad, row_grad, rtol=1e-12, atol=floor)


def test_gram_kernel_matches_finite_differences():
    rng = np.random.default_rng(8)
    n = 40
    h = rng.normal(size=(n, 4))
    pos, counts = rng.integers(0, n, size=(100, 2)), rng.integers(1, 30, size=100).astype(float)
    neg = rng.integers(0, n, size=(1000, 2))
    assert _scores_through_gram(n, len(pos) + len(neg))
    _, grad = loss_and_grad(h, pos, counts, neg)
    eps = 1e-6
    for _ in range(3):
        step = rng.normal(size=h.shape)
        up = _link_loss(Tensor(h + eps * step), pos, counts, neg).data
        down = _link_loss(Tensor(h - eps * step), pos, counts, neg).data
        assert (up - down) / (2 * eps) == pytest.approx(float((grad * step).sum()), rel=1e-6, abs=1e-9)


def generated_step_shapes(seed, **synth):
    """(nodes, scored rows) of every training step on a generated trace: the
    positives as `train` passes them plus one negative per call."""
    cfg = SynthConfig(seed=seed, **synth)
    events = generate_trace(cfg)
    mapping = build_node_mapping(events)
    for window in segment_windows(apply_mapping(events, mapping), WINDOW_HINT, cfg.duration):
        if window.n_events:
            g = build_graph(window, mapping.n_nodes)
            yield g.n_nodes, len(_message_rows(g)[0]) + g.n_edges


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("synth, gram", [
    ({}, False),  # desk: <= ~230 rows a step
    ({"events_per_window_mean": 3000}, True),  # heavy: n^2 / rows <= ~25
    ({"n_services": 2000, "events_per_window_mean": 400}, False),  # wide: n^2 / rows >= ~2,700
], ids=["desk", "heavy", "wide"])
def test_gram_kernel_runs_on_heavy_steps_only(seed, synth, gram):
    shapes = list(generated_step_shapes(seed, **synth))
    assert shapes and all(_scores_through_gram(n, rows) == gram for n, rows in shapes)


def test_bitwise_reference_cases_use_the_per_row_kernel():
    for case in [*range(12), *EDGE_CASE_PAIRS, *WIDTH_CASES]:
        g, _, with_pos, neg = training_case(case)
        _, pos, _ = model_case(g, with_pos)
        assert not _scores_through_gram(g.n_nodes, len(pos) + len(neg))


#: One heavy-sized step (200 nodes, 60 merged pairs, 3,000 negatives);
#: prints a digest of its loss and gradients.
THREADS_SCRIPT = """
import hashlib
import numpy as np
from tracelink.gat import _param_arrays, _scores_through_gram, compute_gradients, init_params
from tracelink.graph import build_graph
from tracelink.preprocess import TimeWindow

rng = np.random.default_rng(4)
n = 200
pairs = rng.integers(0, n, size=(60, 2))[rng.integers(0, 60, size=3000)]
g = build_graph(TimeWindow(0, 0, 100, pairs[:, 0], pairs[:, 1], np.arange(3000)), n)
pos = np.stack([g.pair_src, g.pair_dst], axis=1)
neg = rng.integers(0, n, size=(3000, 2))
assert _scores_through_gram(n, len(pos) + len(neg))
grads, loss, _ = compute_gradients(init_params(n, 64, 2, rng), g, pos, neg, g.pair_count)
digest = hashlib.sha256(np.float64(loss).tobytes())
for a in _param_arrays(grads):
    digest.update(a.tobytes())
print(digest.hexdigest())
"""


def test_gram_kernel_bytes_do_not_depend_on_blas_threads():
    src = str(Path(tracelink.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", THREADS_SCRIPT], env=env, capture_output=True, text=True,
                             timeout=120)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


# ---------------------------------------------------------------------------
# optimizer

def test_adam_zero_gradient_keeps_fresh_params():
    params = init_params(3, 2, 1, np.random.default_rng(15))
    before = [w.copy() for w in params.layer1.weights]
    optimizer_step(params, grads_like(params, 0.0), init_adam_state(params), lr=0.5)
    for w, b in zip(params.layer1.weights, before):
        assert np.array_equal(w, b)


def test_adam_first_step_is_signed_learning_rate():
    # with m_hat = g and v_hat = g*g, the first update is lr * g/(|g|+eps)
    params = init_params(3, 2, 1, np.random.default_rng(16))
    before = params.layer1.weights[0].copy()
    optimizer_step(params, grads_like(params, 0.5), init_adam_state(params), lr=0.01)
    delta = params.layer1.weights[0] - before
    assert np.allclose(delta, -0.01, atol=1e-8)


def test_adam_descends_against_gradient_sign():
    params = init_params(3, 2, 1, np.random.default_rng(17))
    before = params.layer2.weights[0].copy()
    optimizer_step(params, grads_like(params, -2.0), init_adam_state(params), lr=0.01)
    assert np.all(params.layer2.weights[0] > before)


def test_adam_ten_steps_bit_identical():
    runs = []
    for _ in range(2):
        params = init_params(4, 3, 2, np.random.default_rng(18))
        state = init_adam_state(params)
        g = graph_of([(0, 1), (1, 2), (2, 3)], 4)
        pos = np.stack([g.edge_src, g.edge_dst], axis=1)
        for _ in range(10):
            grads, _, _ = compute_gradients(params, g, pos, np.array([[3, 0]]))
            optimizer_step(params, grads, state, lr=0.01)
        runs.append(params)
    for a, b in zip(
        runs[0].layer1.weights + runs[0].layer1.att + runs[0].layer2.weights,
        runs[1].layer1.weights + runs[1].layer1.att + runs[1].layer2.weights,
    ):
        assert np.array_equal(a, b)


def test_adam_matches_the_textbook_update_bitwise():
    rng = np.random.default_rng(19)
    # a tiny model, and one whose (n, 8) weights span two full ADAM_BLOCK
    # blocks and a short last block of 3 rows
    big = 2 * gat.ADAM_BLOCK // 8 + 3
    assert big * 8 > gat.ADAM_BLOCK and (big * 8) % gat.ADAM_BLOCK
    for n, hidden in ((4, 3), (big, 8)):
        params = init_params(n, hidden, 2, rng)
        state = init_adam_state(params)
        arrays = [a.copy() for a in flat_grads(params)]  # the same flat layout for params
        m = [np.zeros_like(a) for a in arrays]
        v = [np.zeros_like(a) for a in arrays]
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
        # zero, negative and mixed gradients, then zero again with moments left
        for t, kind in enumerate(("zero", "negative", "mixed", "mixed", "zero"), start=1):
            grads = grads_like(params, 0.0)
            for g in flat_grads(grads):
                if kind == "negative":
                    g[...] = -np.abs(rng.normal(size=g.shape))
                elif kind == "mixed":
                    g[...] = rng.normal(size=g.shape) * 10.0 ** rng.integers(-9, 3, size=g.shape)
            optimizer_step(params, grads, state, lr=lr)
            for k, g in enumerate(flat_grads(grads)):
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * g**2
                m_hat = m[k] / (1.0 - b1**t)
                v_hat = v[k] / (1.0 - b2**t)
                arrays[k] = arrays[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
            for want, have, m_want, m_have, v_want, v_have in zip(arrays, flat_grads(params), m, state.m, v, state.v):
                assert np.array_equal(have, want)
                assert np.array_equal(m_have, m_want)
                assert np.array_equal(v_have, v_want)
        assert state.step == 5


def test_adam_state_defaults():
    state = init_adam_state(init_params(2, 2, 1, np.random.default_rng(0)))
    assert isinstance(state, AdamState)
    assert (gat.ADAM_BETA1, gat.ADAM_BETA2, gat.ADAM_EPS) == (0.9, 0.999, 1e-8)
    assert state.step == 0


# ---------------------------------------------------------------------------
# training loop

def test_train_single_edge_single_epoch():
    params = init_params(2, 2, 2, np.random.default_rng(19))
    window = window_of([(0, 1)], index=0)
    artifacts = train(
        params,
        [window],
        SamplingStrategy(SamplingKind.NONE),
        epochs=1,
        seed=0,
        snapshot_epochs=(0,),
    )
    assert len(artifacts.loss_history) == 1
    assert artifacts.windows.tolist() == [0]
    loss = artifacts.loss_history[0]
    assert loss >= 0 and np.isfinite(loss)
    assert set(artifacts.attention_snapshots) == {0}


def test_train_snapshot_is_the_epochs_last_step():
    params = init_params(4, 2, 2, np.random.default_rng(19))
    windows = [window_of([(0, 1)], index=0), window_of([(2, 3), (3, 2)], index=1)]
    artifacts = train(params, windows, SamplingStrategy(SamplingKind.NONE),
                      epochs=2, seed=0, snapshot_epochs=(0, 1))
    assert set(artifacts.attention_snapshots) == {0, 1}
    for record in artifacts.attention_snapshots.values():
        # window 1's two edges, then one self-loop per node
        assert record.edge_src.tolist() == [2, 3, 0, 1, 2, 3]


def test_train_builds_an_attention_record_once_per_snapshot_epoch(monkeypatch):
    build, built = gat._attention_record, []
    monkeypatch.setattr(gat, "_attention_record", lambda *args: built.append(args) or build(*args))
    params = init_params(4, 2, 2, np.random.default_rng(19))
    windows = [window_of([(0, 1)], index=0), window_of([(2, 3), (3, 2)], index=1),
               window_of([(1, 2)], index=2)]
    artifacts = train(params, windows, SamplingStrategy(SamplingKind.SIMPLE),
                      epochs=3, seed=0, snapshot_epochs=(0, 2))
    assert set(artifacts.attention_snapshots) == {0, 2}
    assert len(built) == 2
    for record in artifacts.attention_snapshots.values():
        # window 2's edge, then one self-loop per node
        assert record.edge_src.tolist() == [1, 0, 1, 2, 3]


def test_train_skips_empty_windows():
    params = init_params(3, 2, 2, np.random.default_rng(20))
    windows = [window_of([], index=0), window_of([(0, 1), (1, 2)], index=1)]
    artifacts = train(params, windows, SamplingStrategy(SamplingKind.SIMPLE), epochs=2, seed=1)
    assert artifacts.windows.tolist() == [1]
    assert len(artifacts.loss_history) == 2


def test_train_records_epoch_e_on_window_j_at_step_e_times_w_plus_j():
    # Replays the loop by hand: per epoch, one Adam step per non-empty window
    # in order, each with its own (epoch, window) negatives.
    sampling = SamplingStrategy(SamplingKind.SIMPLE)
    windows = [window_of([(0, 1), (2, 3)], index=0), window_of([], index=1),
               window_of([(1, 2), (3, 0), (1, 2)], index=2)]
    artifacts = train(init_params(4, 3, 2, np.random.default_rng(25)), windows, sampling,
                      epochs=3, seed=4, snapshot_epochs=())
    assert artifacts.windows.tolist() == [0, 2]
    assert len(artifacts.loss_history) == 3 * len(artifacts.windows)
    params = init_params(4, 3, 2, np.random.default_rng(25))
    state = init_adam_state(params)
    for e in range(3):
        for j, index in enumerate(artifacts.windows.tolist()):
            g = build_graph(windows[index], 4)
            src, dst, counts = _message_rows(g)
            neg = draw_negatives(sampling, g, derive_rng(4, "train-sampling", e, index))
            grads, loss, _ = compute_gradients(params, g, np.stack([src, dst], axis=1), neg, counts)
            optimizer_step(params, grads, state, 0.01)
            assert artifacts.loss_history[e * len(artifacts.windows) + j] == loss


def test_train_rejects_all_empty():
    params = init_params(3, 2, 2, np.random.default_rng(21))
    with pytest.raises(TrainingError):
        train(params, [window_of([])], SamplingStrategy(SamplingKind.NONE), epochs=1)


def test_train_rejects_nonpositive_epochs():
    params = init_params(3, 2, 2, np.random.default_rng(22))
    with pytest.raises(TrainingError):
        train(params, [window_of([(0, 1)])], SamplingStrategy(SamplingKind.NONE), epochs=0)


def test_train_raises_on_a_non_finite_loss():
    # a learning rate of 1e300 overflows the weights after the first step
    params = init_params(4, 3, 2, np.random.default_rng(27))
    windows = [window_of([(0, 1), (2, 3)], index=i) for i in range(3)]
    with pytest.raises(TrainingError, match="loss nan at epoch 0, window 1"):
        train(params, windows, SamplingStrategy(SamplingKind.SIMPLE), epochs=2, lr=1e300)


def test_train_learns_a_tiny_pattern():
    # 4 nodes, same two calls every window: loss should drop markedly
    params = init_params(4, 4, 2, np.random.default_rng(23))
    windows = [window_of([(0, 1), (2, 3)], index=i) for i in range(3)]
    artifacts = train(params, windows, SamplingStrategy(SamplingKind.SIMPLE),
                      epochs=60, seed=3)
    first = np.mean(artifacts.loss_history[:3])
    last = np.mean(artifacts.loss_history[-3:])
    assert last < first / 2


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_round_trip(tmp_path):
    params = init_params(6, 4, 2, np.random.default_rng(24))
    path = tmp_path / "model.bin"
    save_checkpoint(params, path, mapping_sha256="abc123")
    loaded, digest = load_checkpoint(path)
    assert digest == "abc123"
    assert loaded.dims == params.dims
    for a, b in zip(
        loaded.layer1.weights + loaded.layer1.att + loaded.layer2.weights + loaded.layer2.att,
        params.layer1.weights + params.layer1.att + params.layer2.weights + params.layer2.att,
    ):
        assert np.array_equal(a, b)


def test_checkpoint_bytes_are_reproducible(tmp_path):
    params = init_params(4, 3, 2, np.random.default_rng(25))
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(params, p1, "x")
    save_checkpoint(params, p2, "x")
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    sizes = '"n_nodes": 4, "hidden": 3, "heads": 2'
    for header in (
        "\x00\x01\x02 not a header",
        "[1]",
        '{"format": "tracelink-checkpoint", "version": 1}',
        '{"format": "tracelink-checkpoint", "version": 1, "arrays": [], '
        '"n_nodes": "4", "hidden": 3, "heads": 2}',
        '{"format": "tracelink-checkpoint", "version": 1, '
        '"arrays": [{"name": "layer2.a", "shape": [-6]}], ' + sizes + "}",
    ):
        path.write_bytes(header.encode("utf-8") + b"\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    params = init_params(4, 3, 2, np.random.default_rng(26))
    path = tmp_path / "model.bin"
    save_checkpoint(params, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 16])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_a_header_larger_than_the_file(tmp_path):
    # 8e15 declared bytes against a 100-byte payload: rejected before any read
    header = ('{"format": "tracelink-checkpoint", "version": 1, "n_nodes": 4, "hidden": 3, '
              '"heads": 2, "arrays": [{"name": "layer2.a", "shape": [1000000000000000]}]}\n')
    path = tmp_path / "huge.bin"
    path.write_bytes(header.encode("utf-8") + bytes(100))
    with pytest.raises(CheckpointError, match="holds 100 array bytes, its header declares"):
        load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    params = init_params(4, 3, 2, np.random.default_rng(26))
    path = tmp_path / "model.bin"
    save_checkpoint(params, path)
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(CheckpointError, match="declares"):
        load_checkpoint(path)


def test_checkpoint_rejects_misshaped_arrays(tmp_path):
    params = init_params(4, 3, 2, np.random.default_rng(26))
    params.layer2.att[0] = params.layer2.att[0].reshape(3, 2)  # right size, wrong shape
    path = tmp_path / "model.bin"
    save_checkpoint(params, path)
    with pytest.raises(CheckpointError, match=r"layer2.a has shape \(3, 2\), expected \(6,\)"):
        load_checkpoint(path)


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "nope.bin")


def _checkpoint_bytes():
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(init_params(3, 2, 2, np.random.default_rng(27)), Path(tmp) / "model.bin")
        return (Path(tmp) / "model.bin").read_bytes()


VALID_CHECKPOINT = _checkpoint_bytes()
header_sizes = st.integers(-1, 5) | st.sampled_from([10**20, 1.5, "4", None, True])
headers = st.fixed_dictionaries({
    "format": st.sampled_from(["tracelink-checkpoint", "other"]), "version": st.sampled_from([1, 1.0, True, 2, "1"]),
    "n_nodes": header_sizes, "hidden": header_sizes, "heads": header_sizes,
    "arrays": st.lists(st.fixed_dictionaries({
        "name": st.sampled_from(["layer1.w.0", "layer1.a.0", "layer2.w", "layer2.a", "x"]),
        "shape": st.lists(st.integers(0, 6) | st.sampled_from([10**18, 10**20, -1]), max_size=3),
    }), max_size=5),
})


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(b"1" * 5000 + b"\n")  # an int past Python's digit limit
@example(b"[" * 100_000 + b"\n")  # nested past the recursion limit
@example(b'{"format": "tracelink-checkpoint", "version": 1, "n_nodes": 4, "hidden": 3, "heads": 2, '
         b'"arrays": [{"name": "layer2.a", "shape": [0, 100000000000000000000]}]}\n')  # empty, too big to shape
@given(st.one_of(
    st.builds(lambda h, k: json.dumps(h).encode() + b"\n" + bytes(8 * k), headers, st.integers(0, 12)),
    st.builds(lambda i, junk, k: VALID_CHECKPOINT[:i] + junk + VALID_CHECKPOINT[i + k:],
              st.integers(0, len(VALID_CHECKPOINT)), st.binary(max_size=6), st.integers(0, 6)),
    st.binary(max_size=80),
))
def test_checkpoint_bytes_load_or_raise_a_typed_error(tmp_path, data):
    (tmp_path / "fuzz.bin").write_bytes(data)
    with contextlib.suppress(TracelinkError):
        load_checkpoint(tmp_path / "fuzz.bin")


def test_checkpoint_format_and_init_follow_the_written_layout(tmp_path):
    # The format and the init draws, written out here independently of the
    # library: arrays in this order, Glorot limits from (fan_in, fan_out),
    # with a vector of k entries read as (k, 1).
    n, hidden, heads = 5, 3, 2
    layout = (
        [(f"layer1.w.{k}", (n, hidden)) for k in range(heads)]
        + [(f"layer1.a.{k}", (2 * hidden,)) for k in range(heads)]
        + [("layer2.w", (heads * hidden, hidden)), ("layer2.a", (2 * hidden,))]
    )
    rng = np.random.default_rng(31)
    arrays = []
    for _, shape in layout:
        fan_in, fan_out = shape if len(shape) == 2 else (shape[0], 1)
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        arrays.append(rng.uniform(-limit, limit, size=shape))
    params = init_params(n, hidden, heads, np.random.default_rng(31))
    flat = params.layer1.weights + params.layer1.att + params.layer2.weights + params.layer2.att
    assert len(flat) == len(arrays) and all(np.array_equal(a, b) for a, b in zip(flat, arrays))

    header = {
        "format": "tracelink-checkpoint", "version": 1, "n_nodes": n, "hidden": hidden, "heads": heads,
        "mapping_sha256": "feed", "arrays": [{"name": name, "shape": list(shape)} for name, shape in layout],
    }
    data = json.dumps(header).encode("utf-8") + b"\n" + b"".join(a.astype("<f8").tobytes() for a in arrays)
    path = tmp_path / "hand.bin"
    path.write_bytes(data)
    loaded, digest = load_checkpoint(path)
    assert digest == "feed"
    assert (loaded.dims.n_nodes, loaded.dims.hidden, loaded.dims.heads) == (n, hidden, heads)
    flat = loaded.layer1.weights + loaded.layer1.att + loaded.layer2.weights + loaded.layer2.att
    assert len(flat) == len(arrays) and all(np.array_equal(a, b) for a, b in zip(flat, arrays))


@pytest.mark.parametrize("edit", [
    lambda arrays: arrays[::-1],
    lambda arrays: arrays + [{"name": "extra", "shape": [0]}],
    lambda arrays: arrays[:-1] + [{**arrays[-1], "dtype": "<f8"}],
    lambda arrays: arrays[:-1] + [{**arrays[-1], "shape": [float(size) for size in arrays[-1]["shape"]]}],
], ids=["reordered", "extra-array", "extra-key", "float-sizes"])
def test_checkpoint_refuses_an_array_list_other_than_the_layout(tmp_path, edit):
    header_line, payload = VALID_CHECKPOINT.split(b"\n", 1)
    header = json.loads(header_line)
    header["arrays"] = edit(header["arrays"])
    path = tmp_path / "edited.bin"
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
