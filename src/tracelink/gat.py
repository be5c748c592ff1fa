"""Two-layer graph attention network with dot-product link scoring.

Layer 1 runs two attention heads over implicit identity features (so its
per-head weight matrix doubles as a learnable node embedding table) and
concatenates the head outputs; an ELU sits between the layers; layer 2 runs
a single head and emits the final embeddings.  A pair (u, v) is scored as
sigmoid(h_u . h_v).

Attention per head for destination i over its in-neighborhood N(i), which
always includes i itself via an added self-loop:

    e_ij   = leaky_relu(a . [W h_i || W h_j])        (slope 0.2)
    alpha  = c_ij exp(e_ij) / sum over rows k -> i of c_ik exp(e_ik)

where row j -> i stands for c_ij parallel calls.  Parallel calls share one
score, so one row per distinct pair, weighted by its call count, gives the
softmax over calls up to rounding, and positives enter the loss the same
way: a step then costs the same however often a pair fires.  A window is
merged so only when that at least halves the rows (`_message_rows`); else
each call is a row with c = 1, which is the per-call arithmetic exactly.

The softmax subtracts the per-destination max before exponentiating, which
changes nothing mathematically and keeps large scores finite.  Gradients
come from the reverse-mode tape in `autodiff`, so they are exact.  Each
attention head, layer 2's input (head concat, ELU and matmul) and the loss
are one tape node apiece (`autodiff.fused`), with the chain rule written
out by hand.  The tests check these nodes bit for bit against the same
model composed one array operation at a time.

A head runs one softmax over one row set (`_head_rows`): the message rows,
then a self-loop row per active node, one that sends or receives some row.
A window of a large fleet touches few of them.  Every other node has its
self-loop alone and gets that result exactly (`_attention_head`).  Layer
2's input is concatenated and activated only on the rows that reach the
loss or a score, the active nodes and the scored endpoints, and is zero
elsewhere (`_layer2_input`); its products keep all n rows, so every row
read has the bits of the every-row forward.  Adam walks each array in
blocks of ADAM_BLOCK elements, each element through the same operations,
so the large arrays of a wide model stay in cache.

The loss reads its pair scores per row, or, for a step that scores many
rows for its node count (heavy call traffic), from the Gram matrix h h^T;
`_link_loss` gives the rule.  The two agree up to rounding, and the rule
keeps small and wide graphs on the per-row arithmetic exactly.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import CheckpointError, LossError, ModelError, TrainingError
from .graph import WindowedGraph, build_graph
from .preprocess import TimeWindow
from .sampling import SamplingStrategy, draw_negatives
from .seeding import derive_rng

LEAKY_SLOPE = 0.2
ELU_ALPHA = 1.0
PROB_EPS = 1e-7
#: Layer-1 attention heads of the model `train` builds.
HEADS = 2
DEFAULT_SNAPSHOT_EPOCHS = (0, 49, 99, 149, 199)
CHECKPOINT_FORMAT = "tracelink-checkpoint"
CHECKPOINT_VERSION = 1
#: `_link_loss` scores through the Gram matrix h @ h.T from this many rows...
GRAM_MIN_ROWS = 1024
#: ...and where n_nodes**2 is at most this many times the rows.
GRAM_NODES2_PER_ROW = 32
#: Adam's moment decay rates and denominator guard (the textbook defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
#: `optimizer_step` updates each array in blocks of this many elements, so a
#: block and its scratch stay in cache across the seven passes.
ADAM_BLOCK = 16384
#: `link_probability` scores pairs in blocks of this many.
LINK_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class GatDims:
    n_nodes: int
    hidden: int
    heads: int


@dataclass
class LayerParams:
    """One attention layer: per-head weight matrix plus attention vector."""

    weights: list[np.ndarray]  # each (fan_in, out_dim)
    att: list[np.ndarray]  # each (2 * out_dim,)


@dataclass
class AttentionRecord:
    """Layer-1 attention for one forward pass.

    Edges are the heads' rows (`_message_rows`) followed by one self-loop per
    node; `coeffs[e, k]` is head k's coefficient for edge e, summed over the
    calls a merged row stands for.  For every destination the coefficients
    over its incoming entries sum to 1 per head.
    """

    edge_src: np.ndarray
    edge_dst: np.ndarray
    coeffs: np.ndarray  # (n_edges + n_nodes, n_heads)
    n_nodes: int


@dataclass
class GatParams:
    """All learnable parameters."""

    layer1: LayerParams
    layer2: LayerParams

    @property
    def dims(self) -> GatDims:
        n_nodes, hidden = self.layer1.weights[0].shape
        return GatDims(n_nodes, hidden, len(self.layer1.weights))


@dataclass
class TrainArtifacts:
    """What `train` records.  `windows` holds the index of each trained
    (non-empty) window in training order, and `loss_history` every step's
    loss: `loss_history[e * len(windows) + j]` is epoch e's loss on window
    `windows[j]`."""

    loss_history: np.ndarray  # float64, one entry per Adam step
    windows: np.ndarray  # int64
    attention_snapshots: dict[int, AttentionRecord]


def _layout(dims: GatDims) -> list[tuple[str, tuple[int, ...]]]:
    """Every parameter array's checkpoint name and shape, in order: each
    head's layer-1 weight, each head's layer-1 attention vector, then layer
    2's weight and attention vector."""
    n, hidden, heads = dims.n_nodes, dims.hidden, dims.heads
    return (
        [(f"layer1.w.{k}", (n, hidden)) for k in range(heads)]
        + [(f"layer1.a.{k}", (2 * hidden,)) for k in range(heads)]
        + [("layer2.w", (heads * hidden, hidden)), ("layer2.a", (2 * hidden,))]
    )


def _param_arrays(params: GatParams) -> list[np.ndarray]:
    """Canonical flat view, in `_layout` order."""
    return [*params.layer1.weights, *params.layer1.att, *params.layer2.weights, *params.layer2.att]


def _from_arrays(flat: list[np.ndarray]) -> GatParams:
    """Inverse of `_param_arrays`."""
    heads = (len(flat) - 2) // 2
    return GatParams(LayerParams(flat[:heads], flat[heads:-2]), LayerParams(flat[-2:-1], flat[-1:]))


def init_params(n_nodes: int, hidden: int, heads: int, rng: np.random.Generator) -> GatParams:
    """Glorot-uniform initialization, one draw per array in `_layout` order;
    a vector of k entries has fan-in k and fan-out 1."""
    if n_nodes < 1 or hidden < 1 or heads < 1:
        raise ModelError(
            f"dimensions must be positive, got n_nodes={n_nodes}, hidden={hidden}, heads={heads}"
        )
    flat = []
    for _, shape in _layout(GatDims(n_nodes, hidden, heads)):
        fan_in, fan_out = (*shape, 1)[:2]
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        flat.append(rng.uniform(-limit, limit, size=shape))
    return _from_arrays(flat)


# ---------------------------------------------------------------------------
# forward pass

def _message_rows(graph: WindowedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src, dst, count) rows for attention and the positive loss terms: the
    distinct pairs with their call counts when 2 * pairs + n <= calls, that
    is when merging at least halves a head's rows with all n self-loops
    counted, else one row per call.  Both are one model up to rounding, but
    long training amplifies rounding, so where merging saves little the
    per-call arithmetic is kept exactly.  The rule counts all n loops, not
    the active nodes' loops a head runs; the latter would merge 38 of the 70
    seed-0 `--services 2000` training windows and change their bits."""
    if 2 * len(graph.pair_codes) + graph.n_nodes <= graph.n_edges:
        return graph.pair_src, graph.pair_dst, graph.pair_count
    return graph.edge_src, graph.edge_dst, np.ones(graph.n_edges)


def _attention_record(
    rows: tuple[np.ndarray, ...], nodes: np.ndarray, alphas: Sequence[np.ndarray], n: int
) -> AttentionRecord:
    """The heads' `alphas` over their `_head_rows`, laid out as the
    `_message_rows` `rows`, then one self-loop per node: 1.0 for a node
    outside the active `nodes`, whose loop is its only entry."""
    src, dst, _ = rows
    r, loops = len(src), np.arange(n, dtype=np.int64)
    stacked, coeffs = np.stack(alphas, axis=1), np.ones((r + n, len(alphas)))
    coeffs[:r], coeffs[r + nodes] = stacked[:r], stacked[r:]
    return AttentionRecord(np.concatenate([src, loops]), np.concatenate([dst, loops]), coeffs, n)


def _head_rows(rows: tuple[np.ndarray, ...], n: int) -> tuple[np.ndarray, ...]:
    """(nodes, src, dst, counts): the ascending ids of the active nodes,
    those that send or receive some `_message_rows` row, and the heads' one
    row set over them: the message rows, then a self-loop row of count 1.0
    per active node in `nodes` order, each endpoint given as its position
    in `nodes`."""
    src, dst, counts = rows
    touched = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n) > 0
    nodes = np.flatnonzero(touched)
    local, loops = np.cumsum(touched) - 1, np.arange(len(nodes))
    return (
        nodes, np.concatenate([local[src], loops]), np.concatenate([local[dst], loops]),
        np.concatenate([counts, np.ones(len(nodes))]),
    )


def _attention_head(wh: Tensor, att: Tensor, head_rows: tuple[np.ndarray, ...]) -> tuple[Tensor, np.ndarray]:
    """One attention head as a single tape node over the `_head_rows` row
    set; returns (output, alpha), alpha per row.

    Output row i is the alpha-weighted sum of wh[j] over the rows j -> i,
    i's self-loop row last, each weighing count * exp(score) in the
    softmax.  The backward is the chain rule written out by hand: scatters
    go through `segment_sum`, and wh's gradient adds its message,
    destination-score and source-score terms in that order.

    The rows span the active nodes only, so a head's cost follows the rows,
    not n.  Every other node has its self-loop alone, and gets that result
    exactly, for finite scores: alpha exp(0) / (0 + 1) = 1.0, output row
    w + 0.0, score gradient +0.0 and gradient row g + 0.0.  The BLAS
    products w @ a_dst, w @ a_src, w.T @ g_dst and w.T @ g_src keep their
    full length, zeros included, so they sum in the same order whatever the
    active set.
    """
    nodes, src, dst, counts = head_rows
    m = len(nodes)
    w, a = wh.data, att.data
    d = w.shape[1]
    a_dst, a_src = a[:d], a[d:]
    s_dst, s_src = w @ a_dst, w @ a_src
    src_ids, dst_ids = nodes[src], nodes[dst]
    w_src = w[src_ids]
    z = s_dst[dst_ids] + s_src[src_ids]
    leak = np.where(z > 0, 1.0, LEAKY_SLOPE)
    scores = z * leak
    shifted = np.exp(scores - ad.segment_max(scores, dst, m)[dst])
    weights = counts * shifted
    denom = ad.segment_sum(weights, dst, m)[dst]
    alpha = weights / denom
    out = w + 0.0
    out[nodes] = ad.segment_sum(w_src * alpha[:, None], dst, m)

    def backward(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g_msg = g[dst_ids]
        g_alpha = (g_msg * w_src).sum(axis=1)
        g_w_act = ad.segment_sum(g_msg * alpha[:, None], src, m)
        back = ad.segment_sum(-g_alpha * alpha / denom, dst, m)
        g_z = (g_alpha / denom + back[dst]) * counts * shifted * leak
        g_dst_act, g_src_act = ad.segment_sum(g_z, dst, m), ad.segment_sum(g_z, src, m)
        g_w_act += g_dst_act[:, None] * a_dst
        g_w_act += g_src_act[:, None] * a_src
        g_w, g_dst, g_src = g + 0.0, np.zeros(len(w)), np.zeros(len(w))
        g_w[nodes], g_dst[nodes], g_src[nodes] = g_w_act, g_dst_act, g_src_act
        return g_w, np.concatenate([w.T @ g_dst, w.T @ g_src])

    return ad.fused(out, (wh, att), backward), alpha


def _layer2_input(outs: Sequence[Tensor], w2: Tensor, used: np.ndarray | None) -> Tensor:
    """x @ w2, where x is the ELU of the layer-1 `outs` side by side, as one
    tape node.

    With `used` (ascending node ids) the concat and the ELU run on those rows
    only, and every other row of x is zero; with None they run on every row,
    with no zero-fill, scatter or gather.  The products x @ w2, g @ w2.T and
    x.T @ g keep their full n rows either way.  A zero row of x changes no
    other row's bits, but BLAS may round a product over a subset of rows
    differently from the same rows of the full product (OpenBLAS 0.3.31 does
    for g[used] @ w2.T at <= 9 rows).  The ELU selects with max/min and a
    0/1 blend rather than np.where, which is several times slower on an
    array of mixed signs.
    """
    parts = [t.data for t in outs]
    cuts = np.cumsum([p.shape[1] for p in parts[:-1]])
    h = np.concatenate(parts if used is None else [p[used] for p in parts], axis=1)
    act = np.maximum(h, 0.0) + np.minimum(ELU_ALPHA * np.expm1(h), 0.0)
    x = act
    if used is not None:
        x = np.zeros((len(parts[0]), h.shape[1]))
        x[used] = act
    w = w2.data

    def backward(g: np.ndarray) -> tuple[np.ndarray, ...]:
        g_x = g @ w.T
        above = h > 0
        # ELU': 1 where h > 0, else act + alpha (= alpha * e^h).
        g_h = (g_x if used is None else g_x[used]) * (above + (np.minimum(act, 0.0) + ELU_ALPHA) * ~above)
        if used is not None:
            g_x.fill(0.0)
            g_x[used] = g_h
            g_h = g_x
        return (*np.split(g_h, cuts, axis=1), x.T @ g)

    return ad.fused(x @ w, (*outs, w2), backward)


def _forward(
    leaves: list[Tensor], graph: WindowedGraph, scored: np.ndarray | None = None, keep_record: bool = True
) -> tuple[Tensor, AttentionRecord | None]:
    """Identity features -> layer 1 (concat heads) -> ELU -> layer 2, over
    the parameters wrapped as tensors in `_param_arrays` order.

    A row of layer 2's input reaches its output through the heads' rows,
    which join active nodes, or as an idle node's own output row.  So with
    `scored` node ids given, layer 2's input is computed on the active and
    scored nodes alone (`_layer2_input`): their output rows are exact and
    every other row is zero.  With None, every row is computed.  The
    layer-1 attention record is built only with `keep_record` (else None).
    """
    n = graph.n_nodes
    rows = _message_rows(graph)
    head_rows = _head_rows(rows, n)
    *layer1, w2, a2 = leaves
    heads = len(layer1) // 2
    # With identity input features, layer 1's transformed features are the
    # weight matrices themselves: row j of W is W @ x_j for one-hot x_j.
    pairs = zip(layer1[:heads], layer1[heads:])
    outs, alphas = zip(*[_attention_head(w, a, head_rows) for w, a in pairs])
    used = None
    if scored is not None:
        mask = np.zeros(n, dtype=bool)
        mask[head_rows[0]] = mask[scored] = True
        used = None if mask.all() else np.flatnonzero(mask)
    h2, _ = _attention_head(_layer2_input(outs, w2, used), a2, head_rows)
    return h2, _attention_record(rows, head_rows[0], alphas, n) if keep_record else None


def _check_graph(params: GatParams, graph: WindowedGraph) -> None:
    if graph.n_nodes != params.dims.n_nodes:
        raise ModelError(
            f"graph has {graph.n_nodes} nodes but the model was built for {params.dims.n_nodes}"
        )


def _check_node_ids(ids, n: int, what: str) -> np.ndarray:
    """`ids` as int64 node ids in [0, n); ids outside it, or not integers by
    value (fractional, NaN, +-inf, bool, str), raise ModelError."""
    ids = np.asarray(ids)
    if ids.size and ids.dtype.kind not in "iu":
        if ids.dtype.kind == "f":
            bad = ids[~(np.isfinite(ids) & (ids == np.trunc(ids)))]
        else:
            bad = ids.ravel()
        if bad.size:
            raise ModelError(f"{what} must be integer node ids, got {bad[:4].tolist()}")
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ModelError(f"{what} must be node ids in [0, {n}), got {ids.min()}..{ids.max()}")
    return ids.astype(np.int64, copy=False)


def model_forward(
    params: GatParams, graph: WindowedGraph, scored: np.ndarray | None = None
) -> tuple[np.ndarray, AttentionRecord]:
    """Embeddings plus the layer-1 attention record.

    With `scored`, an array of the node ids the caller reads, only those
    rows (and the window's active nodes) are computed and every other row
    is zero; without it, every row is.  A computed row has the same bits
    either way.
    """
    _check_graph(params, graph)
    if scored is not None:
        scored = _check_node_ids(scored, graph.n_nodes, "scored nodes")
    emb, record = _forward([Tensor(a) for a in _param_arrays(params)], graph, scored)
    return emb.data, record


def attention_coefficients(
    layer: LayerParams, features: np.ndarray, graph: WindowedGraph
) -> AttentionRecord:
    """Attention for one layer over explicit features (testing/inspection)."""
    n = graph.n_nodes
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != n:
        raise ModelError(f"features must be ({n}, fan_in), got {features.shape}")
    rows = _message_rows(graph)
    head_rows = _head_rows(rows, n)
    alphas = []
    for w, a in zip(layer.weights, layer.att):
        if features.shape[1] != w.shape[0]:
            raise ModelError(
                f"feature dim {features.shape[1]} does not match weight fan-in {w.shape[0]}"
            )
        alphas.append(_attention_head(Tensor(features @ w), Tensor(a), head_rows)[1])
    return _attention_record(rows, head_rows[0], alphas, n)


# ---------------------------------------------------------------------------
# link scoring and loss

def link_probability(embeddings: np.ndarray, src, dst):
    """sigmoid(h_src . h_dst); src/dst may be ints or index arrays.

    The endpoint rows are gathered and multiplied for LINK_BLOCK_ROWS pairs
    at a time, so the scratch does not grow with the pairs scored; each
    pair's dot product is its own row's sum, whatever the block.
    """
    scalar = np.ndim(src) == 0 and np.ndim(dst) == 0
    src, dst = np.broadcast_arrays(np.atleast_1d(src), np.atleast_1d(dst))
    scores = np.empty(src.shape, dtype=np.float64)
    for lo in range(0, len(src), LINK_BLOCK_ROWS):
        hi = lo + LINK_BLOCK_ROWS
        scores[lo:hi] = np.sum(embeddings[src[lo:hi]] * embeddings[dst[lo:hi]], axis=-1)
    out = ad.sigmoid(scores)
    return float(out[0]) if scalar else out


def bce_loss(pos_probs: np.ndarray, neg_probs: np.ndarray) -> float:
    """Mean binary cross-entropy over positives (label 1) and negatives
    (label 0), with probabilities clamped to [eps, 1-eps]."""
    pos_probs = np.atleast_1d(np.asarray(pos_probs, dtype=np.float64))
    neg_probs = np.atleast_1d(np.asarray(neg_probs, dtype=np.float64))
    total = pos_probs.size + neg_probs.size
    if total == 0:
        raise LossError("loss is undefined with no scored pairs at all")
    pos = np.clip(pos_probs, PROB_EPS, 1.0 - PROB_EPS)
    neg = np.clip(neg_probs, PROB_EPS, 1.0 - PROB_EPS)
    return float(-(np.log(pos).sum() + np.log1p(-neg).sum()) / total)


def _scores_through_gram(n_nodes: int, n_rows: int) -> bool:
    """Whether `_link_loss` reads its pair scores from the Gram matrix:
    only for a step that scores many rows for its node count."""
    return n_rows >= GRAM_MIN_ROWS and n_nodes * n_nodes <= GRAM_NODES2_PER_ROW * n_rows


def _link_loss(
    emb: Tensor, pos_edges: np.ndarray, pos_counts: np.ndarray, neg_edges: np.ndarray
) -> Tensor:
    """Mean binary cross-entropy of the scored pairs, as one tape node.

    Positive row r stands for pos_counts[r] identical pairs, so its term is
    weighted by that count, as is the mean.  BCE in logit form: -log sigmoid(z) = softplus(-z) and
    -log(1 - sigmoid(z)) = softplus(z) for a pair score z = h_u . h_v.
    Working on the raw pair scores keeps the per-pair gradient at exactly
    sigmoid(z) - label, which stays finite and corrective even for pairs
    scored with extreme confidence.

    Two kernels compute the same pair scores and gradient.  The per-row one
    gathers h_u and h_v for every row and scatters the row gradients back
    through `segment_sum`.  The Gram one reads z from S = h @ h.T and, with
    C the n x n sum of the rows' coefficients sign * scale * count *
    sigmoid(x) at (u, v) (one `segment_sum` over the codes u * n + v), gets
    the gradient as (C + C.T) @ h.  Its cost grows with n^2 * d, not with
    the rows, so it runs only where a step scores at least GRAM_MIN_ROWS
    (1024) rows and n^2 <= GRAM_NODES2_PER_ROW (32) * rows.  The two differ
    only in rounding.

    Measured for forward plus backward at n = 200, d = 64 (one core of a
    2-core Xeon, BLAS one thread), per-row against Gram: 0.92 against
    0.86 ms at n^2/rows = 131, where Gram starts to win; 3.0 against
    0.44 ms at 1,556 rows and 12 against 0.92 ms at 4,756, the range of
    `--events-mean 3000` windows (n^2/rows 8-26).  Default windows score
    at most ~230 rows (n^2/rows >= 170), and at n = 1984 with 526 rows,
    like `--services 2000` windows (n^2/rows >= 2,700), it is 0.85 against
    83 ms: neither meets the rule.  The row floor also keeps small test
    graphs, whose n^2 is tiny, on the per-row kernel.
    """
    h = emb.data
    n = h.shape[0]
    groups = ((pos_edges, pos_counts, -1.0), (neg_edges, np.ones(len(neg_edges)), 1.0))
    count = float(sum(counts.sum() for _, counts, _ in groups))
    gram = h @ h.T if _scores_through_gram(n, sum(len(pairs) for pairs, _, _ in groups)) else None
    saved, nll = [], []
    for pairs, counts, sign in groups:
        if gram is None:
            left, right = h[pairs[:, 0]], h[pairs[:, 1]]
            x = sign * (left * right).sum(axis=1)
        else:
            left = right = None
            x = sign * gram[pairs[:, 0], pairs[:, 1]]
        nll.append((counts * (np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))))).sum())
        saved.append((left, right, x))
    loss = sum(nll) / count

    def backward(g: np.ndarray) -> tuple[np.ndarray]:
        scale = g / count
        coeffs = [sign * (scale * counts * ad.sigmoid(x)) for (_, counts, sign), (_, _, x) in zip(groups, saved)]
        if gram is not None:
            codes = np.concatenate([pairs[:, 0] * n + pairs[:, 1] for pairs, _, _ in groups])
            c = ad.segment_sum(np.concatenate(coeffs), codes, n * n).reshape(n, n)
            return ((c + c.T) @ h,)
        index, values = [], []
        for (pairs, _, _), (left, right, _), g_z in zip(groups, saved, coeffs):
            index += [pairs[:, 0], pairs[:, 1]]
            values += [g_z[:, None] * right, g_z[:, None] * left]
        return (ad.segment_sum(np.concatenate(values), np.concatenate(index), n),)

    return ad.fused(loss, (emb,), backward)


def compute_gradients(
    params: GatParams,
    graph: WindowedGraph,
    pos_edges: np.ndarray,
    neg_edges: np.ndarray,
    pos_counts: np.ndarray | None = None,
    *,
    keep_record: bool = True,
) -> tuple[GatParams, float, AttentionRecord | None]:
    """Exact loss gradients for one training step.

    Positive row r stands for pos_counts[r] identical pairs (default 1).
    Returns (grads, loss, record) where grads mirrors the GatParams array
    structure and record is the forward pass's layer-1 attention, built
    only with `keep_record` (else None).
    Parameters that cannot influence any scored pair get exact zeros.
    Before the forward pass, a pair id outside [0, n) raises ModelError, and
    pos_counts other than one finite, non-negative count per positive row
    raises LossError, as do pairs that weigh nothing at all.
    """
    _check_graph(params, graph)
    pos_edges = _check_node_ids(pos_edges, graph.n_nodes, "scored pairs").reshape(-1, 2)
    neg_edges = _check_node_ids(neg_edges, graph.n_nodes, "scored pairs").reshape(-1, 2)
    scored = np.concatenate([pos_edges, neg_edges])
    counts = np.ones(len(pos_edges)) if pos_counts is None else np.asarray(pos_counts, dtype=np.float64)
    if counts.shape != (len(pos_edges),) or not np.isfinite(counts).all() or (counts < 0).any():
        raise LossError(
            f"pos_counts must hold one finite, non-negative count per positive row ({len(pos_edges)}), "
            f"got shape {counts.shape} with values {counts.ravel()[:4].tolist()}"
        )
    if counts.sum() + len(neg_edges) == 0:
        raise LossError("cannot take a step with no negative pairs and no positive count above zero")
    leaves = [Tensor(a, requires_grad=True) for a in _param_arrays(params)]
    emb, record = _forward(leaves, graph, scored, keep_record)
    loss = _link_loss(emb, pos_edges, counts, neg_edges)
    loss.backward()
    return _from_arrays([t.grad for t in leaves]), float(loss.data), record


# ---------------------------------------------------------------------------
# optimizer

@dataclass
class AdamState:
    """First/second moment estimates, laid out like `_param_arrays`."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0


def init_adam_state(params: GatParams) -> AdamState:
    arrays = _param_arrays(params)
    return AdamState([np.zeros_like(a) for a in arrays], [np.zeros_like(a) for a in arrays])


def optimizer_step(params: GatParams, grads: GatParams, state: AdamState, lr: float = 0.01) -> None:
    """One Adam update, in place, with the standard bias correction, over
    each array in blocks of whole rows: at most ADAM_BLOCK elements, at
    least one row."""
    state.step += 1
    t = state.step
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    fix1, fix2 = 1.0 - b1**t, 1.0 - b2**t
    for arr, g, m, v in zip(_param_arrays(params), _param_arrays(grads), state.m, state.v):
        rows = max(1, ADAM_BLOCK // math.prod(arr.shape[1:]))
        step, denom = np.empty_like(arr[:rows]), np.empty_like(arr[:rows])
        for lo in range(0, len(arr), rows):
            # arr -= lr * m_hat / (sqrt(v_hat) + eps) after the moment
            # updates, operation for operation, through two scratch blocks.
            p, gb, mb, vb = arr[lo:lo + rows], g[lo:lo + rows], m[lo:lo + rows], v[lo:lo + rows]
            sb, db = step[:len(p)], denom[:len(p)]
            np.multiply(mb, b1, out=mb)
            np.add(mb, np.multiply(gb, 1.0 - b1, out=sb), out=mb)
            np.multiply(vb, b2, out=vb)
            np.add(vb, np.multiply(np.square(gb, out=sb), 1.0 - b2, out=sb), out=vb)
            np.multiply(np.divide(mb, fix1, out=sb), lr, out=sb)
            np.add(np.sqrt(np.divide(vb, fix2, out=db), out=db), eps, out=db)
            p -= np.divide(sb, db, out=sb)


# ---------------------------------------------------------------------------
# training loop

def train(
    params: GatParams,
    train_windows: Sequence[TimeWindow],
    sampling: SamplingStrategy,
    *,
    epochs: int = 200,
    lr: float = 0.01,
    seed: int = 0,
    snapshot_epochs: Iterable[int] = DEFAULT_SNAPSHOT_EPOCHS,
) -> TrainArtifacts:
    """Epochs over the non-empty train windows, one Adam step per window.

    Each step scores the window's edge instances as positives (as
    `_message_rows`), draws fresh negatives by the configured strategy
    (independently seeded per epoch and window), and minimizes binary
    cross-entropy.  Gradients never carry over between steps.  At each
    snapshot epoch the attention record of the epoch's final forward pass is
    kept, and that step is the only one that builds a record.  A non-finite
    loss raises TrainingError naming epoch and window.
    """
    if epochs < 1:
        raise TrainingError(f"epochs must be positive, got {epochs}")
    prepared = []
    for window in train_windows:
        if not window.n_events:
            continue
        g = build_graph(window, params.dims.n_nodes)
        src, dst, counts = _message_rows(g)
        prepared.append((window.index, g, np.stack([src, dst], axis=1), counts))
    if not prepared:
        raise TrainingError("every training window is empty; nothing to learn from")

    snapshots_at = set(int(e) for e in snapshot_epochs)
    state = init_adam_state(params)
    history: list[float] = []
    snapshots: dict[int, AttentionRecord] = {}
    for epoch in range(epochs):
        snapshot = epoch in snapshots_at
        for step, (window_index, g, pos, counts) in enumerate(prepared, 1):
            rng = derive_rng(seed, "train-sampling", epoch, window_index)
            neg = draw_negatives(sampling, g, rng)
            keep_record = snapshot and step == len(prepared)
            grads, loss, record = compute_gradients(params, g, pos, neg, counts, keep_record=keep_record)
            if not math.isfinite(loss):
                raise TrainingError(f"training diverged: loss {loss} at epoch {epoch}, window {window_index}")
            optimizer_step(params, grads, state, lr)
            history.append(loss)
        if snapshot:
            snapshots[epoch] = record
    return TrainArtifacts(np.array(history), np.array([index for index, *_ in prepared]), snapshots)


# ---------------------------------------------------------------------------
# checkpoint io

def save_checkpoint(params: GatParams, path: str | Path, mapping_sha256: str = "") -> None:
    """Versioned container: one JSON header line, then raw little-endian
    float64 array bytes in the header's order, which is `_layout`'s."""
    dims, arrays = params.dims, _param_arrays(params)
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "n_nodes": dims.n_nodes,
        "hidden": dims.hidden,
        "heads": dims.heads,
        "mapping_sha256": mapping_sha256,
        "arrays": [{"name": name, "shape": list(a.shape)} for (name, _), a in zip(_layout(dims), arrays)],
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        handle.write(b"\n")
        for a in arrays:
            handle.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[GatParams, str]:
    """Inverse of save_checkpoint; returns (params, mapping_sha256).

    The header's `arrays` must list the `_layout` of its sizes exactly, in
    that order; any other list is refused, even one that names the same
    arrays."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    with open(path, "rb") as handle:
        header_line = handle.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too many digits, too deep
            raise CheckpointError(f"unreadable checkpoint header in {path}") from exc
        if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(f"{path} is not a {CHECKPOINT_FORMAT} file")
        if header.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {header.get('version')}")
        entries = header.get("arrays")
        sizes = [header.get(key) for key in ("n_nodes", "hidden", "heads")]
        if not (isinstance(entries, list) and all(type(size) is int and size > 0 for size in sizes)):
            raise CheckpointError(f"checkpoint {path} has a malformed header")
        payload = os.fstat(handle.fileno()).st_size - handle.tell()
        # Layer 1 alone holds n_nodes * hidden * heads floats, so a valid
        # file has no size above its float count; this also keeps the layout
        # below from growing with a forged head count.
        if 8 * max(sizes) > payload:
            raise CheckpointError(f"checkpoint {path} holds {payload} array bytes, too few for its sizes {sizes}")
        layout = _layout(GatDims(*sizes))
        declared = 8 * sum(math.prod(shape) for _, shape in layout)
        if declared != payload:
            raise CheckpointError(f"checkpoint {path} holds {payload} array bytes, its header declares {declared}")
        if len(entries) != len(layout):
            raise CheckpointError(f"checkpoint {path} lists {len(entries)} arrays, expected {len(layout)}")
        for entry, (name, shape) in zip(entries, layout):
            want = {"name": name, "shape": list(shape)}
            if entry != want or any(type(size) is not int for size in entry["shape"]):  # JSON 6.0, true == 6, 1
                same = isinstance(entry, dict) and entry.keys() == want.keys() and entry["name"] == name
                if same and isinstance(entry["shape"], list):
                    raise CheckpointError(f"checkpoint array {name} has shape {tuple(entry['shape'])}, expected {shape}")
                raise CheckpointError(f"checkpoint {path} lists {json.dumps(entry)} where array {name} belongs")
        flat = [np.frombuffer(handle.read(8 * math.prod(shape)), dtype="<f8").reshape(shape).copy()
                for _, shape in layout]
    return _from_arrays(flat), str(header.get("mapping_sha256", ""))
