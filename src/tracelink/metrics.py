"""Link-prediction evaluation: ranking and threshold metrics plus the data
behind the standard plots (PR and ROC curves, attention heatmaps).

AUC uses the rank (Mann-Whitney) estimator with ties counted 1/2, which is
exactly the probability that a random positive outscores a random negative.
Curves are swept over the distinct observed scores, predicting positive at
`score >= threshold`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EvalError, ExportError, UndefinedMetricError
from .gat import AttentionRecord, GatParams, link_probability, model_forward
from .graph import build_graph
from .preprocess import TimeWindow
from .sampling import DEFAULT_RETRY_FACTOR, SamplingStrategy, draw_negatives
from .seeding import derive_rng


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class ScalarMetrics:
    """Threshold metrics; zero-denominator cases yield 0.0 and are flagged."""

    accuracy: float
    precision: float
    recall: float
    f1: float
    flagged: tuple[str, ...] = ()


#: A PR or ROC curve: (threshold, x, y) arrays, one entry per point.
Curve = tuple[np.ndarray, np.ndarray, np.ndarray]


def _as_arrays(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    return np.asarray(scores, dtype=np.float64), np.asarray(labels, dtype=np.int64)


def auc(scores, labels) -> float:
    """Rank-based AUC over parallel score and label (1=linked) arrays; ties
    between classes count half a win."""
    scores, labels = _as_arrays(scores, labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"AUC needs both classes, got {n_pos} positives and {n_neg} negatives"
        )
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=np.float64)
    # Average (mid) ranks across tie groups, 1-based.
    boundaries = np.flatnonzero(np.diff(scores[order])) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(scores)]])
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    rank_sum = ranks[labels == 1].sum()
    u_stat = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u_stat / (n_pos * n_neg))


def confusion(scores, labels, tau: float = 0.5) -> Confusion:
    """Counts under the strict rule: predicted positive iff score > tau."""
    scores, labels = _as_arrays(scores, labels)
    predicted = scores > tau
    actual = labels == 1
    return Confusion(
        tp=int((predicted & actual).sum()),
        fp=int((predicted & ~actual).sum()),
        fn=int((~predicted & actual).sum()),
        tn=int((~predicted & ~actual).sum()),
    )


def scalar_metrics(conf: Confusion) -> ScalarMetrics:
    if conf.total == 0:
        raise EvalError("metrics are undefined over zero pairs")
    flagged: list[str] = []

    def ratio(num: int, den: int, name: str) -> float:
        if den == 0:
            flagged.append(name)
            return 0.0
        return num / den

    accuracy = (conf.tp + conf.tn) / conf.total
    precision = ratio(conf.tp, conf.tp + conf.fp, "precision")
    recall = ratio(conf.tp, conf.tp + conf.fn, "recall")
    if precision + recall == 0.0:
        flagged.append("f1")
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return ScalarMetrics(accuracy, precision, recall, f1, tuple(flagged))


def _threshold_sweep(scores, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Cumulative tp/fp at each distinct score threshold, descending.

    Predictions are inclusive (score >= threshold).
    """
    scores, labels = _as_arrays(scores, labels)
    if len(scores) == 0:
        raise UndefinedMetricError("cannot sweep thresholds over zero pairs")
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_pos = (labels[order] == 1).astype(np.int64)
    cum_tp = np.cumsum(sorted_pos)
    cum_fp = np.cumsum(1 - sorted_pos)
    # Last index of each tie group = counts with every pair >= that score.
    distinct_last = np.flatnonzero(np.diff(sorted_scores)) if len(scores) else np.empty(0, np.intp)
    last_idx = np.concatenate([distinct_last, [len(scores) - 1]]).astype(np.intp)
    thresholds = sorted_scores[last_idx]
    return thresholds, cum_tp[last_idx], cum_fp[last_idx], int(sorted_pos.sum()), int(len(scores) - sorted_pos.sum())


def pr_points(scores, labels) -> Curve:
    """(threshold, precision, recall) arrays at each distinct score
    threshold, highest first, truncated at (and including) the first point
    reaching full recall."""
    thresholds, tp, fp, n_pos, _ = _threshold_sweep(scores, labels)
    if n_pos == 0:
        raise UndefinedMetricError("PR curve needs at least one positive pair")
    end = int(np.argmax(tp == n_pos)) + 1
    tp, fp = tp[:end], fp[:end]
    return thresholds[:end], tp / (tp + fp), tp / n_pos


def roc_points(scores, labels) -> Curve:
    """(threshold, fpr, tpr) arrays over the same sweep, anchored at
    (inf, 0, 0); the lowest threshold predicts everything positive so the
    series ends at (1, 1)."""
    thresholds, tp, fp, n_pos, n_neg = _threshold_sweep(scores, labels)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"ROC needs both classes, got {n_pos} positives and {n_neg} negatives"
        )
    return np.append(math.inf, thresholds), np.append(0.0, fp / n_neg), np.append(0.0, tp / n_pos)


def roc_area(curve: Curve) -> float:
    """Trapezoidal area under a `roc_points` curve (equals `auc` analytically)."""
    _, fpr, tpr = curve
    return float(np.sum(np.diff(fpr) * (tpr[:-1] + tpr[1:]) / 2.0))


# ---------------------------------------------------------------------------
# windowed evaluation

@dataclass
class WindowReport:
    """One test window's metrics plus every scored pair as parallel arrays:
    its edge instances (label 1) followed by the sampled negatives (label 0)."""

    window_index: int
    auc: float
    confusion: Confusion
    metrics: ScalarMetrics
    pr: Curve
    roc: Curve
    src: np.ndarray
    dst: np.ndarray
    scores: np.ndarray
    labels: np.ndarray


@dataclass
class EvalReport:
    """Per-window results plus pooled (all scored pairs together) and
    macro-averaged (mean of per-window values) aggregates."""

    windows: list[WindowReport]
    pooled_auc: float
    pooled_confusion: Confusion
    pooled_metrics: ScalarMetrics
    pooled_pr: Curve
    pooled_roc: Curve
    macro: dict[str, float]
    tau: float
    last_attention: AttentionRecord | None = None


def evaluate_windows(
    params: GatParams,
    test_windows: Sequence[TimeWindow],
    sampling: SamplingStrategy,
    tau: float = 0.5,
    seed: int = 0,
    retry_factor: int = DEFAULT_RETRY_FACTOR,
) -> EvalReport:
    """Score every non-empty test window.

    Per window: run the model on that window's own graph, score its edge
    instances as positives and an equal number of sampled non-edges as
    negatives, then compute ranking and threshold metrics.  Window scores are
    pooled for the aggregate numbers and also averaged per window (macro).
    Non-finite scores raise EvalError.
    """
    reports: list[WindowReport] = []
    last_attention: AttentionRecord | None = None
    for window in test_windows:
        if not window.n_events:
            continue
        g = build_graph(window, params.dims.n_nodes)
        emb, attention = model_forward(params, g)
        last_attention = attention
        rng = derive_rng(seed, "eval-sampling", window.index)
        neg = draw_negatives(sampling, g, rng, retry_factor)
        src = np.concatenate([g.edge_src, neg[:, 0]])
        dst = np.concatenate([g.edge_dst, neg[:, 1]])
        scores = link_probability(emb, src, dst)
        if not np.isfinite(scores).all():
            raise EvalError(f"window {window.index} has non-finite scores; the model has diverged")
        labels = np.repeat([1, 0], [g.n_edges, len(neg)])
        conf = confusion(scores, labels, tau)
        reports.append(WindowReport(
            window.index, auc(scores, labels), conf, scalar_metrics(conf),
            pr_points(scores, labels), roc_points(scores, labels), src, dst, scores, labels,
        ))
    if not reports:
        raise EvalError("every test window is empty; nothing to evaluate")
    scores = np.concatenate([r.scores for r in reports])
    labels = np.concatenate([r.labels for r in reports])
    pooled_conf = confusion(scores, labels, tau)
    macro = {"auc": float(np.mean([r.auc for r in reports]))}
    for key in ("accuracy", "precision", "recall", "f1"):
        macro[key] = float(np.mean([getattr(r.metrics, key) for r in reports]))
    return EvalReport(
        windows=reports,
        pooled_auc=auc(scores, labels),
        pooled_confusion=pooled_conf,
        pooled_metrics=scalar_metrics(pooled_conf),
        pooled_pr=pr_points(scores, labels),
        pooled_roc=roc_points(scores, labels),
        macro=macro,
        tau=tau,
        last_attention=last_attention,
    )


# ---------------------------------------------------------------------------
# attention export

def export_attention(record: AttentionRecord, node_range: tuple[int, int] = (0, 100)) -> np.ndarray:
    """Dense mean-over-heads attention for node ids in [lo, hi).

    Entry [i, j] is the coefficient with which destination lo+i attends to
    source lo+j (self-loops included, parallel edges summed); pairs with no
    edge stay 0.  A destination whose whole in-neighborhood lies inside the
    range therefore has a row summing to 1.
    """
    lo, hi = node_range
    if not (0 <= lo < hi <= record.n_nodes):
        raise ExportError(
            f"node range [{lo}, {hi}) is empty or outside [0, {record.n_nodes})"
        )
    size = hi - lo
    mean_coeffs = record.coeffs.mean(axis=1)
    mask = (record.edge_src >= lo) & (record.edge_src < hi) & (record.edge_dst >= lo) & (record.edge_dst < hi)
    matrix = np.zeros((size, size), dtype=np.float64)
    np.add.at(matrix, (record.edge_dst[mask] - lo, record.edge_src[mask] - lo), mean_coeffs[mask])
    return matrix
