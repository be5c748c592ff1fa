"""Link-prediction evaluation: ranking and threshold metrics plus the data
behind the standard plots (PR and ROC curves, attention heatmaps).

AUC uses the rank (Mann-Whitney) estimator with ties counted 1/2, which is
exactly the probability that a random positive outscores a random negative.
Curves are swept over the distinct observed scores, predicting positive at
`score >= threshold`.  One sort of a scored set gives that sweep, and it is
the only place the set's pairs are counted: AUC, both curves and the
confusion at τ (the counts at the sweep's last point above τ) read from it.
`summarize` gives a set's AUC, confusion and threshold metrics.  The sweep
of a pool of scored sets is their sweeps merged, so a pool is summarized,
and its curves drawn, without its scores.  A test window's curves are
`pr_points` and `roc_points` of its scored pairs.
AUC counts every sweep point; the ROC curve keeps only the points where it
turns (plus its two ends), since the rest lie on straight segments between
those.  The PR curve keeps every point: precision does not interpolate
linearly between two of its points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EvalError, UndefinedMetricError
from .gat import AttentionRecord, GatParams, link_probability, model_forward
from .graph import build_graph
from .preprocess import TimeWindow
from .sampling import SamplingStrategy, draw_negatives
from .seeding import derive_rng

#: The classification threshold: a pair is predicted a link iff its score > TAU.
TAU = 0.5


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


def auc(scores, labels) -> float:
    """Rank-based AUC over parallel score and label (1=linked) arrays; ties
    between classes count half a win."""
    return _sweep_auc(_threshold_sweep(scores, labels))


def confusion(scores, labels, tau: float = TAU) -> Confusion:
    """Counts under the strict rule: predicted positive iff score > tau."""
    return _sweep_confusion(_threshold_sweep(scores, labels), tau)


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


def _threshold_sweep(scores, labels) -> tuple:
    """(thresholds, tp, fp, n_pos, n_neg): cumulative tp/fp at each distinct
    score threshold, descending.  Predictions are inclusive (score >=
    threshold); every label but 1 counts as negative.  Zero pairs give an
    empty sweep.  +-inf ties like any other score; a NaN score has no place
    in the order, and every reader refuses a sweep that holds one
    (`_ranked`).  Scores and labels that are not parallel (of different
    lengths) raise UndefinedMetricError."""
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape:
        raise UndefinedMetricError(
            f"scores and labels must pair up, got {scores.size} scores and {labels.size} labels"
        )
    positive = labels == 1
    return _sweep(scores, positive, ~positive)


def _sweep(values: np.ndarray, tp_steps: np.ndarray, fp_steps: np.ndarray) -> tuple:
    """The `_threshold_sweep` of pairs given as `tp_steps[i]` positives and
    `fp_steps[i]` negatives scored `values[i]`.  Entries are stably sorted by
    value, descending, and each group of equal values ends in one sweep
    point, whose threshold is the group's last entry."""
    order = np.argsort(-values, kind="mergesort")
    sorted_values = values[order]
    # Last index of each tie group = counts with every pair >= that score.
    # (`!=`, not a difference: inf - inf is nan, which would split a tie.)
    last_idx = np.flatnonzero(np.append(sorted_values[1:] != sorted_values[:-1], values.size > 0))
    tp = np.cumsum(tp_steps[order], dtype=np.int64)
    fp = np.cumsum(fp_steps[order], dtype=np.int64)
    # The totals are the last cumulative counts (none, 0, for zero pairs).
    return sorted_values[last_idx], tp[last_idx], fp[last_idx], int(tp[-1:].sum()), int(fp[-1:].sum())


def _merged_sweep(sweeps: Sequence[tuple]) -> tuple:
    """The sweep of the pool of the scored sets whose sweeps are `sweeps`.

    Each sweep point becomes a step of the tp and fp it adds; the steps of
    all the sweeps, in order, are swept again as `_sweep` entries.  Equal
    thresholds of different sets fall into one group, and a group's
    threshold is its last set's, so this is the sweep of the concatenated
    scores, bit for bit.
    """
    thresholds = np.concatenate([sweep[0] for sweep in sweeps])
    tp_steps, fp_steps = (np.concatenate([np.diff(sweep[k], prepend=0) for sweep in sweeps]) for k in (1, 2))
    return _sweep(thresholds, tp_steps, fp_steps)


def _ranked(sweep: tuple) -> tuple:
    """`sweep`, if its scores can be ranked: at least one pair, none NaN.
    NaN sorts after every number, so a sweep holds one iff its last
    threshold is NaN."""
    thresholds = sweep[0]
    if thresholds.size == 0:
        raise UndefinedMetricError("cannot sweep thresholds over zero pairs")
    if np.isnan(thresholds[-1]):
        raise UndefinedMetricError("cannot rank a NaN score")
    return sweep


def _sweep_auc(sweep: tuple) -> float:
    """Mann-Whitney U over the sweep's n_pos * n_neg positive-negative
    pairs: each positive beats the negatives scored strictly lower and ties
    with half of those scored the same.  2U is an exact integer, so this is
    the mid-rank estimator bit for bit."""
    _, tp, fp, n_pos, n_neg = sweep
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"AUC needs both classes, got {n_pos} positives and {n_neg} negatives"
        )
    _ranked(sweep)
    two_u = np.diff(tp, prepend=0) * (2 * (n_neg - fp) + np.diff(fp, prepend=0))
    return int(two_u.sum()) / (2 * n_pos * n_neg)


def _sweep_confusion(sweep: tuple, tau: float) -> Confusion:
    """The confusion at `tau`: the pairs scored above it are those counted
    at the last of the k sweep points whose thresholds exceed it (the
    thresholds are distinct and descending), and none when k = 0."""
    thresholds, tp, fp, n_pos, n_neg = sweep
    if thresholds.size:
        _ranked(sweep)
    k = int(np.count_nonzero(thresholds > tau))
    tp_k, fp_k = (int(counts[k - 1]) if k else 0 for counts in (tp, fp))
    return Confusion(tp=tp_k, fp=fp_k, fn=n_pos - tp_k, tn=n_neg - fp_k)


def _sweep_pr(sweep: tuple) -> Curve:
    thresholds, tp, fp, n_pos, _ = _ranked(sweep)
    if n_pos == 0:
        raise UndefinedMetricError("PR curve needs at least one positive pair")
    end = int(np.argmax(tp == n_pos)) + 1
    tp, fp = tp[:end], fp[:end]
    return thresholds[:end], tp / (tp + fp), tp / n_pos


def _sweep_roc(sweep: tuple) -> Curve:
    """The corners of the sweep's ROC: the (inf, 0, 0) anchor, every sweep
    point where the curve turns, and the last point.  A point whose step in
    from the previous point is parallel to its step out to the next lies on
    the segment between them, so it is dropped; the test is exact, on the
    integer counts, before any division.  Each step is nonzero and points up
    or right, so parallel steps never turn back."""
    thresholds, tp, fp, n_pos, n_neg = _ranked(sweep)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"ROC needs both classes, got {n_pos} positives and {n_neg} negatives"
        )
    tp, fp = np.append(0, tp), np.append(0, fp)
    dtp, dfp = np.diff(tp), np.diff(fp)
    keep = np.ones(tp.size, dtype=bool)
    keep[1:-1] = dfp[:-1] * dtp[1:] != dtp[:-1] * dfp[1:]
    return np.append(math.inf, thresholds)[keep], fp[keep] / n_neg, tp[keep] / n_pos


def pr_points(scores, labels) -> Curve:
    """(threshold, precision, recall) arrays at each distinct score
    threshold, highest first, truncated at (and including) the first point
    reaching full recall."""
    return _sweep_pr(_threshold_sweep(scores, labels))


def roc_points(scores, labels) -> Curve:
    """(threshold, fpr, tpr) arrays at the corners of the same sweep,
    anchored at (inf, 0, 0); the lowest threshold predicts everything
    positive so the series ends at (1, 1).  A sweep point between two
    corners lies on the segment joining them and is left out: interpolating
    the corners gives it back."""
    return _sweep_roc(_threshold_sweep(scores, labels))


def roc_area(curve: Curve) -> float:
    """Trapezoidal area under a `roc_points` curve (equals `auc` analytically)."""
    _, fpr, tpr = curve
    return float(np.sum(np.diff(fpr) * (tpr[:-1] + tpr[1:]) / 2.0))


# ---------------------------------------------------------------------------
# windowed evaluation

@dataclass(frozen=True)
class ScoredSet:
    """AUC, the confusion at τ and its threshold metrics of one set of
    scored pairs: a test window's, or the pool of every window's."""

    auc: float
    confusion: Confusion
    metrics: ScalarMetrics


def summarize(scores, labels, tau: float = TAU) -> ScoredSet:
    """AUC, the confusion at `tau` and its threshold metrics of one scored
    set, all from a single threshold sweep."""
    return _scored(_threshold_sweep(scores, labels), tau)


def _scored(sweep: tuple, tau: float) -> ScoredSet:
    area = _sweep_auc(sweep)  # first: a missing class is named before a NaN score
    conf = _sweep_confusion(sweep, tau)
    return ScoredSet(area, conf, scalar_metrics(conf))


@dataclass
class EvalReport:
    """Each scored window's metrics by window index, the pool's (all scored
    pairs together) with its PR and ROC curves, macro averages (means of
    the window values), and the attention record of the last scored
    window."""

    windows: dict[int, ScoredSet]
    pooled: ScoredSet
    pr: Curve
    roc: Curve
    macro: dict[str, float]
    last_attention: AttentionRecord


def evaluate_windows(
    params: GatParams,
    test_windows: Sequence[TimeWindow],
    sampling: SamplingStrategy,
    tau: float = TAU,
    seed: int = 0,
    on_window: Callable[[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray], None] | None = None,
) -> EvalReport:
    """Score every non-empty test window.

    Per window: draw as many sampled non-edges as the window has edge
    instances, run the model on the window's own graph for the endpoints of
    both, and score the instances as positives (label 1) and the non-edges
    as negatives (label 0).  `on_window(window_index, src, dst, scores,
    labels)` gets those scored pairs, as parallel arrays, right away.  The
    report keeps the window's `ScoredSet`, read off its threshold sweep; its
    curves are not drawn.  The pool of all windows' pairs is summarized, and
    its curves drawn, from the windows' sweeps merged (`_merged_sweep`), and
    the window metrics are also averaged (macro).  Non-finite scores raise
    EvalError.
    """
    scored: dict[int, ScoredSet] = {}
    sweeps: list[tuple] = []
    for window in test_windows:
        if not window.n_events:
            continue
        g = build_graph(window, params.dims.n_nodes)
        rng = derive_rng(seed, "eval-sampling", window.index)
        neg = draw_negatives(sampling, g, rng)
        src = np.concatenate([g.edge_src, neg[:, 0]])
        dst = np.concatenate([g.edge_dst, neg[:, 1]])
        emb, last_attention = model_forward(params, g, np.concatenate([src, dst]))
        scores = link_probability(emb, src, dst)
        if not np.isfinite(scores).all():
            raise EvalError(f"window {window.index} has non-finite scores; the model has diverged")
        labels = np.repeat([1, 0], [g.n_edges, len(neg)])
        sweep = _threshold_sweep(scores, labels)
        scored[window.index] = _scored(sweep, tau)
        if on_window is not None:
            on_window(window.index, src, dst, scores, labels)
        sweeps.append(sweep)
    if not scored:
        raise EvalError("every test window is empty; nothing to evaluate")
    macro = {"auc": float(np.mean([s.auc for s in scored.values()]))}
    for key in ("accuracy", "precision", "recall", "f1"):
        macro[key] = float(np.mean([getattr(s.metrics, key) for s in scored.values()]))
    pool = _merged_sweep(sweeps)
    return EvalReport(
        windows=scored,
        pooled=_scored(pool, tau),
        pr=_sweep_pr(pool),
        roc=_sweep_roc(pool),
        macro=macro,
        last_attention=last_attention,
    )


# ---------------------------------------------------------------------------
# attention export

ATTENTION_NODES = 100


def export_attention(record: AttentionRecord) -> np.ndarray:
    """Dense mean-over-heads attention for node ids [0, ATTENTION_NODES),
    cut to the record's nodes.

    Entry [i, j] is the coefficient with which destination i attends to
    source j (self-loops included, parallel edges summed); pairs with no
    edge stay 0.  A destination whose whole in-neighborhood lies inside the
    span therefore has a row summing to 1.
    """
    size = min(ATTENTION_NODES, record.n_nodes)
    mean_coeffs = record.coeffs.mean(axis=1)
    mask = (record.edge_src < size) & (record.edge_dst < size)
    matrix = np.zeros((size, size), dtype=np.float64)
    np.add.at(matrix, (record.edge_dst[mask], record.edge_src[mask]), mean_coeffs[mask])
    return matrix
