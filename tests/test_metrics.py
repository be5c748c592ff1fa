"""Ranking/threshold metrics, curve sweeps, windowed evaluation, attention export."""
from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from tracelink import metrics
from tracelink.errors import EvalError, UndefinedMetricError
from tracelink.gat import AttentionRecord, init_params, link_probability, model_forward
from tracelink.graph import build_graph
from tracelink.metrics import (
    ATTENTION_NODES,
    Confusion,
    auc,
    confusion,
    evaluate_windows,
    export_attention,
    pr_points,
    roc_area,
    roc_points,
    scalar_metrics,
    summarize,
)
from tracelink.preprocess import TimeWindow
from tracelink.sampling import SamplingKind, SamplingStrategy


def pairs_of(pos_scores, neg_scores):
    """(scores, labels) arrays: the positives first, then the negatives."""
    scores = np.concatenate([np.asarray(pos_scores, dtype=np.float64),
                             np.asarray(neg_scores, dtype=np.float64)])
    labels = np.repeat([1, 0], [len(pos_scores), len(neg_scores)])
    return scores, labels


def brute_force_auc(scores, labels):
    """All positive x negative comparisons; ties are half wins."""
    pos = scores[labels == 1].tolist()
    neg = scores[labels == 0].tolist()
    wins = sum(1.0 if a > b else 0.5 if a == b else 0.0
               for a, b in itertools.product(pos, neg))
    return wins / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# auc

def test_auc_perfect_separation():
    assert auc(*pairs_of([0.9, 0.8], [0.2, 0.1])) == 1.0


def test_auc_all_ties():
    assert auc(*pairs_of([0.5, 0.5], [0.5, 0.5, 0.5])) == 0.5


def test_auc_one_win_one_loss():
    assert auc(*pairs_of([0.7, 0.3], [0.5])) == 0.5


def test_auc_requires_both_classes():
    with pytest.raises(UndefinedMetricError):
        auc(*pairs_of([0.9], []))
    with pytest.raises(UndefinedMetricError):
        auc(*pairs_of([], [0.1]))


def test_auc_equals_brute_force_exactly():
    rng = np.random.default_rng(0)
    # 200 small sets, then a few of several hundred pairs
    sizes = [(int(rng.integers(1, 26)), int(rng.integers(1, 26))) for _ in range(200)]
    sizes += [(300, 300), (450, 120), (37, 600)]
    for n_pos, n_neg in sizes:
        # coarse grid scores force plenty of ties
        pos = rng.integers(0, 8, size=n_pos) / 8.0
        neg = rng.integers(0, 8, size=n_neg) / 8.0
        pairs = pairs_of(pos, neg)
        assert auc(*pairs) == brute_force_auc(*pairs)
    # scores tied at +-inf tie like any others
    pairs = pairs_of([math.inf, -math.inf, 0.5], [math.inf, -math.inf])
    assert auc(*pairs) == brute_force_auc(*pairs) == 0.5


def test_auc_counts_every_label_but_1_as_a_negative():
    scores, labels = [0.9, 0.1, 0.5], [1, 0, 2]
    assert auc(scores, labels) == summarize(scores, labels).auc == roc_area(roc_points(scores, labels)) == 1.0


# ---------------------------------------------------------------------------
# confusion and scalar metrics

def test_confusion_basic():
    conf = confusion(*pairs_of([0.9], [0.1]), tau=0.5)
    assert (conf.tp, conf.fp, conf.fn, conf.tn) == (1, 0, 0, 1)
    assert conf.total == 2


def test_confusion_low_scoring_positive_is_fn():
    conf = confusion(*pairs_of([0.4], []), tau=0.5)
    assert (conf.tp, conf.fn) == (0, 1)


def test_confusion_threshold_is_strict():
    conf = confusion(*pairs_of([0.5], [0.5]), tau=0.5)
    assert (conf.tp, conf.fn) == (0, 1)
    assert (conf.fp, conf.tn) == (0, 1)


#: Scores with ties at +-inf and at zero of either sign.
SCORE_GRID = (-math.inf, -1.0, -0.0, 0.0, 0.5, 1.0, math.inf)


@example([(0.5, 1), (0.5, 2)], 0.5)  # ties at tau; a label-2 pair is the only negative
@example([(-0.0, 1), (0.0, 0)], -0.0)
@example([], 0.5)
@given(
    st.lists(st.tuples(st.sampled_from(SCORE_GRID), st.integers(0, 2)), max_size=20),
    st.one_of(st.sampled_from(SCORE_GRID), st.floats(-2.0, 2.0)),  # on the grid and between its points
)
def test_confusion_equals_a_direct_count(pairs, tau):
    scores = np.array([score for score, _ in pairs], dtype=np.float64)
    labels = np.array([label for _, label in pairs], dtype=np.int64)
    pos = [score for score, label in pairs if label == 1]
    neg = [score for score, label in pairs if label != 1]
    want = Confusion(tp=sum(s > tau for s in pos), fp=sum(s > tau for s in neg),
                     fn=sum(s <= tau for s in pos), tn=sum(s <= tau for s in neg))
    assert confusion(scores, labels, tau) == want
    if pos and neg:
        assert summarize(scores, labels, tau).confusion == want


def test_scalar_metrics_perfect():
    m = scalar_metrics(Confusion(1, 0, 0, 1))
    assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)
    assert m.flagged == ()


def test_scalar_metrics_degenerate_all_negative_predictions():
    m = scalar_metrics(Confusion(0, 0, 5, 5))
    assert m.accuracy == 0.5
    assert m.precision == 0.0 and "precision" in m.flagged
    assert m.recall == 0.0 and "recall" not in m.flagged
    assert m.f1 == 0.0 and "f1" in m.flagged


def test_scalar_metrics_zero_total_is_error():
    with pytest.raises(EvalError):
        scalar_metrics(Confusion(0, 0, 0, 0))


@given(st.tuples(*[st.integers(0, 40)] * 4).filter(lambda t: sum(t) > 0))
def test_scalar_metrics_formulas(counts):
    tp, fp, fn, tn = counts
    m = scalar_metrics(Confusion(tp, fp, fn, tn))
    assert m.accuracy == (tp + tn) / (tp + fp + fn + tn)
    if tp + fp > 0:
        assert m.precision == tp / (tp + fp)
    if tp + fn > 0:
        assert m.recall == tp / (tp + fn)
    if m.precision + m.recall > 0:
        assert m.f1 == pytest.approx(
            2 * m.precision * m.recall / (m.precision + m.recall)
        )


# ---------------------------------------------------------------------------
# curves

def test_pr_perfect_classifier_has_unit_precision():
    thresholds, precision, recall = pr_points(*pairs_of([0.9, 0.8], [0.2, 0.1]))
    assert (precision == 1.0).all()
    assert recall[-1] == 1.0
    # sweep stops once every positive is recovered
    assert len(thresholds) == len(precision) == len(recall) == 2


def test_pr_single_positive():
    curve = pr_points(*pairs_of([0.7], []))
    assert [column.tolist() for column in curve] == [[0.7], [1.0], [1.0]]


def test_pr_needs_a_positive():
    with pytest.raises(UndefinedMetricError):
        pr_points(*pairs_of([], [0.4]))
    with pytest.raises(UndefinedMetricError):
        pr_points(np.array([]), np.array([]))


def test_pr_matches_exhaustive_enumeration():
    scores, labels = pairs_of([0.8, 0.4], [0.6, 0.4])
    curve = pr_points(scores, labels)
    pairs = list(zip(scores.tolist(), labels.tolist()))
    # oracle: predict positive at score >= t for each distinct score desc
    expected = []
    for t in sorted(set(scores.tolist()), reverse=True):
        tp = sum(1 for score, label in pairs if label == 1 and score >= t)
        fp = sum(1 for score, label in pairs if label == 0 and score >= t)
        expected.append((t, tp / (tp + fp), tp / 2))
        if tp == 2:
            break
    assert list(zip(*(column.tolist() for column in curve))) == expected


@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=15),
    st.lists(st.integers(0, 6), max_size=15),
)
def test_pr_recall_monotone_in_threshold(pos, neg):
    thresholds, _, recall = pr_points(*pairs_of([s / 6 for s in pos], [s / 6 for s in neg]))
    recalls = recall.tolist()
    assert recalls == sorted(recalls)
    assert recalls[-1] == 1.0
    assert thresholds.tolist() == sorted(thresholds.tolist(), reverse=True)


def test_roc_perfect_traces_the_corner():
    curve = roc_points(*pairs_of([0.9, 0.8], [0.2, 0.1]))
    thresholds, fpr, tpr = curve
    xy = list(zip(fpr.tolist(), tpr.tolist()))
    assert thresholds[0] == math.inf
    assert xy[0] == (0.0, 0.0)
    assert (0.0, 1.0) in xy
    assert xy[-1] == (1.0, 1.0)
    assert roc_area(curve) == 1.0


def test_roc_all_ties_is_diagonal():
    curve = roc_points(*pairs_of([0.5], [0.5]))
    assert [column.tolist() for column in curve] == [[math.inf, 0.5], [0.0, 1.0], [0.0, 1.0]]
    assert roc_area(curve) == 0.5


def test_roc_needs_both_classes():
    with pytest.raises(UndefinedMetricError):
        roc_points(*pairs_of([0.9], []))


@given(
    st.lists(st.integers(0, 10), min_size=1, max_size=20),
    st.lists(st.integers(0, 10), min_size=1, max_size=20),
)
def test_roc_area_equals_auc(pos, neg):
    pairs = pairs_of([s / 10 for s in pos], [s / 10 for s in neg])
    assert abs(roc_area(roc_points(*pairs)) - auc(*pairs)) < 1e-9


@example([3, 3, 3], [3, 3])  # all tied: the anchor and (1, 1) only
@example([5, 6, 7], [0, 1, 2])  # perfectly separated: the anchor, (0, 1) and (1, 1)
@given(
    st.lists(st.integers(0, 4), min_size=1, max_size=30),
    st.lists(st.integers(0, 4), min_size=1, max_size=30),
)
def test_roc_keeps_exactly_the_corners_of_the_full_sweep(pos, neg):
    pairs = pairs_of(pos, neg)
    thresholds, tp, fp, n_pos, n_neg = metrics._threshold_sweep(*pairs)
    tp, fp = np.append(0, tp), np.append(0, fp)
    full = list(zip(np.append(math.inf, thresholds).tolist(), (fp / n_neg).tolist(), (tp / n_pos).tolist()))
    curve = roc_points(*pairs)
    kept, at = [], 0
    for point in zip(*(column.tolist() for column in curve)):
        at = full.index(point, at)  # in order, each a point of the full sweep
        kept.append(at)
        at += 1
    assert kept[0] == 0 and full[0] == (math.inf, 0.0, 0.0)
    assert kept[-1] == len(full) - 1 and full[-1][1:] == (1.0, 1.0)

    def cross(a, k, b):  # zero iff point k lies on the segment from a to b (counts only rise)
        return (fp[k] - fp[a]) * (tp[b] - tp[a]) - (tp[k] - tp[a]) * (fp[b] - fp[a])

    for a, b in zip(kept, kept[1:]):
        assert all(cross(a, k, b) == 0 for k in range(a + 1, b)), (a, b)
    for a, k, b in zip(kept, kept[1:], kept[2:]):
        assert cross(a, k, b) != 0, k
    _, fpr, tpr = (np.array(column) for column in zip(*full))
    assert abs(roc_area(curve) - float(np.sum(np.diff(fpr) * (tpr[:-1] + tpr[1:]) / 2.0))) <= 1e-12


# ---------------------------------------------------------------------------
# one summary per scored set

def test_summarize_equals_the_public_functions_exactly():
    rng = np.random.default_rng(1)
    for n_pos, n_neg in [(1, 1), (3, 40), (25, 7), (300, 280)]:
        pairs = pairs_of(rng.integers(0, 9, size=n_pos) / 8.0, rng.integers(0, 9, size=n_neg) / 8.0)
        scored = summarize(*pairs, tau=0.5)
        assert scored.auc == auc(*pairs)
        assert scored.confusion == confusion(*pairs, tau=0.5)
        assert scored.metrics == scalar_metrics(scored.confusion)
        sweep = metrics._threshold_sweep(*pairs)
        for got, want in ((metrics._sweep_pr(sweep), pr_points(*pairs)), (metrics._sweep_roc(sweep), roc_points(*pairs))):
            assert [column.tolist() for column in got] == [column.tolist() for column in want]


def test_summarize_needs_both_classes_like_auc():
    for pairs in (pairs_of([0.9, 0.4], []), pairs_of([], [0.3]), pairs_of([], [])):
        with pytest.raises(UndefinedMetricError, match="AUC needs both classes"):
            summarize(*pairs)


@pytest.mark.parametrize("score_fn", [auc, confusion, pr_points, roc_points, summarize], ids=lambda f: f.__name__)
def test_nan_scores_are_refused(score_fn):
    for pairs in (pairs_of([math.nan], [0.5]), pairs_of([0.5], [0.2, math.nan])):
        with pytest.raises(UndefinedMetricError, match="NaN"):
            score_fn(*pairs)
    score_fn(*pairs_of([math.inf, -math.inf], [math.inf, -math.inf]))  # ties at +-inf stay legal


@pytest.mark.parametrize("score_fn", [auc, confusion, pr_points, roc_points, summarize], ids=lambda f: f.__name__)
def test_scores_and_labels_of_different_lengths_are_refused(score_fn):
    for scores, labels in [([0.9, 0.1], [1]), ([0.9, 0.2], [1]), ([0.9], [1, 0]),
                           ([0.9, 0.2], [1, 0, 1]), ([0.9, 0.2, 0.4], [1, 0]), ([], [1]), ([0.3], [])]:
        with pytest.raises(UndefinedMetricError, match=f"got {len(scores)} scores and {len(labels)} labels"):
            score_fn(scores, labels)


def test_each_reader_names_the_first_thing_it_lacks():
    zero, nan_one_class = (np.array([]), np.array([])), pairs_of([math.nan], [])
    for score_fn, for_zero, for_nan in [
        (auc, "AUC needs both classes", "AUC needs both classes"),
        (summarize, "AUC needs both classes", "AUC needs both classes"),
        (pr_points, "cannot sweep thresholds over zero pairs", "cannot rank a NaN score"),
        (roc_points, "cannot sweep thresholds over zero pairs", "cannot rank a NaN score"),
    ]:
        with pytest.raises(UndefinedMetricError, match=for_zero):
            score_fn(*zero)
        with pytest.raises(UndefinedMetricError, match=for_nan):
            score_fn(*nan_one_class)
    assert confusion(*zero) == Confusion(0, 0, 0, 0)
    with pytest.raises(UndefinedMetricError, match="cannot rank a NaN score"):
        confusion(*nan_one_class)


#: Scored sets of a few pairs each: small-integer scores, so that ties fall
#: within and across sets, -0.0 among them, and either label.
scored_sets = st.lists(
    st.lists(st.tuples(st.one_of(st.integers(0, 4).map(float), st.just(-0.0)), st.integers(0, 1)),
             min_size=1, max_size=12),
    min_size=1, max_size=5,
)


@example([[(1.0, 1), (0.0, 0)]])
@example([[(2.0, 1), (2.0, 1)], [(2.0, 0), (-0.0, 0)], [(0.0, 1), (1.0, 0)]])  # one-class sets, cross-set ties
@example([[(1.0, 1)], [(3.0, 1)]])  # no negative in the pool
@given(scored_sets)
def test_pooling_sweeps_equals_summarizing_the_concatenation(sets):
    scores = [np.array([score for score, _ in pairs]) for pairs in sets]
    labels = [np.array([label for _, label in pairs]) for pairs in sets]
    merged = metrics._merged_sweep([metrics._threshold_sweep(*pair) for pair in zip(scores, labels)])
    all_scores, all_labels = np.concatenate(scores), np.concatenate(labels)
    if np.unique(all_labels).size < 2:
        for pool in (lambda: summarize(all_scores, all_labels), lambda: metrics._scored(merged, metrics.TAU)):
            with pytest.raises(UndefinedMetricError, match="AUC needs both classes"):
                pool()
        return
    pooled, want = metrics._scored(merged, metrics.TAU), summarize(all_scores, all_labels)
    assert pooled.auc == want.auc
    assert pooled.confusion == want.confusion
    assert pooled.metrics == want.metrics
    got_curves = (*metrics._sweep_pr(merged), *metrics._sweep_roc(merged))
    for got, expected in zip(got_curves, (*pr_points(all_scores, all_labels), *roc_points(all_scores, all_labels))):
        assert np.array_equal(got, expected) and got.tobytes() == expected.tobytes()


def test_evaluate_sweeps_each_scored_set_once(small_model, monkeypatch):
    calls = []
    real_sweep = metrics._threshold_sweep

    def counting_sweep(scores, labels):
        calls.append(len(scores))
        return real_sweep(scores, labels)

    monkeypatch.setattr(metrics, "_threshold_sweep", counting_sweep)
    windows = [window_of([(0, 1), (1, 2)], 0), window_of([], 1), window_of([(3, 4)], 2)]
    evaluate_windows(small_model, windows, SamplingStrategy(SamplingKind.SIMPLE), seed=3)
    # the two non-empty windows; the pool merges their sweeps
    assert calls == [4, 2]


# ---------------------------------------------------------------------------
# windowed evaluation

def window_of(pairs, index):
    src, dst = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return TimeWindow(index, index * 100, (index + 1) * 100, src, dst,
                      index * 100 + np.arange(len(src), dtype=np.int64))


@pytest.fixture
def small_model():
    return init_params(8, 4, 2, np.random.default_rng(30))


class Passed(NamedTuple):
    """The arguments `evaluate_windows` passed `on_window` for one window."""

    window_index: int
    src: np.ndarray
    dst: np.ndarray
    scores: np.ndarray
    labels: np.ndarray


def evaluate_capturing(*args, **kwargs):
    """`evaluate_windows`, and what it passed `on_window` for each window."""
    captured = []
    report = evaluate_windows(*args, on_window=lambda *passed: captured.append(Passed(*passed)), **kwargs)
    return report, captured


def test_evaluate_pairs_are_one_to_one(small_model):
    windows = [window_of([(0, 1), (1, 2), (2, 3)], 0)]
    _, (w,) = evaluate_capturing(small_model, windows, SamplingStrategy(SamplingKind.ADVANCED), seed=5)
    assert len(w.src) == len(w.dst) == len(w.scores) == len(w.labels) == 6
    assert w.labels.sum() == 3
    assert set(w.labels.tolist()) == {0, 1}
    # positives are the window's edge instances, in order
    assert (w.src[:3].tolist(), w.dst[:3].tolist()) == ([0, 1, 2], [1, 2, 3])


def test_evaluate_scores_equal_a_full_forward_bitwise():
    # evaluate computes layer 2's input on the scored and active rows only; a
    # model of the real width (hidden 64, 2 heads) on 200 nodes with windows
    # of 1-3 calls leaves few of them, where BLAS could round a product over
    # those rows alone differently from the full one
    params = init_params(200, 64, 2, np.random.default_rng(31))
    windows = [window_of([(0, 1)], 0), window_of([(3, 4), (4, 5), (5, 3)], 1), window_of([(9, 120)], 2)]
    _, captured = evaluate_capturing(params, windows, SamplingStrategy(SamplingKind.ADVANCED), seed=7)
    assert len(captured) == len(windows)
    for window, w in zip(windows, captured):
        emb, _ = model_forward(params, build_graph(window, 200))
        assert np.array_equal(w.scores, link_probability(emb, w.src, w.dst))


def test_evaluate_is_deterministic(small_model):
    windows = [window_of([(0, 1), (1, 2)], 0), window_of([(3, 4), (5, 6)], 1)]
    strategy = SamplingStrategy(SamplingKind.ADVANCED)
    a, a_windows = evaluate_capturing(small_model, windows, strategy, seed=9)
    b, b_windows = evaluate_capturing(small_model, windows, strategy, seed=9)
    assert a.pooled.auc == b.pooled.auc
    assert a.pooled.confusion == b.pooled.confusion
    assert [w.scores.tolist() for w in a_windows] == [w.scores.tolist() for w in b_windows]


def test_evaluate_reports_what_it_passes_on_and_pools_every_pair(small_model):
    windows = [window_of([(0, 1), (1, 2)], 0), window_of([], 1), window_of([(3, 4), (5, 6), (6, 7)], 2)]
    report, captured = evaluate_capturing(small_model, windows, SamplingStrategy(SamplingKind.SIMPLE), seed=4)
    assert [w.window_index for w in captured] == list(report.windows) == [0, 2]
    for passed, kept in zip(captured, report.windows.values()):
        want = summarize(passed.scores, passed.labels)
        assert (kept.auc, kept.confusion, kept.metrics) == (want.auc, want.confusion, want.metrics)
        assert not hasattr(kept, "scores") and not hasattr(kept, "pr")
    all_pairs = np.concatenate([w.scores for w in captured]), np.concatenate([w.labels for w in captured])
    want = summarize(*all_pairs)
    assert (report.pooled.auc, report.pooled.confusion) == (want.auc, want.confusion)
    for got, expected in zip((*report.pr, *report.roc), (*pr_points(*all_pairs), *roc_points(*all_pairs))):
        assert np.array_equal(got, expected)


def test_evaluate_skips_empty_and_errors_when_all_empty(small_model):
    windows = [window_of([], 0), window_of([(0, 1)], 1)]
    report = evaluate_windows(small_model, windows, SamplingStrategy(SamplingKind.SIMPLE))
    assert list(report.windows) == [1]
    with pytest.raises(EvalError):
        evaluate_windows(small_model, [window_of([], 0)], SamplingStrategy(SamplingKind.SIMPLE))


def test_evaluate_macro_is_mean_of_windows(small_model):
    windows = [window_of([(0, 1), (1, 2)], 0), window_of([(3, 4), (5, 6), (6, 7)], 1)]
    report = evaluate_windows(small_model, windows, SamplingStrategy(SamplingKind.SIMPLE), seed=4)
    assert report.macro["auc"] == pytest.approx(
        np.mean([w.auc for w in report.windows.values()])
    )
    assert report.macro["f1"] == pytest.approx(
        np.mean([w.metrics.f1 for w in report.windows.values()])
    )


def test_evaluate_rejects_non_finite_scores(small_model):
    small_model.layer2.weights[0][0, 0] = np.nan
    windows = [window_of([(0, 1)], 0), window_of([(2, 3)], 1)]
    with pytest.raises(EvalError, match="window 0 has non-finite scores"):
        evaluate_windows(small_model, windows, SamplingStrategy(SamplingKind.SIMPLE))


def test_evaluate_keeps_last_attention(small_model):
    windows = [window_of([(0, 1)], 0), window_of([(2, 3)], 1)]
    report = evaluate_windows(small_model, windows, SamplingStrategy(SamplingKind.SIMPLE))
    assert report.last_attention is not None
    # the record belongs to the final evaluated window: edge (2,3) + self-loops
    assert report.last_attention.edge_src[0] == 2


# ---------------------------------------------------------------------------
# attention export

def record_of(edges, coeffs, n):
    src = np.array([s for s, _ in edges] + list(range(n)), dtype=np.int64)
    dst = np.array([d for _, d in edges] + list(range(n)), dtype=np.int64)
    return AttentionRecord(src, dst, np.asarray(coeffs, dtype=np.float64), n)


def test_export_attention_places_coefficients():
    # one edge 1->0 (coeff .6 and .4 over two heads), self-loops fill the rest
    record = record_of(
        [(1, 0)],
        [[0.6, 0.4], [0.4, 0.6], [1.0, 1.0], [1.0, 1.0]],
        3,
    )
    matrix = export_attention(record)
    assert matrix.shape == (3, 3)
    assert matrix[0, 1] == pytest.approx(0.5)  # destination row, source column
    assert matrix[0, 0] == pytest.approx(0.5)
    assert matrix[1, 1] == 1.0 and matrix[2, 2] == 1.0
    assert matrix[1, 0] == 0.0


def test_export_attention_row_sums_to_one_when_neighborhood_in_range():
    rng = np.random.default_rng(31)
    from tracelink.gat import attention_coefficients, LayerParams
    from tracelink.graph import build_graph

    g = build_graph(window_of([(0, 1), (2, 1), (3, 2)], 0), 5)
    layer = LayerParams([rng.normal(size=(5, 3))], [rng.normal(size=6)])
    record = attention_coefficients(layer, np.eye(5), g)
    matrix = export_attention(record)
    assert np.allclose(matrix.sum(axis=1), 1.0)


def test_export_attention_sums_parallel_edges():
    record = record_of(
        [(1, 0), (1, 0)],
        [[0.3, 0.3], [0.3, 0.3], [0.4, 0.4], [1.0, 1.0]],
        2,
    )
    matrix = export_attention(record)
    assert matrix[0, 1] == pytest.approx(0.6)


def test_export_attention_clips_nothing_outside_range():
    # node 0 attends half to itself and half to a source past the span
    n = ATTENTION_NODES + 4
    record = record_of([(n - 1, 0)], [[0.5, 0.5], [0.5, 0.5]] + [[1.0, 1.0]] * (n - 1), n)
    matrix = export_attention(record)
    assert matrix.shape == (ATTENTION_NODES, ATTENTION_NODES)
    assert matrix[0, 0] == pytest.approx(0.5)  # self-loop survives
    # the out-of-span source contributes nothing
    assert matrix[0].sum() == pytest.approx(0.5)
