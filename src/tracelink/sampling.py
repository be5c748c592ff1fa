"""Negative sampling for link prediction training and evaluation.

Three regimes, picked by how imbalanced the implicit negative class is:

* none     - the data is already balanced; train on the given pairs as-is.
* simple   - uniform rejection sampling over ordered non-edges.
* advanced - sources drawn proportional to degree**alpha, destinations
             uniform, rejecting existing pairs, their reverses, and
             self-loops.  Biasing sources toward active nodes yields harder,
             more realistic negatives, while the small default alpha keeps
             low-degree nodes in play.

Both samplers build the window's call table once per draw
(`WindowedGraph.call_lookup`) and ask it about every candidate, in both
directions and in every rejection round: a candidate costs two reads of a
small boolean table, not a binary search over the window's pairs.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SamplingError
from .graph import WindowedGraph, degree_counts

DEFAULT_ALPHA = 0.1
#: The advanced sampler gives each negative at most RETRY_FACTOR * n_nodes attempts.
RETRY_FACTOR = 10
#: n_pos/n_neg at or above this counts as balanced: no sampling needed.
BALANCED_THRESHOLD = 0.8
#: n_pos/n_neg at or above this (and below BALANCED_THRESHOLD) gets uniform sampling.
MODERATE_THRESHOLD = 0.01


class SamplingKind(str, enum.Enum):
    NONE = "none"
    SIMPLE = "simple"
    ADVANCED = "advanced"


@dataclass(frozen=True)
class SamplingStrategy:
    """Chosen sampling regime."""

    kind: SamplingKind

    @property
    def alpha(self) -> float | None:
        """The degree exponent of the advanced kind, `DEFAULT_ALPHA`; None
        for the others."""
        return DEFAULT_ALPHA if self.kind is SamplingKind.ADVANCED else None


def analyze_sampling(n_pos: int, n_nodes: int) -> SamplingStrategy:
    """Pick a sampling regime from the positive/implicit-negative ratio.

    The implicit negative count is n_nodes*(n_nodes-1) - n_pos (every ordered
    non-self pair that is not a positive).  Ratios >= BALANCED_THRESHOLD need
    no sampling; ratios >= MODERATE_THRESHOLD get uniform sampling; rarer
    positives than that get the degree-weighted sampler.
    """
    if n_nodes < 2:
        raise ConfigError(f"need at least 2 nodes to sample pairs, got {n_nodes}")
    if n_pos < 0:
        raise ConfigError(f"positive count cannot be negative, got {n_pos}")
    implicit_neg = n_nodes * (n_nodes - 1) - n_pos
    if implicit_neg <= 0 or n_pos / implicit_neg >= BALANCED_THRESHOLD:
        return SamplingStrategy(SamplingKind.NONE)
    if n_pos / implicit_neg >= MODERATE_THRESHOLD:
        return SamplingStrategy(SamplingKind.SIMPLE)
    return SamplingStrategy(SamplingKind.ADVANCED)


def degree_source_distribution(degrees: np.ndarray, alpha: float) -> np.ndarray:
    """p(v) = d_v**alpha / sum_u d_u**alpha, with 0**0 defined as 1.

    alpha=0 therefore degenerates to the uniform distribution over all nodes,
    including isolated ones, while any alpha>0 gives isolated nodes weight 0.
    """
    if not np.isfinite(alpha) or alpha < 0:
        raise ConfigError(f"alpha must be finite and >= 0, got {alpha}")
    weights = np.asarray(degrees, dtype=np.float64) ** alpha
    total = weights.sum()
    if total <= 0:
        raise SamplingError("every node has zero weight; cannot draw sources")
    return weights / total


def simple_negative_sample(graph: WindowedGraph, rng: np.random.Generator) -> np.ndarray:
    """(k, 2) ordered (src, dst) pairs: one uniform draw per edge instance of
    `graph`, over ordered pairs that are neither edges nor self-loops.  Draws
    are independent, so duplicates can occur.
    """
    n_nodes = graph.n_nodes
    if n_nodes < 2:
        raise ConfigError(f"need at least 2 nodes to sample pairs, got {n_nodes}")
    k = graph.n_edges
    room = n_nodes * (n_nodes - 1) - int(np.count_nonzero(graph.pair_src != graph.pair_dst))
    if k > room:
        raise SamplingError(
            f"asked for {k} negatives but only {room} ordered non-edges exist"
        )
    is_call = graph.call_lookup()
    out = np.empty((k, 2), dtype=np.int64)
    filled = 0
    while filled < k:
        need = k - filled
        src = rng.integers(0, n_nodes, size=need)
        dst = rng.integers(0, n_nodes, size=need)
        ok = (src != dst) & ~is_call(src, dst)
        n_ok = int(ok.sum())
        out[filled : filled + n_ok, 0] = src[ok]
        out[filled : filled + n_ok, 1] = dst[ok]
        filled += n_ok
    return out


def advanced_negative_sample(graph: WindowedGraph, alpha: float, rng: np.random.Generator) -> np.ndarray:
    """(k, 2) ordered (src, dst) pairs, one per edge instance of `graph`, with
    degree-weighted sources.

    Sources follow degree**alpha over the graph's total degrees, destinations
    are uniform; a candidate is rejected when the pair exists, its reverse
    exists, or it is a self-loop.  Each negative gets at most
    RETRY_FACTOR * n_nodes attempts before an infeasibility error.
    """
    n = graph.n_nodes
    k = graph.n_edges
    if k == 0:
        return np.empty((0, 2), dtype=np.int64)
    cum = np.cumsum(degree_source_distribution(degree_counts(graph), alpha))
    cum[-1] = 1.0

    is_call = graph.call_lookup()
    out = np.empty((k, 2), dtype=np.int64)
    filled = 0
    for _ in range(RETRY_FACTOR * n):
        need = k - filled
        if need == 0:
            break
        src = np.searchsorted(cum, rng.random(need), side="right")
        dst = rng.integers(0, n, size=need)
        ok = (src != dst) & ~is_call(src, dst) & ~is_call(dst, src)
        n_ok = int(ok.sum())
        out[filled : filled + n_ok, 0] = src[ok]
        out[filled : filled + n_ok, 1] = dst[ok]
        filled += n_ok
    if filled < k:
        raise SamplingError(
            f"could not place {k - filled} of {k} negatives within "
            f"{RETRY_FACTOR * n} attempts each; the non-edge space is too tight"
        )
    return out


def draw_negatives(strategy: SamplingStrategy, graph: WindowedGraph, rng: np.random.Generator) -> np.ndarray:
    """Dispatch on the strategy; returns a (k, 2) array (k=0 for 'none')."""
    if strategy.kind is SamplingKind.NONE:
        return np.empty((0, 2), dtype=np.int64)
    if strategy.kind is SamplingKind.SIMPLE:
        return simple_negative_sample(graph, rng)
    return advanced_negative_sample(graph, DEFAULT_ALPHA, rng)
