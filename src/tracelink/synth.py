"""Synthetic call-trace generator with learnable temporal structure.

The fleet it fakes has three kinds of services.  A small set of gateway
services (the last few ids) are the only places traffic enters: every
call tree is rooted at one.  Each gateway owns a fixed dependency tree
over a compact "core" of mid-tier services, and every request fires that
whole tree, so the core's caller->callee pairs recur window after window
— links observed in the training span genuinely predict links in the
test span.  A few designated aggregator services sit at the bottom of
the funnels: several leaves of every tree report into one, which is what
concentrates call volume on a handful of ids the way a Zipf-shaped fleet
would.  Everything else is a long tail of rarely-invoked leaf services,
each hanging off one popularity-drawn core parent and showing up in only
a few scheduled windows per run (at least one in each half, so the tail
is visible in both the training and the evaluation spans).

Keeping the recurring core small is deliberate: the set of services that
are ever busy at the same time stays stable across windows, which keeps
the co-activity structure of the trace stationary — creating a dataset
where a link predictor can separate "these two are both busy" from
"these two actually call each other".  Per WINDOW_HINT ms, event counts
follow a sinusoid of period LOAD_PERIOD around the configured mean,
mimicking a daily load cycle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .ingest import EventTable

#: Granularity of the load modulation in ms: each block draws its own event count.
WINDOW_HINT = 100
#: Relative amplitude of the sinusoidal load modulation.
LOAD_AMPLITUDE = 0.4
#: Period of the load modulation in ms.
LOAD_PERIOD = 2_500
#: Skew of the Zipf popularity rule that picks nested and tail parents.
HUB_EXPONENT = 2.0
#: Nesting cap of each gateway's call tree, in levels below the root.
TREE_DEPTH = 3
#: Ceiling on how many mid-tier services join the recurring core.
CORE_SPOKES_CAP = 32
#: Chance a new core service attaches directly under the tree root
#: rather than deeper down; the rest nest under an earlier service.
ROOT_ATTACH_BIAS = 0.6
#: Share of each tree's services that report into an aggregator.
FUNNEL_SHARE = 0.5
#: Scheduled appearances per tail service across a run (mean / floor).
TAIL_VISITS_MEAN = 5.0
TAIL_VISITS_MIN = 2
#: Fraction of the per-window event budget the tail may consume.
TAIL_BUDGET_SHARE = 0.2


@dataclass(frozen=True)
class SynthConfig:
    n_services: int = 200
    duration: int = 10_000
    events_per_window_mean: float = 50.0
    seed: int = 0

    def validate(self) -> None:
        if self.n_services < 2:
            raise ConfigError(f"need at least 2 services, got {self.n_services}")
        if self.duration <= 0:
            raise ConfigError(f"duration must be positive, got {self.duration}")
        if self.events_per_window_mean <= 0:
            raise ConfigError("events_per_window_mean must be positive; zero events is infeasible")


def _service_name(index: int) -> str:
    return f"svc{index:03d}"


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


def _n_gateways(n_services: int) -> int:
    return max(1, min(4, n_services // 8))


def _n_hubs(n_services: int) -> int:
    return max(1, n_services // 100)


@dataclass(frozen=True)
class _Structure:
    """Frozen fleet layout behind one config."""

    gateways: list[int]  # tree roots; the highest ids, never called
    hubs: list[int]  # aggregators; the lowest ids
    trees: list[list[tuple[int, int]]]  # recurring core edges, one tree per gateway
    tail_parent: dict[int, int]  # rare leaf service -> its core caller


def _build_structure(cfg: SynthConfig, rng: np.random.Generator) -> _Structure:
    """Draw the fixed fleet layout: roots, aggregators, core trees, tail homes.

    Core services are dealt to the gateways in contiguous blocks and each
    block grows into a tree: a service attaches under the root with
    probability ROOT_ATTACH_BIAS, otherwise under a popularity-weighted
    earlier service, with nesting capped at TREE_DEPTH.  About
    FUNNEL_SHARE of each tree (leaves first) then reports into one
    aggregator.  Tail services pick their single parent from the core by
    the same Zipf(HUB_EXPONENT) popularity rule.
    """
    n = cfg.n_services
    n_gw = _n_gateways(n)
    n_interior = n - n_gw
    gateways = list(range(n_interior, n))
    n_hub = min(_n_hubs(n), n_interior)
    hubs = list(range(n_hub))
    n_spokes = min(CORE_SPOKES_CAP, n_interior - n_hub)
    if n_interior > n_hub:
        n_spokes = max(1, min(n_spokes, max(2, (n_interior - n_hub) // 5)))
    spokes = list(range(n_hub, n_hub + n_spokes))
    tails = list(range(n_hub + n_spokes, n_interior))

    trees: list[list[tuple[int, int]]] = []
    for j, root in enumerate(gateways):
        block = spokes[j::n_gw]
        edges: list[tuple[int, int]] = []
        placed: list[tuple[int, int]] = [(root, 0)]  # (service, depth)
        for nid in block:
            nested = [(p, d) for (p, d) in placed if 1 <= d < TREE_DEPTH]
            if nested and rng.random() >= ROOT_ATTACH_BIAS:
                weights = _zipf_weights(len(nested), HUB_EXPONENT)
                parent, pd = nested[int(rng.choice(len(nested), p=weights))]
            else:
                parent, pd = root, 0
            edges.append((parent, nid))
            placed.append((nid, pd + 1))
        hub = hubs[j % n_hub]
        callers = [s for s in block if not any(src == s for (src, _) in edges)]
        callers += [s for s in block if s not in callers]
        n_callers = max(1, round(FUNNEL_SHARE * len(block))) if block else 0
        for s in callers[:n_callers]:
            edges.append((s, hub))
        if not edges:  # fleets too small for any spokes: root calls the hub
            edges.append((root, hub))
        trees.append(edges)

    parent_pool = spokes if spokes else hubs
    pool_weights = _zipf_weights(len(parent_pool), HUB_EXPONENT)
    tail_parent = {
        t: parent_pool[int(rng.choice(len(parent_pool), p=pool_weights))] for t in tails
    }
    return _Structure(gateways, hubs, trees, tail_parent)


def _tail_schedule(
    cfg: SynthConfig, structure: _Structure, rng: np.random.Generator
) -> list[list[tuple[int, int]]]:
    """Per-window list of (parent, tail) one-off calls.

    Every tail service gets a handful of windows, split between the run's
    halves so it exists on both sides of any train/test cut.  The visit
    budget shrinks when the configured event rate can't afford the default.
    """
    n_windows = max(1, math.ceil(cfg.duration / WINDOW_HINT))
    schedule: list[list[tuple[int, int]]] = [[] for _ in range(n_windows)]
    tails = sorted(structure.tail_parent)
    if not tails:
        return schedule
    affordable = TAIL_BUDGET_SHARE * cfg.events_per_window_mean * n_windows / len(tails)
    visits_mean = min(TAIL_VISITS_MEAN, max(float(TAIL_VISITS_MIN), affordable))
    first_half = n_windows // 2
    for tail in tails:
        parent = structure.tail_parent[tail]
        visits = max(TAIL_VISITS_MIN, int(rng.poisson(visits_mean)))
        early = max(1, visits // 2)
        late = max(1, visits - early)
        if first_half == 0:
            chosen = np.zeros(1, dtype=np.int64)
        else:
            a = rng.choice(first_half, size=min(early, first_half), replace=False)
            b = rng.choice(n_windows - first_half, size=min(late, n_windows - first_half), replace=False)
            chosen = np.concatenate([a, b + first_half])
        for w in chosen:
            schedule[int(w)].append((parent, tail))
    return schedule


def generate_trace(cfg: SynthConfig) -> EventTable:
    """Deterministic trace for `cfg.seed`; already clean and sorted."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    structure = _build_structure(cfg, rng)
    schedule = _tail_schedule(cfg, structure, rng)
    scheduled_total = sum(len(s) for s in schedule)
    core_budget = cfg.events_per_window_mean - scheduled_total / len(schedule)
    if core_budget <= 0.5:
        raise ConfigError(
            "events_per_window_mean "
            f"{cfg.events_per_window_mean} is too small to cover {cfg.n_services} "
            "services; raise it or shrink the fleet"
        )
    total_core_edges = sum(len(t) for t in structure.trees)

    callers: list[int] = []
    callees: list[int] = []
    stamps: list[np.ndarray] = []
    window_index = 0
    for start in range(0, cfg.duration, WINDOW_HINT):
        end = min(start + WINDOW_HINT, cfg.duration)
        mid = (start + end) / 2.0
        load = 1.0 + LOAD_AMPLITUDE * math.sin(2.0 * math.pi * mid / LOAD_PERIOD)
        pairs: list[tuple[int, int]] = []
        rate = core_budget * load / total_core_edges
        for tree in structure.trees:
            for _ in range(int(rng.poisson(rate))):
                pairs.extend(tree)
        pairs.extend(schedule[window_index])
        stamps.append(np.sort(rng.integers(start, end, size=len(pairs))))
        callers.extend(s for s, _ in pairs)
        callees.extend(d for _, d in pairs)
        window_index += 1
    names = np.array([_service_name(i) for i in range(cfg.n_services)], dtype=object)
    return EventTable(names, np.array(callers, dtype=np.int64), np.array(callees, dtype=np.int64),
                      np.concatenate(stamps).astype(np.int64))
