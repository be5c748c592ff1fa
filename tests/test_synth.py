"""Synthetic trace generator: determinism, structure, and load shape."""
from __future__ import annotations

import re
from collections import Counter, namedtuple

import numpy as np
import pytest

from tracelink.errors import ConfigError
from tracelink.ingest import clean_trace, parse_trace_file, write_trace
from tracelink.synth import (
    WINDOW_HINT,
    SynthConfig,
    _build_structure,
    _n_gateways,
    _n_hubs,
    _service_name,
    generate_trace,
)

SMALL = SynthConfig(n_services=40, duration=2_000, events_per_window_mean=30.0, seed=7)


def gateway_services(cfg: SynthConfig) -> set[str]:
    """Names of the entry-point services (the only tree roots)."""
    cfg.validate()
    n_interior = cfg.n_services - _n_gateways(cfg.n_services)
    return {_service_name(i) for i in range(n_interior, cfg.n_services)}


def hub_services(cfg: SynthConfig) -> set[str]:
    """Names of the aggregator services the call funnels drain into."""
    cfg.validate()
    n_interior = cfg.n_services - _n_gateways(cfg.n_services)
    return {_service_name(i) for i in range(min(_n_hubs(cfg.n_services), n_interior))}


def backbone_pairs(cfg: SynthConfig) -> set[tuple[str, str]]:
    """The recurring caller->callee pairs of a config's core trees, drawn as
    `generate_trace` draws them (tail services appear too rarely to count)."""
    cfg.validate()
    structure = _build_structure(cfg, np.random.default_rng(cfg.seed))
    return {(_service_name(s), _service_name(d)) for tree in structure.trees for (s, d) in tree}


Event = namedtuple("Event", "caller callee timestamp")


def events(table):
    """The rows of an event table, in order."""
    names = table.names
    return [Event(*row) for row in zip(names[table.caller].tolist(), names[table.callee].tolist(), table.ts.tolist())]


@pytest.fixture(scope="module")
def small_table():
    return generate_trace(SMALL)


@pytest.fixture(scope="module")
def small_trace(small_table):
    return events(small_table)


@pytest.fixture(scope="module")
def default_trace():
    return events(generate_trace(SynthConfig()))


def test_generate_is_deterministic(small_trace):
    again = generate_trace(SMALL)
    assert events(again) == small_trace


def test_different_seed_differs(small_trace):
    other = generate_trace(SynthConfig(**{**SMALL.__dict__, "seed": 8}))
    assert events(other) != small_trace


def test_events_are_clean_sorted_and_in_range(small_trace):
    assert len(small_trace) > 0
    name = re.compile(r"^svc\d{3}$")
    for e in small_trace:
        assert name.match(e.caller) and name.match(e.callee)
        assert e.caller != e.callee
        assert 0 <= e.timestamp < SMALL.duration
    stamps = [e.timestamp for e in small_trace]
    assert stamps == sorted(stamps)


def test_cleaning_is_identity_on_generated_events(small_table, small_trace):
    assert events(clean_trace(small_table, SMALL.duration)[0]) == small_trace


def test_round_trips_through_the_ingest_format(tmp_path, small_table, small_trace):
    path = tmp_path / "trace.tsv"
    write_trace(small_table, path)
    raw, skipped = parse_trace_file(path)
    assert skipped == 0
    assert events(clean_trace(raw, SMALL.duration)[0]) == small_trace


def test_event_volume_tracks_the_configured_mean(small_trace):
    n_windows = SMALL.duration // WINDOW_HINT
    mean = len(small_trace) / n_windows
    # sinusoid averages out over full periods; Poisson noise remains
    assert 0.7 * SMALL.events_per_window_mean < mean < 1.3 * SMALL.events_per_window_mean


def test_default_volume_within_ten_percent(default_trace):
    cfg = SynthConfig()
    mean = len(default_trace) / (cfg.duration // WINDOW_HINT)
    assert abs(mean - cfg.events_per_window_mean) <= 0.1 * cfg.events_per_window_mean


def test_load_actually_oscillates(small_trace):
    counts = Counter(e.timestamp // WINDOW_HINT for e in small_trace)
    per_window = [counts.get(i, 0) for i in range(SMALL.duration // WINDOW_HINT)]
    # peak windows should clearly exceed trough windows
    assert max(per_window) > 1.5 * max(1, min(per_window))


def test_every_service_appears(default_trace):
    seen = {e.caller for e in default_trace} | {e.callee for e in default_trace}
    assert len(seen) == SynthConfig().n_services


def test_backbone_pairs_shape():
    pairs = backbone_pairs(SMALL)
    assert pairs  # non-empty
    assert all(c != d for c, d in pairs)
    gateways = gateway_services(SMALL)
    hubs = hub_services(SMALL)
    # entry points are roots: they call, they are never called
    assert gateways & {c for c, _ in pairs}
    assert not gateways & {d for _, d in pairs}
    # aggregators sit at the bottom of the funnels
    assert hubs <= {d for _, d in pairs}
    assert not (gateways & hubs)


def test_gateways_are_never_callees(small_trace):
    gateways = gateway_services(SMALL)
    assert all(e.callee not in gateways for e in small_trace)


def test_traffic_is_dominated_by_the_backbone(small_trace):
    pairs = backbone_pairs(SMALL)
    on_backbone = sum(1 for e in small_trace if (e.caller, e.callee) in pairs)
    assert on_backbone / len(small_trace) > 0.6


def test_backbone_persists_across_both_halves(small_trace):
    pairs = backbone_pairs(SMALL)
    half = SMALL.duration // 2
    early = {(e.caller, e.callee) for e in small_trace if e.timestamp < half}
    late = {(e.caller, e.callee) for e in small_trace if e.timestamp >= half}
    in_both = sum(1 for p in pairs if p in early and p in late)
    assert in_both / len(pairs) >= 0.8


def test_popularity_is_skewed(default_trace):
    # the designated aggregators should concentrate call volume: the top 1%
    # of callees (2 of 200 services) take at least a fifth of all calls
    counts = Counter(e.callee for e in default_trace)
    top = sum(c for _, c in counts.most_common(max(1, SynthConfig().n_services // 100)))
    assert top / len(default_trace) >= 0.20
    hubs = hub_services(SynthConfig())
    assert {name for name, _ in counts.most_common(len(hubs))} == hubs


def test_config_validation():
    bad = [
        {"n_services": 1},
        {"duration": 0},
        {"events_per_window_mean": 0.0},
    ]
    for overrides in bad:
        with pytest.raises(ConfigError):
            SynthConfig(**{**SMALL.__dict__, **overrides}).validate()


def test_generation_rejects_starved_event_budget():
    # 200 services cannot all be kept visible on 2 events per window
    cfg = SynthConfig(events_per_window_mean=2.0)
    with pytest.raises(ConfigError):
        generate_trace(cfg)


def test_tiny_fleet_still_generates():
    cfg = SynthConfig(n_services=2, duration=500, events_per_window_mean=5.0, seed=1)
    trace = events(generate_trace(cfg))
    assert trace
    (gw,) = gateway_services(cfg)
    assert {(e.caller, e.callee) for e in trace} == {(gw, "svc000")}


def test_train_span_predicts_test_span():
    # the property the learning pipeline depends on: most links seen late
    # in the trace already appeared early
    cfg = SynthConfig(n_services=60, duration=5_000, events_per_window_mean=40.0, seed=1)
    table = generate_trace(cfg)
    early = {(e.caller, e.callee) for e in events(table) if e.timestamp < 3_500}
    late = {(e.caller, e.callee) for e in events(table) if 3_500 <= e.timestamp < 5_000}
    overlap = len(late & early) / len(late)
    assert overlap > 0.8


def test_rare_services_show_up_in_both_halves():
    # every service outside the recurring core is scheduled into at least
    # one window on each side of the midpoint, so a train/test split can
    # both learn and score it
    trace = events(generate_trace(SynthConfig(seed=11)))
    half = SynthConfig().duration // 2
    early = {e.callee for e in trace if e.timestamp < half}
    late = {e.callee for e in trace if e.timestamp >= half}
    callees = {e.callee for e in trace}
    assert callees <= early and callees <= late
