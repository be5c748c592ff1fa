"""Node ids, window segmentation, and the train/test split."""
from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import loader_reference
from tracelink.errors import ConfigError, DataError, MappingError
from tracelink.ingest import EventTable, clean_trace
from tracelink.preprocess import (
    NodeMapping,
    apply_mapping,
    build_node_mapping,
    load_mapping,
    mapping_digest,
    save_mapping,
    segment_windows,
    serialize_mapping,
    span_window,
    split_train_test,
)


def ev(*rows):
    """A clean event table from (caller, callee, timestamp) rows."""
    callers, callees, stamps = zip(*rows) if rows else ((), (), ())
    names, codes = np.unique(np.array(callers + callees, dtype=object), return_inverse=True)
    return EventTable(names, codes[:len(callers)], codes[len(callers):], np.array(stamps, dtype=np.int64))


EMPTY = apply_mapping(ev(), build_node_mapping(ev()))


# ---------------------------------------------------------------------------
# node mapping

def test_mapping_ids_follow_caller_column_then_callee_column():
    # ids are assigned over the caller column in full before any callee is
    # seen, so "C" (only ever a callee) comes after both callers even though
    # it appears on the first line.
    events = ev(("B", "C", 0), ("A", "B", 1))
    mapping = build_node_mapping(events)
    assert mapping.names == ("B", "A", "C")
    assert mapping.n_nodes == 3


def test_a_service_named_only_by_dropped_rows_gets_no_id():
    clean, _ = clean_trace(ev(("a", "b", 5), ("ghost", "b", 500), ("a", "", 6), ("c", "a", 7)), 100)
    assert build_node_mapping(clean).names == ("a", "c", "b")


def test_mapping_ids_follow_the_sorted_rows_not_the_vocabulary():
    # The vocabulary lists z, y, x, w; the rows, once sorted by time, name
    # callers y, x and callees z, y, w.
    names = np.array(["z", "y", "x", "w"], dtype=object)
    raw = EventTable(names, np.array([2, 1, 2]), np.array([3, 0, 1]), np.array([9, 3, 5]))
    clean, _ = clean_trace(raw, 100)
    assert build_node_mapping(clean).names == ("y", "x", "z", "w")


def test_mapping_round_trips_through_disk(tmp_path):
    mapping = build_node_mapping(ev(("x", "y", 0), ("y", "z", 1)))
    path = tmp_path / "mapping.tsv"
    save_mapping(mapping, path)
    loaded = load_mapping(path)
    assert loaded == mapping
    assert mapping_digest(loaded) == mapping_digest(mapping)


def test_node_mapping_is_a_value():
    mapping = NodeMapping(("a", "b"))
    assert mapping == NodeMapping(("a", "b")) != NodeMapping(("b", "a"))
    assert hash(mapping) == hash(NodeMapping(("a", "b")))
    with pytest.raises(dataclasses.FrozenInstanceError):
        mapping.names = ("c",)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.text().filter(lambda name: "\n" not in name and "\r" not in name), unique=True, max_size=6))
def test_any_mapping_without_line_breaks_loads_back_equal(tmp_path, names):
    mapping = NodeMapping(tuple(names))
    path = tmp_path / "mapping.tsv"
    save_mapping(mapping, path)
    assert load_mapping(path) == mapping


@pytest.mark.parametrize("name", ["x\ny", "x\ry", "x\r\n"])
def test_a_name_holding_a_line_break_is_refused_before_anything_is_written(tmp_path, name):
    # load_mapping would split the name's line in two ("x\ry" -> "bad mapping line 3: 'y'").
    mapping = build_node_mapping(ev(("a", name, 0)))
    path = tmp_path / "mapping.tsv"
    for write in (serialize_mapping, mapping_digest, lambda m: save_mapping(m, path)):
        with pytest.raises(DataError, match="line break"):
            write(mapping)
    assert not path.exists()


@pytest.mark.parametrize("line, id_text", [(1, "+0"), (2, " 1"), (3, "\u0662"), (1, "00"), (1, "-0"), (2, "1 ")])
def test_load_mapping_refuses_an_id_that_save_mapping_would_not_write(tmp_path, line, id_text):
    # int() reads each of these as the line's own id, and the names alone
    # give the canonical digest, so a checkpoint's hash check would pass it.
    lines = ["0\ta", "1\tb", "2\tc"]
    lines[line - 1] = f"{id_text}\t{'abc'[line - 1]}"
    path = tmp_path / "mapping.tsv"
    path.write_text("".join(text + "\n" for text in lines), encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"bad mapping line {line}: {lines[line - 1]!r}")):
        load_mapping(path)


def test_load_mapping_rejects_gaps(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("0\ta\n2\tb\n")
    with pytest.raises(DataError):
        load_mapping(path)


@pytest.mark.parametrize("text, line", [("0\ta\n1\tb\n2\ta\n", 3), ("0\ta\n1\ta\n2\tb\n", 2)],
                         ids=["apart", "adjacent"])
def test_load_mapping_rejects_a_repeated_name(tmp_path, text, line):
    path = tmp_path / "dup.tsv"
    path.write_text(text)
    with pytest.raises(DataError, match=f"line {line} repeats service 'a', which already has id 0"):
        load_mapping(path)


def test_serialize_is_sorted_by_id():
    mapping = build_node_mapping(ev(("b", "a", 0)))
    assert serialize_mapping(mapping) == b"0\tb\n1\ta\n"


def test_apply_mapping_strict_raises_on_unknown_service():
    mapping = build_node_mapping(ev(("a", "b", 0)))
    with pytest.raises(MappingError, match="intruder"):
        apply_mapping(ev(("a", "b", 0), ("a", "intruder", 1)), mapping, strict=True)


@pytest.mark.parametrize("rows, unknown", [
    ((("a", "b", 0), ("c1", "d1", 1), ("c2", "b", 2)), "c1"),  # the caller before the callee
    ((("a", "d1", 0), ("c1", "b", 1)), "d1"),  # the first row before a later one
])
def test_apply_mapping_strict_names_the_first_unknown_service(rows, unknown):
    with pytest.raises(MappingError, match=f"unknown service '{unknown}'"):
        apply_mapping(ev(*rows), build_node_mapping(ev(("a", "b", 0))), strict=True)


@given(st.lists(st.tuples(st.sampled_from("abcxy"), st.sampled_from("abcxy"), st.integers(0, 9)), max_size=20))
def test_apply_mapping_lenient_drops_exactly_the_rows_naming_an_unknown_service(rows):
    mapping = build_node_mapping(ev(("a", "b", 0), ("c", "a", 1)))
    mapped = apply_mapping(ev(*rows), mapping, strict=False)
    ids = {name: i for i, name in enumerate(mapping.names)}
    kept = [(u, v, t) for u, v, t in rows if u in ids and v in ids]
    assert list(zip(mapped.names[mapped.caller].tolist(), mapped.names[mapped.callee].tolist(),
                    mapped.ts.tolist())) == kept
    assert mapped.src.tolist() == [ids[u] for u, _, _ in kept]
    assert mapped.dst.tolist() == [ids[v] for _, v, _ in kept]


@given(st.lists(st.tuples(st.sampled_from("abcxy"), st.sampled_from("abcxy"), st.integers(0, 9)), max_size=20),
       st.lists(st.sampled_from("abcx"), unique=True), st.booleans())
def test_apply_mapping_matches_the_copying_reference(rows, known, strict):
    events, mapping = ev(*rows), NodeMapping(tuple(known))
    try:
        want = loader_reference.apply_mapping(events, mapping, strict)
    except MappingError as exc:
        with pytest.raises(MappingError) as got:
            apply_mapping(events, mapping, strict)
        assert str(got.value) == str(exc)
        return
    assert loader_reference.same_table(apply_mapping(events, mapping, strict), want)


def test_apply_mapping_keeps_the_columns_when_no_row_is_dropped():
    events = ev(("a", "b", 0), ("b", "c", 1))
    for strict in (True, False):
        mapped = apply_mapping(events, NodeMapping(("c", "b", "a")), strict)
        assert all(getattr(mapped, name) is getattr(events, name) for name in ("names", "caller", "callee", "ts"))
    mapped = apply_mapping(events, NodeMapping(("b", "a")), strict=False)
    assert not np.shares_memory(mapped.caller, events.caller)


def test_apply_mapping_lenient_drops_unknown_rows():
    mapping = build_node_mapping(ev(("a", "b", 0)))
    mapped = apply_mapping(ev(("a", "newcomer", 1), ("b", "a", 2), ("stranger", "b", 3)),
                           mapping, strict=False)
    assert mapping.n_nodes == 2  # the mapping never grows
    assert (mapped.src.tolist(), mapped.dst.tolist(), mapped.ts.tolist()) == ([1], [0], [2])


# ---------------------------------------------------------------------------
# windows

def test_segment_windows_hundred_ms_buckets():
    events = ev(("a", "b", 0), ("a", "b", 99), ("a", "b", 100), ("a", "b", 299))
    mapping = build_node_mapping(events)
    mapped = apply_mapping(events, mapping)
    windows = segment_windows(mapped, w_size=100, t_max=300)
    assert len(windows) == 3
    assert [w.n_events for w in windows] == [2, 1, 1]
    assert (windows[0].start, windows[0].end) == (0, 100)
    assert windows[1].ts[0] == 100  # boundary goes right
    assert all(w.index == i for i, w in enumerate(windows))


def test_windows_are_views_of_the_table():
    events = ev(("a", "b", 5), ("b", "c", 150), ("c", "a", 160))
    mapped = apply_mapping(events, build_node_mapping(events))
    windows = segment_windows(mapped, w_size=100, t_max=200)
    assert (windows[1].src.tolist(), windows[1].dst.tolist()) == ([1, 2], [2, 0])
    for w in windows:
        assert np.shares_memory(w.src, mapped.src) and np.shares_memory(w.ts, mapped.ts)


def test_segment_windows_ragged_tail():
    windows = segment_windows(EMPTY, w_size=100, t_max=250)
    assert len(windows) == 3
    assert (windows[-1].start, windows[-1].end) == (200, 250)


def test_segment_windows_rejects_event_at_horizon():
    events = apply_mapping(ev(("a", "b", 300)), build_node_mapping(ev(("a", "b", 300))))
    with pytest.raises(DataError):
        segment_windows(events, w_size=100, t_max=300)


def test_windows_reject_unsorted_events():
    events = ev(("a", "b", 50), ("a", "b", 10))
    mapped = apply_mapping(events, build_node_mapping(events))
    with pytest.raises(DataError, match="sorted"):
        segment_windows(mapped, w_size=100, t_max=300)
    with pytest.raises(DataError, match="sorted"):
        span_window(mapped, 0, 300)


def test_windows_need_the_node_ids_apply_mapping_attaches():
    unmapped = ev(("a", "b", 10))
    with pytest.raises(DataError, match="apply_mapping"):
        segment_windows(unmapped, w_size=100, t_max=300)
    with pytest.raises(DataError, match="apply_mapping"):
        span_window(unmapped, 0, 300)


def test_segment_windows_rejects_bad_sizes():
    with pytest.raises(ConfigError):
        segment_windows(EMPTY, w_size=0, t_max=100)
    with pytest.raises(ConfigError):
        segment_windows(EMPTY, w_size=100, t_max=0)


mapped_batches = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 999)),
    max_size=60,
)


@given(mapped_batches, st.integers(1, 400))
def test_windows_partition_events_exactly(triples, w_size):
    events = apply_mapping(
        ev(*sorted(((f"s{a}", f"s{b}", t) for a, b, t in triples), key=lambda row: row[2])),
        build_node_mapping(ev(*((f"s{i}", f"s{i}", 0) for i in range(6)))),
    )
    windows = segment_windows(events, w_size=w_size, t_max=1000)
    # every event lands in exactly one window, and in the right one
    assert sum(w.n_events for w in windows) == len(events)
    for w in windows:
        assert all(w.start <= t < w.end for t in w.ts)
    # contiguous tiling of [0, t_max)
    assert windows[0].start == 0
    assert windows[-1].end == 1000
    assert all(a.end == b.start for a, b in zip(windows, windows[1:]))


def test_span_window_covers_everything():
    events = apply_mapping(
        ev(("a", "b", 0), ("a", "b", 999)), build_node_mapping(ev(("a", "b", 0)))
    )
    w = span_window(events, start=0, end=1000, index=0)
    assert w.n_events == 2 and w.width == 1000


# ---------------------------------------------------------------------------
# split

def test_split_respects_boundary():
    windows = segment_windows(EMPTY, w_size=100, t_max=1000)
    train, test = split_train_test(windows, t_train=700, t_max=1000)
    assert [w.index for w in train] == list(range(7))
    assert [w.index for w in test] == list(range(7, 10))
    assert train[-1].end == 700 and test[0].start == 700


def test_split_rejects_misaligned_boundary():
    windows = segment_windows(EMPTY, w_size=100, t_max=1000)
    with pytest.raises(ConfigError):
        split_train_test(windows, t_train=750, t_max=1000)


def test_split_rejects_degenerate_ranges():
    windows = segment_windows(EMPTY, w_size=100, t_max=1000)
    for t_train in (0, 1000, 1100):
        with pytest.raises(ConfigError):
            split_train_test(windows, t_train=t_train, t_max=1000)
