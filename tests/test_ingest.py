"""Parsing and cleaning of delimited trace files."""
from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from tracelink.errors import ConfigError, TracelinkError
from tracelink.ingest import (
    EventTable,
    TraceFormat,
    clean_trace,
    parse_trace,
    parse_trace_file,
    write_trace,
)

PLAIN = TraceFormat(
    columns=("timestamp", "caller", "callee"),
    caller="caller",
    callee="callee",
    header=False,
)


def table(rows):
    """An event table from (caller, callee, timestamp) rows."""
    callers, callees, stamps = zip(*rows) if rows else ((), (), ())
    return EventTable(np.array(callers, dtype=object), np.array(callees, dtype=object),
                      np.array(stamps, dtype=np.float64))


def rows(events):
    return list(zip(events.caller.tolist(), events.callee.tolist(), events.ts.tolist()))


def test_two_well_formed_lines():
    events, skipped = parse_trace(["0,A,B", "50,A,C"], PLAIN)
    assert skipped == 0
    assert rows(events) == [
        ("A", "B", 0),
        ("A", "C", 50),
    ]


def test_malformed_line_is_skipped_not_fatal():
    events, skipped = parse_trace(["0,A,B", "garbage-no-delimiters", "50,A,C"], PLAIN)
    assert skipped == 1
    assert len(events) == 2


def test_missing_timestamp_field_skipped():
    events, skipped = parse_trace(["A,B", "0,A,B"], PLAIN)
    assert skipped == 1
    assert rows(events) == [("A", "B", 0)]


def test_unparseable_timestamp_skipped():
    for stamp in ("never", "nan", "inf", "-inf"):
        events, skipped = parse_trace([f"{stamp},A,B"], PLAIN)
        assert skipped == 1
        assert rows(events) == []


def test_fractional_timestamps_truncate_toward_zero():
    events, _ = parse_trace(["12.9,A,B"], PLAIN)
    assert events.ts[0] == 12


def test_header_row_binds_columns_by_name():
    fmt = TraceFormat(header=True)  # defaults: caller um, callee dm
    lines = ["timestamp,um,dm,rpctype", "5,gateway,auth,rpc", "9,auth,db,db"]
    events, skipped = parse_trace(lines, fmt)
    assert skipped == 0
    assert rows(events) == [("gateway", "auth", 5), ("auth", "db", 9)]


def test_missing_required_column_is_config_error():
    with pytest.raises(ConfigError):
        parse_trace(["timestamp,um\n", "5,a\n"], TraceFormat(header=True))


def test_alternate_delimiter():
    fmt = TraceFormat(columns=("timestamp", "um", "dm"), delimiter=";", header=False)
    events, skipped = parse_trace(["7;x;y"], fmt)
    assert skipped == 0
    assert rows(events) == [("x", "y", 7)]


def test_comment_lines_ignored():
    events, skipped = parse_trace(["# provenance", "0,A,B"], PLAIN)
    assert skipped == 0
    assert len(events) == 1


def test_empty_input():
    for fmt in (PLAIN, TraceFormat(header=True)):
        events, skipped = parse_trace([], fmt)
        assert (rows(events), skipped) == ([], 0)


# ---------------------------------------------------------------------------
# cleaning

def test_clean_drops_empty_endpoint():
    raw = table([("A", "", 5), ("", "B", 6), ("A", "B", 7)])
    assert rows(clean_trace(raw, 100)) == [("A", "B", 7)]


def test_clean_drops_out_of_range_timestamps():
    raw = table([("A", "B", -1), ("A", "B", 10_001), ("A", "B", 10_000), ("A", "B", 1e300)])
    cleaned = clean_trace(raw, 10_000)
    assert rows(cleaned) == [("A", "B", 10_000)]
    assert cleaned.ts.dtype == np.int64


def test_clean_sorts_stably():
    raw = table([
        ("late", "x", 9),
        ("first", "x", 3),
        ("second", "x", 3),
    ])
    cleaned = clean_trace(raw, 10)
    assert cleaned.caller.tolist() == ["first", "second", "late"]


def test_clean_retains_duplicates():
    raw = table([("A", "B", 5)] * 3)
    assert len(clean_trace(raw, 10)) == 3


def test_clean_rejects_bad_horizon():
    with pytest.raises(ConfigError):
        clean_trace(table([]), 0)


raw_events = st.lists(
    st.tuples(
        st.text(alphabet="abcXYZ", max_size=3),
        st.text(alphabet="abcXYZ", max_size=3),
        st.integers(min_value=-50, max_value=150),
    ),
    max_size=40,
)


@given(raw_events)
def test_clean_is_idempotent_and_ordered(events):
    once = rows(clean_trace(table(events), 100))
    twice = rows(clean_trace(table(once), 100))
    assert once == twice
    assert all(a[2] <= b[2] for a, b in zip(once, once[1:]))
    assert all(caller and callee and 0 <= ts <= 100 for caller, callee, ts in once)


# ---------------------------------------------------------------------------
# round trip

def test_write_then_parse_round_trip(tmp_path):
    events = [("a", "b", 1), ("b", "c", 2), ("a", "b", 2)]
    path = tmp_path / "trace.csv"
    write_trace(clean_trace(table(events), 100), path, header_comment="seed=7")
    parsed, skipped = parse_trace_file(path)
    assert skipped == 0
    assert rows(clean_trace(parsed, 100)) == events
    assert path.read_text().startswith("# seed=7\n")


@pytest.mark.parametrize("delimiter", ["", "ab"])
def test_parse_trace_rejects_a_delimiter_csv_cannot_split_on(delimiter):
    with pytest.raises(ConfigError, match="delimiter"):
        parse_trace(["timestamp,um,dm", "0,A,B"], TraceFormat(delimiter=delimiter))


# ---------------------------------------------------------------------------
# fuzzing: any input ends in a table or a TracelinkError

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
trace_text = st.text(st.sampled_from(',;\t "#\x00\rabum0123456789.e-') | st.characters(), max_size=40)


@FUZZ
@example(["timestamp,um,dm", "1,a," + "x" * 200_000], ",", True)  # over csv's field limit
@example(["timestamp,um,dm", "1,a\rb,c"], ",", True)  # a line break inside a line
@given(st.lists(trace_text, max_size=8), st.sampled_from([",", "\t", ";", " ", '"', "#"]), st.booleans())
def test_parse_trace_ends_in_a_table_or_a_typed_error(lines, delimiter, header):
    with contextlib.suppress(TracelinkError):
        parsed, skipped = parse_trace(lines, TraceFormat(delimiter=delimiter, header=header))
        assert len(parsed) + skipped <= len(lines)


@FUZZ
@example("timestamp,um,dm\n1,caf\xe9,b\n".encode("latin-1"))  # not UTF-8
@given(st.binary(max_size=120) | trace_text.map(str.encode))
def test_parse_trace_file_ends_in_a_table_or_a_typed_error(tmp_path, data):
    (tmp_path / "trace.csv").write_bytes(data)
    with contextlib.suppress(TracelinkError):
        parse_trace_file(tmp_path / "trace.csv")
