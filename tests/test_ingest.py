"""Parsing and cleaning of delimited trace files."""
from __future__ import annotations

import codecs
import contextlib
import csv
import io
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import loader_reference
from tracelink import ingest
from tracelink.errors import ConfigError, DataError, TracelinkError
from tracelink.ingest import (
    EventTable,
    TraceFormat,
    clean_trace,
    parse_trace,
    parse_trace_file,
    write_trace,
)
from tracelink.synth import SynthConfig, generate_trace

PLAIN = TraceFormat(
    columns=("timestamp", "caller", "callee"),
    caller="caller",
    callee="callee",
    header=False,
)


def table(rows):
    """An event table from (caller, callee, timestamp) rows."""
    callers, callees, stamps = zip(*rows) if rows else ((), (), ())
    names, codes = np.unique(np.array(callers + callees, dtype=object), return_inverse=True)
    return EventTable(names, codes[:len(callers)], codes[len(callers):], np.array(stamps, dtype=np.float64))


def rows(events):
    names = events.names
    return list(zip(names[events.caller].tolist(), names[events.callee].tolist(), events.ts.tolist()))


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
    assert rows(clean_trace(raw, 100)[0]) == [("A", "B", 7)]


def test_clean_drops_out_of_range_timestamps():
    raw = table([("A", "B", -1), ("A", "B", 10_001), ("A", "B", 10_000), ("A", "B", 1e300)])
    cleaned, _ = clean_trace(raw, 10_000)
    assert rows(cleaned) == [("A", "B", 10_000)]
    assert cleaned.ts.dtype == np.int64


def test_clean_sorts_stably():
    raw = table([
        ("late", "x", 9),
        ("first", "x", 3),
        ("second", "x", 3),
    ])
    cleaned, _ = clean_trace(raw, 10)
    assert cleaned.names[cleaned.caller].tolist() == ["first", "second", "late"]


def test_clean_counts_the_rows_it_drops_by_reason():
    raw = table([("A", "", 5), ("", "B", -1), ("A", "B", 101), ("A", "B", 7), ("A", "B", -3)])
    cleaned, dropped = clean_trace(raw, 100)
    assert rows(cleaned) == [("A", "B", 7)]
    assert dropped == {"dropped_empty_endpoint": 2, "dropped_out_of_range": 2}  # an empty endpoint counts first


def test_clean_retains_duplicates():
    raw = table([("A", "B", 5)] * 3)
    assert len(clean_trace(raw, 10)[0]) == 3


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


#: Rows over a few names, the empty one among them, with timestamps on both
#: sides of a horizon of 10, so that rows tie, and fall in and out of range.
loader_rows = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", ""]), st.sampled_from(["a", "b", "c", ""]), st.integers(-3, 13)),
    max_size=30,
)


@example([("a", "b", 1e300), ("b", "c", 2)], False, False)
@given(loader_rows, st.booleans(), st.booleans())
def test_clean_matches_the_copying_reference(events, in_order, valid_only):
    if valid_only:
        events = [(caller, callee, ts) for caller, callee, ts in events if caller and callee and 0 <= ts <= 10]
    if in_order:
        events = sorted(events, key=lambda row: row[2])  # stable: tied rows keep their order
    raw = table(events)
    got, dropped = clean_trace(raw, 10)
    want, want_dropped = loader_reference.clean_trace(raw, 10)
    assert dropped == want_dropped
    assert loader_reference.same_table(got, want)


def test_clean_keeps_the_parsed_columns_when_no_row_is_dropped_or_moved():
    raw = table([("a", "b", 1), ("b", "c", 1), ("c", "a", 4)])
    cleaned, _ = clean_trace(raw, 10)
    assert np.shares_memory(cleaned.caller, raw.caller) and np.shares_memory(cleaned.callee, raw.callee)
    assert cleaned.ts.dtype == np.int64
    for events in ([("a", "b", 5), ("b", "c", 1)], [("a", "b", 1), ("", "c", 2)], [("a", "b", 1), ("b", "c", 11)]):
        raw = table(events)
        cleaned, _ = clean_trace(raw, 10)
        assert not np.shares_memory(cleaned.caller, raw.caller), events


@given(raw_events)
def test_clean_is_idempotent_and_ordered(events):
    once = rows(clean_trace(table(events), 100)[0])
    twice = rows(clean_trace(table(once), 100)[0])
    assert once == twice
    assert all(a[2] <= b[2] for a, b in zip(once, once[1:]))
    assert all(caller and callee and 0 <= ts <= 100 for caller, callee, ts in once)


# ---------------------------------------------------------------------------
# round trip

def test_write_then_parse_round_trip(tmp_path):
    events = [("a", "b", 1), ("b", "c", 2), ("a", "b", 2)]
    path = tmp_path / "trace.csv"
    write_trace(clean_trace(table(events), 100)[0], path, header_comment="seed=7")
    parsed, skipped = parse_trace_file(path)
    assert skipped == 0
    assert rows(clean_trace(parsed, 100)[0]) == events
    assert path.read_text().startswith("# seed=7\n")


@pytest.mark.parametrize("delimiter", ["", "ab"])
def test_parse_trace_rejects_a_delimiter_csv_cannot_split_on(delimiter):
    with pytest.raises(ConfigError, match="delimiter"):
        parse_trace(["timestamp,um,dm", "0,A,B"], TraceFormat(delimiter=delimiter))


def test_names_holding_the_delimiter_or_a_quote_round_trip(tmp_path):
    events = [("a,b", 'q"x', 1), ('q"x', "a,b", 2), ("a", "b", 3)]
    path = tmp_path / "trace.csv"
    write_trace(clean_trace(table(events), 100)[0], path)
    parsed, skipped = parse_trace_file(path)
    assert skipped == 0
    assert rows(parsed) == events


@pytest.mark.parametrize("name, readable", [
    (" a", False),  # edge whitespace is stripped
    ("x\ny", False),  # would read back as "xy"
    ("x\ry", False),  # the row would be lost
    ('a,"b', True),  # quoted by csv
])
def test_write_trace_refuses_a_name_it_cannot_give_back(tmp_path, name, readable):
    events = [("a", "b", 1), ("b", name, 2)]
    path = tmp_path / "trace.csv"
    if not readable:
        with pytest.raises(DataError, match="row 1"):
            write_trace(table(events), path)
        assert not path.exists()
        return
    write_trace(table(events), path)
    parsed, skipped = parse_trace_file(path)
    assert skipped == 0
    assert rows(parsed) == events


@pytest.mark.parametrize("comment", ["seed=0\nnote", "seed=0\rnote", "seed=0\r\n"])
def test_write_trace_refuses_a_header_comment_with_a_line_break(tmp_path, comment):
    # The comment's second line would be read as the header row.
    path = tmp_path / "trace.csv"
    with pytest.raises(DataError, match="header comment"):
        write_trace(table([("a", "b", 1)]), path, header_comment=comment)
    assert not path.exists()


def test_write_trace_checks_each_name_once_and_names_the_first_bad_row(tmp_path):
    # "x\ny" is the callee of row 1 and the caller of row 2; " unused" names no row.
    names = np.array(["a", "x\ny", " unused"], dtype=object)
    events = EventTable(names, np.array([0, 0, 1]), np.array([0, 1, 0]), np.array([1, 2, 3]))
    with pytest.raises(DataError, match=r"row 1: service name 'x\\ny'"):
        write_trace(events, tmp_path / "trace.csv")
    clean = EventTable(names, np.array([0, 0]), np.array([0, 0]), np.array([1, 2]))
    write_trace(clean, tmp_path / "trace.csv")
    assert rows(parse_trace_file(tmp_path / "trace.csv")[0]) == [("a", "a", 1), ("a", "a", 2)]


def generated_trace_file(tmp_path, seed=0):
    path = tmp_path / "trace.csv"
    write_trace(generate_trace(SynthConfig(seed=seed)), path, header_comment=f"seed={seed}")
    return path


def test_crlf_trace_parses_to_the_same_table(tmp_path):
    path = generated_trace_file(tmp_path)
    crlf = tmp_path / "trace_crlf.csv"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    (events, skipped), (crlf_events, crlf_skipped) = parse_trace_file(path), parse_trace_file(crlf)
    assert crlf_skipped == skipped == 0
    assert rows(crlf_events) == rows(events)
    assert crlf_events.ts.tobytes() == events.ts.tobytes()


def test_trace_led_by_a_byte_order_mark_parses_to_the_same_table(tmp_path):
    path = generated_trace_file(tmp_path)  # its first line is a comment, which the mark would hide
    bom = tmp_path / "trace_bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert outcome(*parse_trace_file(bom)) == outcome(*parse_trace_file(path))
    no_comment = tmp_path / "no_comment.csv"
    no_comment.write_bytes(b"\xef\xbb\xbftimestamp,um,dm\n1,a,b\n")
    assert outcome(*parse_trace_file(no_comment)) == outcome(*parse_trace(["timestamp,um,dm", "1,a,b"]))


def no_fallback(*args):
    raise AssertionError("parse_trace_file fell back to the csv reader")


def test_generated_trace_takes_the_bulk_path(tmp_path, monkeypatch):
    path = generated_trace_file(tmp_path)
    expected = parse_text_file(path, TraceFormat())
    monkeypatch.setattr(ingest, "parse_trace", no_fallback)
    events, skipped = parse_trace_file(path)
    assert outcome(events, skipped) == outcome(*expected)
    names = events.names[events.caller].tolist() + events.names[events.callee].tolist()
    assert len({id(name) for name in names}) == len(set(names))  # one str per service


def test_trace_led_by_a_byte_order_mark_takes_the_bulk_path(tmp_path, monkeypatch):
    path = generated_trace_file(tmp_path)
    bom = tmp_path / "trace_bom.csv"
    bom.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    expected = parse_text_file(bom, TraceFormat())
    monkeypatch.setattr(ingest, "parse_trace", no_fallback)
    assert outcome(*parse_trace_file(bom)) == outcome(*expected)
    # A second mark is text after the first; only the csv reader keeps it.
    twice = tmp_path / "trace_bom_bom.csv"
    twice.write_bytes(codecs.BOM_UTF8 + bom.read_bytes())
    with pytest.raises(AssertionError, match="fell back"):
        parse_trace_file(twice)


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
@given(st.binary(max_size=120) | trace_text.map(lambda text: text.encode("utf-8", "surrogatepass")))
def test_parse_trace_file_ends_in_a_table_or_a_typed_error(tmp_path, data):
    (tmp_path / "trace.csv").write_bytes(data)
    with contextlib.suppress(TracelinkError):
        parse_trace_file(tmp_path / "trace.csv")


# ---------------------------------------------------------------------------
# the bulk file reader against the csv reader

def parse_text_file(path, fmt):
    """The reference: `parse_trace` over the file opened as UTF-8 text."""
    with open(path, encoding="utf-8") as handle:
        try:
            return parse_trace(handle, fmt)
        except UnicodeDecodeError:
            raise DataError("not UTF-8") from None


def outcome(events, skipped):
    names = events.names
    return (names[events.caller].tolist(), names[events.callee].tolist(), events.caller.dtype, events.callee.dtype,
            events.ts.dtype, events.ts.tobytes(), skipped)


def parsed_or_error(parse, path, fmt):
    try:
        return outcome(*parse(path, fmt))
    except TracelinkError as exc:
        return type(exc)


FIELD_TEXT = st.sampled_from(["0", "12", "7.9", "-3", "1e3", "1_0", "nan", "inf", "x", "", "svc001", "a"])
ODD_CHARS = st.sampled_from(["\r", "\t", "\x00", '"', " ", "\x1c", "\xe9", "\n", "#", ";", ","])


@st.composite
def trace_files(draw):
    """Trace bytes, mostly plain, with every byte csv or the text layer treats specially."""
    delimiter = draw(st.sampled_from([",", ",", ",", ";", "#", "\t"]))
    fmt = TraceFormat(delimiter=delimiter, header=draw(st.booleans()))
    plain_row = st.lists(FIELD_TEXT, min_size=3, max_size=3).map(delimiter.join)
    odd_row = st.lists(FIELD_TEXT | st.text(ODD_CHARS | st.sampled_from("ab09."), max_size=4),
                       min_size=1, max_size=4).map(delimiter.join)
    blank = st.text(st.sampled_from(" \t\x0b\x0c\x1c"), max_size=2)
    comment_line = st.tuples(st.text(st.sampled_from(" \t"), max_size=1), st.sampled_from(["#", ";", "//"]),
                             st.text(max_size=6)).map("".join)
    line = st.one_of(*[plain_row] * 4, odd_row, blank, comment_line).map(str.encode)
    lines = draw(st.lists(st.one_of(*[line] * 15, st.binary(max_size=6)), max_size=8))
    if fmt.header:
        names = draw(st.sampled_from([["timestamp", "um", "dm"]] * 3 + [["timestamp", "um", "x", "dm"], ["um", "x"]]))
        lines.insert(0, delimiter.join(draw(st.permutations(names))).encode())
    newline = draw(st.sampled_from([b"\n"] * 8 + [b"\r\n", b"\r"]))
    return newline.join(lines) + (newline if draw(st.booleans()) else b""), fmt


LIMIT = csv.field_size_limit()


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example((b"timestamp,um,dm\n1,a," + b"x" * (LIMIT - 4) + b"\n", TraceFormat()))  # a line at csv's field limit
@example((b"timestamp,um,dm\n1,a," + b"x" * (LIMIT - 3) + b"\n", TraceFormat()))  # one byte over: the csv reader
@example((b"x" * (LIMIT + 1), TraceFormat()))  # a header over the limit
@example((b"#\r,\n0,a,b\n", TraceFormat(header=False)))  # universal newlines split the comment
@example((b"# caf\xe9\n0,a,b", TraceFormat(header=False)))  # non-UTF-8 comment
@example((b"\xef\xbb\xbf# c\ntimestamp,um,dm\n1,a,b\n", TraceFormat()))  # a byte order mark
@example((b"timestamp,um,dm\n\n  \n\x1c# c\n1,,b\n2,a\n3,a,b,c\nnan,a,b\n4.5,a,b", TraceFormat()))
@given(trace_files())
def test_parse_trace_file_matches_the_csv_reader(tmp_path, trace):
    data, fmt = trace
    path = tmp_path / "trace.csv"
    path.write_bytes(data)
    assert parsed_or_error(parse_trace_file, path, fmt) == parsed_or_error(parse_text_file, path, fmt)


# Fields on both sides of the bulk reader's 8-byte integer keys: widths 0, 1,
# 7, 8, 9 and 16, and names that are prefixes of one another.
KEY_NAMES = st.sampled_from(["", "s", "s1", "s10", "s100000", "s1000000", "s10000000", "s100000000",
                             "abcdefg", "abcdefgh", "abcdefghi", "abcdefghijklmnop"])
KEY_STAMPS = st.sampled_from(["", "0", "7", "1234567", "12345678", "123456789", "1234567890123456",
                              "12.5", "1e3", "x"])
KEY_ROWS = st.lists(st.tuples(KEY_STAMPS, KEY_NAMES | st.text(st.sampled_from("s10ab!#~"), max_size=16),
                              KEY_NAMES), max_size=12)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example([("0", "s", "s100000000"), ("12345678", "s100000000", "s"), ("1", "s1", "s10")], False)
@example([("7", "abcdefgh", "abcdefghi"), ("1234567", "abcdefghijklmnop", "")], True)
@example([("1", "", "s")], False)  # a 1-byte field ending the file, which is under 8 bytes long
@given(KEY_ROWS, st.booleans())
def test_parse_trace_file_keys_fields_up_to_8_bytes_as_integers(tmp_path, monkeypatch, rows, final_newline):
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(map(",".join, rows)) + ("\n" if final_newline else ""))
    expected = parse_text_file(path, PLAIN)
    monkeypatch.setattr(ingest, "parse_trace", no_fallback)
    assert outcome(*parse_trace_file(path, PLAIN)) == outcome(*expected)


# ---------------------------------------------------------------------------
# the bulk file reader in blocks of a few bytes

#: `ingest._BLOCK_BYTES` values that put block boundaries inside a line, a
#: byte order mark and a field; a block always runs on to its next line break.
BLOCK_BYTES = st.sampled_from([1, 2, 3, 5, 8, 16, 64])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example((b"timestamp,um,dm\n1,a,b\n2,c,d\n3,e\rf,g\n", TraceFormat()), 8)  # a \r in a later block only
@example((b"timestamp,um,dm\n1,a,b\n# caf\xe9\n2,a,b\n", TraceFormat()), 8)  # a later non-UTF-8 comment
@example((b'timestamp,um,dm\n1,a,b\n2,"x,y",b\n', TraceFormat()), 8)  # a later line csv unquotes
@example((b"timestamp,um\n1,a\n# \xff\n", TraceFormat()), 8)  # an unbound header, then bytes csv cannot read
@example((b"timestamp,um,dm\n1,a,b\n2,a," + b"x" * (LIMIT - 3) + b"\n", TraceFormat()), 8)  # later, over the limit
@example((b"\xef\xbb\xbf# c\ntimestamp,um,dm\n1,a,b\n", TraceFormat()), 1)  # a byte order mark cut by the block
@example((b"timestamp,um,dm\n\xef\xbb\xbf1,a,b\n", TraceFormat()), 1)  # a mark leading a later block is text
@example((b"\n\n# c\n\ntimestamp,um,dm\n\n1,a,b\n2,b,a", TraceFormat()), 1)  # the header in a later block
@given(trace_files(), BLOCK_BYTES)
def test_parse_trace_file_in_small_blocks_matches_the_csv_reader(tmp_path, monkeypatch, trace, block_bytes):
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
    data, fmt = trace
    path = tmp_path / "trace.csv"
    path.write_bytes(data)
    assert parsed_or_error(parse_trace_file, path, fmt) == parsed_or_error(parse_text_file, path, fmt)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example([("0", "s", "s100000000"), ("1", "s100000000", "s"), ("2", "s1", "s10")], True, 1)
@given(KEY_ROWS, st.booleans(), BLOCK_BYTES)
def test_parse_trace_file_in_small_blocks_shares_one_vocabulary(tmp_path, monkeypatch, rows, final_newline,
                                                               block_bytes):
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(map(",".join, rows)) + ("\n" if final_newline else ""))
    expected = parse_text_file(path, PLAIN)
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(ingest, "parse_trace", no_fallback)
    events, skipped = parse_trace_file(path, PLAIN)
    assert outcome(events, skipped) == outcome(*expected)
    assert len(set(events.names.tolist())) == len(events.names)  # each name coded once across blocks


@pytest.mark.parametrize("late", [b"3,e\rf,g\n", b"# caf\xe9\n", "# caf\u00e9\n".encode()])
def test_a_late_byte_the_split_cannot_take_is_refused_before_any_block_is_split(tmp_path, monkeypatch, late):
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 8)
    path = tmp_path / "trace.csv"
    path.write_bytes(b"\xef\xbb\xbftimestamp,um,dm\n" + b"1,a,b\n" * 50 + late)
    split = []
    monkeypatch.setattr(ingest, "_kept_lines", lambda data: split.append(data))
    fmt = TraceFormat()
    assert parsed_or_error(parse_trace_file, path, fmt) == parsed_or_error(parse_text_file, path, fmt)
    assert split == []


class GrowingFile(io.BytesIO):
    """A trace still being written: two more lines once its line breaks are counted."""

    def seek(self, *args):
        self.write(b"9,late,row\n9,later,row\n")  # the count has read to the end
        return super().seek(*args)


def test_a_trace_that_grows_while_read_takes_the_csv_reader():
    handle = GrowingFile(b"0,a,b\n" * 3)
    assert ingest._parse_blocks(handle, PLAIN) is None


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
def test_a_trace_read_from_a_pipe_parses_as_the_file_does(monkeypatch, newline):
    if newline == b"\n":
        monkeypatch.setattr(ingest, "parse_trace", no_fallback)  # CRLF takes the csv reader
    read_end, write_end = os.pipe()  # as a shell's <(...) hands one over
    os.write(write_end, b"timestamp,um,dm\n1,a,b\n2,b,a\n".replace(b"\n", newline))
    os.close(write_end)
    try:
        events, skipped = parse_trace_file(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert (rows(events), skipped) == ([("a", "b", 1), ("b", "a", 2)], 0)


def trace_of(rows):
    return "timestamp,um,dm\n" + "".join(f"{i},svc{i % 97},svc{i % 89}\n" for i in range(rows))


def test_parse_scratch_memory_is_set_by_the_block_not_the_file(tmp_path, monkeypatch):
    # The scratch of a whole-file split is ~7 bytes per byte of trace; in
    # blocks it is ~16 bytes per byte of one block, whatever the file size.
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 1 << 14)
    allowance = 32 * ingest._BLOCK_BYTES
    for rows in (5_000, 40_000):
        path = tmp_path / f"trace_{rows}.csv"
        path.write_text(trace_of(rows))
        assert path.stat().st_size >= 4 * ingest._BLOCK_BYTES
        tracemalloc.start()
        try:
            events, skipped = parse_trace_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(events), skipped) == (rows, 0)
        kept = events.caller.nbytes + events.callee.nbytes + events.ts.nbytes
        assert peak - kept < allowance, (rows, peak - kept)


# ---------------------------------------------------------------------------
# the trace writer against csv.writer

WRITTEN_NAMES = st.text(st.sampled_from('ab,"\xe9 '), max_size=4).filter(lambda name: name == name.strip())


@st.composite
def written_tables(draw):
    """Tables of int64 or float64 timestamps whose names may need csv's quotes."""
    rows = draw(st.integers(0, 12))
    names = draw(st.lists(WRITTEN_NAMES, min_size=1, max_size=5, unique=True))
    codes = st.lists(st.integers(0, len(names) - 1), min_size=rows, max_size=rows).map(np.array)
    kind, values = draw(st.sampled_from([(np.int64, st.integers(-2**63, 2**63 - 1)), (np.float64, st.floats())]))
    stamps = np.array(draw(st.lists(values, min_size=rows, max_size=rows)), dtype=kind)
    return EventTable(np.array(names, dtype=object), draw(codes).astype(np.int64), draw(codes).astype(np.int64),
                      stamps)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(table([("a,b", 'q"x', 1), ("a", "b", 2), ("b", "a", 3)]), 1)  # quoted names in the first block only
@example(table([("a", "b", 1), ("a", "b", 2), ('q"x', "b", 3)]), 2)  # a quoted name in a later block only
@given(written_tables(), st.sampled_from([1, 2, 5, 1 << 14]))
def test_write_trace_matches_csv_writer(tmp_path, monkeypatch, events, block_rows):
    monkeypatch.setattr(ingest, "_CSV_BLOCK_ROWS", block_rows)
    expected = io.StringIO()
    expected.write("# seed=0\n")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(("timestamp", "um", "dm"))
    writer.writerows(zip(events.ts.tolist(), events.names[events.caller].tolist(),
                         events.names[events.callee].tolist()))
    path = tmp_path / "trace.csv"
    write_trace(events, path, header_comment="seed=0")
    assert path.read_bytes().decode("utf-8") == expected.getvalue()
