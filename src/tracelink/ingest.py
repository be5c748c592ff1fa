"""Trace ingestion: delimited text in, one clean time-ordered event table out.

A trace file carries one call event per line.  The physical column layout is
configurable (delimiter, optional header row, column names); logically every
event must provide a caller service, a callee service, and a millisecond
timestamp; blank lines and COMMENT lines carry none.  Parsing is forgiving
(malformed lines are counted and skipped), cleaning is strict (only events
satisfying the invariants survive).
"""
from __future__ import annotations

import codecs
import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError, DataError

#: Prefix of a comment line, in every trace format.
COMMENT = "#"


#: Physical layout of a trace file and the binding of logical columns
#: (caller / callee / timestamp) to physical column names.
@dataclass(frozen=True)
class TraceFormat:
    columns: tuple[str, ...] = ("timestamp", "um", "dm")
    caller: str = "um"
    callee: str = "dm"
    timestamp: str = "timestamp"
    delimiter: str = ","
    header: bool = True

    def validate(self) -> None:
        """csv splits on a one-character delimiter only."""
        if not isinstance(self.delimiter, str) or len(self.delimiter) != 1:
            raise ConfigError(f"trace_format.delimiter must be one character, got {self.delimiter!r}")


@dataclass(frozen=True, eq=False)
class EventTable:
    """Call events as parallel columns, one row per call instance.

    `names` is an object array of distinct service names, and `caller` and
    `callee` are int64 codes into it: the name of row i's caller is
    `names[caller[i]]`.  A name need not be used by any row.  `ts` holds the
    millisecond timestamps: float64, truncated toward zero, as parsed; int64
    once `clean_trace` has range-checked them.  `src` and `dst` are the int64
    node ids of caller and callee, set by `preprocess.apply_mapping`.
    """

    names: np.ndarray
    caller: np.ndarray
    callee: np.ndarray
    ts: np.ndarray
    src: np.ndarray | None = None
    dst: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.ts.shape[0])


def _data_lines(lines: Iterable[str]) -> Iterator[str]:
    for i, line in enumerate(lines):
        stripped = (line if i else line.removeprefix("\ufeff")).strip()
        if stripped and not stripped.startswith(COMMENT):
            yield stripped


def _parsed(callers: list[str], callees: list[str], stamps: list[float]) -> EventTable:
    codes: dict[str, int] = {}  # one vocabulary for both name columns

    def code_column(names: list[str]) -> np.ndarray:
        return np.fromiter((codes.setdefault(name, len(codes)) for name in names), dtype=np.int64, count=len(names))

    caller, callee = code_column(callers), code_column(callees)
    return EventTable(np.array(list(codes), dtype=object), caller, callee,
                      np.trunc(np.array(stamps, dtype=np.float64)))


def parse_trace(lines: Iterable[str], fmt: TraceFormat = TraceFormat()) -> tuple[EventTable, int]:
    """Parse a line-oriented trace stream.

    Returns (events, skipped) where `skipped` counts malformed lines: wrong
    field count or a timestamp that is unparseable or not finite.  Fractional
    timestamps are truncated toward zero.  With ``fmt.header`` the first data
    line names the columns and overrides ``fmt.columns``.  One byte order
    mark (U+FEFF) leading the first line is dropped.  Text that csv
    cannot split (say, a field over its size limit) is a DataError, and a
    format that fails `TraceFormat.validate` a ConfigError.
    """
    fmt.validate()
    try:
        return _parse_rows(_data_lines(lines), fmt)
    except csv.Error as exc:
        raise DataError(f"unreadable trace line: {exc}") from None


def _parse_rows(stream: Iterator[str], fmt: TraceFormat) -> tuple[EventTable, int]:
    columns = fmt.columns
    callers: list[str] = []
    callees: list[str] = []
    stamps: list[float] = []
    if fmt.header:
        try:
            header_line = next(stream)
        except StopIteration:
            return _parsed(callers, callees, stamps), 0
        columns = tuple(name.strip() for name in next(csv.reader([header_line], delimiter=fmt.delimiter)))
    caller_i, callee_i, ts_i = _bind_columns(columns, fmt)

    skipped = 0
    for row in csv.reader(stream, delimiter=fmt.delimiter):
        if len(row) != len(columns):
            skipped += 1
            continue
        try:
            ts = float(row[ts_i])
        except ValueError:
            ts = math.nan
        if not math.isfinite(ts):
            skipped += 1
            continue
        callers.append(row[caller_i].strip())
        callees.append(row[callee_i].strip())
        stamps.append(ts)
    return _parsed(callers, callees, stamps), skipped


def _bind_columns(columns: tuple[str, ...], fmt: TraceFormat) -> tuple[int, int, int]:
    """Positions of the caller, callee and timestamp columns among `columns`."""
    if not columns:
        raise ConfigError("trace format needs column names (no header row, no configured columns)")
    for logical, name in (("caller", fmt.caller), ("callee", fmt.callee), ("timestamp", fmt.timestamp)):
        if name not in columns:
            raise ConfigError(f"trace schema is missing the {logical} column {name!r}")
    return columns.index(fmt.caller), columns.index(fmt.callee), columns.index(fmt.timestamp)


def parse_trace_file(path: str | Path, fmt: TraceFormat = TraceFormat()) -> tuple[EventTable, int]:
    """Parse a trace file into what `parse_trace` gives on its UTF-8 text.

    The same table and skip count, or the same error.  The file is read
    once as bytes and split in bulk (`_parse_bytes`), less one leading
    UTF-8 byte order mark, which `parse_trace` drops too.  Where that split
    cannot be shown to match csv's, the whole file is read again as text
    through `parse_trace`, which is the reference.
    """
    parsed = _parse_bytes(Path(path).read_bytes().removeprefix(codecs.BOM_UTF8), fmt)
    if parsed is not None:
        return parsed
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return parse_trace(handle, fmt)
        except UnicodeDecodeError as exc:
            raise DataError(f"trace {path} is not UTF-8 text: {exc.reason}") from None


#: The ASCII characters `str.strip()` removes.
_SPACE = bytes(i for i in range(128) if chr(i).isspace())


def _parse_bytes(data: bytes, fmt: TraceFormat) -> tuple[EventTable, int] | None:
    """`parse_trace` over the lines of `data`, or None where it may differ.

    A kept line (neither blank nor a comment) that holds printable ASCII only,
    with no `"`, is left as it is by `str.strip()`, and csv splits it at each
    delimiter and nowhere else.  So such lines are split with numpy on the
    whole buffer: line breaks and delimiter positions give each line's field
    count and field bounds.  Fields are interned by integer key (`_intern`),
    both name columns into one vocabulary, so each distinct name and
    timestamp text is decoded once.

    Returns None, for `parse_trace` to read the text instead, when the
    delimiter is not one printable ASCII character other than `"`; when
    `data` holds a carriage return or a byte >= 0x80 anywhere (universal
    newlines would split a line there, and a comment must still be valid
    UTF-8); when a kept line holds any other byte; or when a kept line is
    longer than csv's field size limit.
    """
    fmt.validate()
    if not "!" <= fmt.delimiter <= "~" or fmt.delimiter == '"':
        return None
    b = np.frombuffer(data, dtype=np.uint8)
    scan = _scan(b)
    if scan is None:
        return None
    ends, odd = scan
    if b.size and b[-1] != ord("\n"):
        ends = np.append(ends, b.size)
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1

    first = b[starts]
    kept = first != ord(COMMENT)
    # A line led by whitespace or empty may still be blank or a comment.
    for line in np.flatnonzero(first <= ord(" ")).tolist():
        text = data[starts[line]:ends[line]].strip(_SPACE)
        kept[line] = bool(text) and text[:1] != COMMENT.encode()
    if kept[np.searchsorted(ends, odd)].any():
        return None
    lines = np.flatnonzero(kept)
    if lines.size and np.max(ends[lines] - starts[lines]) > csv.field_size_limit():
        return None

    columns = fmt.columns
    if fmt.header:
        if not lines.size:
            return _parsed([], [], []), 0
        columns = tuple(data[starts[lines[0]]:ends[lines[0]]].decode("ascii").split(fmt.delimiter))
        lines = lines[1:]
    caller_i, callee_i, ts_i = _bind_columns(columns, fmt)

    delims = np.flatnonzero(b == ord(fmt.delimiter))
    first_delim = np.searchsorted(delims, starts[lines])
    good = np.searchsorted(delims, ends[lines]) - first_delim == len(columns) - 1
    skipped = int(lines.size - np.count_nonzero(good))
    lines, first_delim = lines[good], first_delim[good]

    def field(j: int) -> tuple[np.ndarray, np.ndarray]:
        """Start offset and width of column j in every line of `lines`."""
        start = starts[lines] if j == 0 else delims[first_delim + (j - 1)] + 1
        stop = ends[lines] if j == len(columns) - 1 else delims[first_delim + j]
        return start, stop - start

    stamps = _stamps(b, field(ts_i))
    finite = np.isfinite(stamps)
    skipped += int(stamps.size - np.count_nonzero(finite))
    lines, first_delim, stamps = lines[finite], first_delim[finite], np.trunc(stamps[finite])
    texts, (caller, callee) = _intern(b, (field(j) for j in (caller_i, callee_i)))
    names = np.array([text.decode("ascii") for text in texts], dtype=object)
    return EventTable(names, caller, callee, stamps), skipped


def _scan(b: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The positions of the line breaks and of the odd bytes in `b`.

    Odd bytes keep a line out of the bulk split: all but printable ASCII,
    and csv's quote character.  None if `b` holds a carriage return or a
    byte >= 0x80.
    """
    special = np.flatnonzero(b - np.uint8(ord("#")) > np.uint8(ord("~") - ord("#")))  # bytes outside "#".."~"
    byte = b[special]
    line_break = byte == ord("\n")
    odd = ~line_break & (byte != ord("!"))
    if np.any((byte[odd] == ord("\r")) | (byte[odd] >= 0x80)):
        return None
    return special[line_break], special[odd]


def _stamps(b: np.ndarray, field: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The float value of each timestamp field, NaN where it is not a number.

    Apart from `_parse_bytes`, so that the interning's arrays are freed
    before the name columns are interned (the parse sets a heavy run's peak
    memory).
    """
    texts, (codes,) = _intern(b, [field])
    return np.array([_stamp(text) for text in texts], dtype=np.float64)[codes]


def _stamp(text: bytes) -> float:
    try:
        return float(text.decode("ascii"))
    except ValueError:
        return math.nan


#: Keys from here up stand for fields over 8 bytes, as this plus the field's
#: index among them.  A shorter field's key is below: its leading byte is ASCII.
_WIDE = 1 << 63


def _intern(b: np.ndarray, fields: Iterable[tuple[np.ndarray, np.ndarray]]) -> tuple[list[bytes], list[np.ndarray]]:
    """The distinct byte strings over columns of fields, and each field's index among them.

    `fields` yields each column's field starts and widths in `b`; all the
    columns share one vocabulary, and each gets its own array of indices.
    Each column's keys (`_keys`) are sorted on their own, and the columns'
    distinct keys then once more together, which holds less memory than one
    sort over every column at once.
    """
    wide: dict[bytes, int] = {}
    # With return_inverse numpy sorts; its hash path would import numpy.ma (~13 ms).
    columns = [np.unique(_keys(b, start, width, wide), return_inverse=True) for start, width in fields]
    keys, merged = np.unique(np.concatenate([distinct for distinct, _ in columns]), return_inverse=True)
    offsets = np.cumsum([0] + [distinct.size for distinct, _ in columns]).tolist()
    codes = [merged[offset:][inverse] for offset, (_, inverse) in zip(offsets, columns)]
    wide_texts = list(wide)
    texts = [wide_texts[key - _WIDE] if key >= _WIDE else key.to_bytes((key.bit_length() + 7) // 8, "big")
             for key in keys.tolist()]
    return texts, codes


def _keys(b: np.ndarray, start: np.ndarray, width: np.ndarray, wide: dict[bytes, int]) -> np.ndarray:
    """One uint64 key per field `b[start:start + width]`; fields hold no NUL.

    A field of at most 8 bytes is keyed by its bytes as one integer
    (`_int_keys`).  Wider fields of one width are compared as fixed-width
    byte strings, gathered through an overlapping strided view of `b`, which
    numpy's fixed-width bytes keep whole; each is keyed `_WIDE` plus its
    index in `wide`, which takes in the texts it does not hold yet.
    """
    keys = _int_keys(b, start, np.minimum(width, 8))
    rows = np.flatnonzero(width > 8)
    rows = rows[np.argsort(width[rows], kind="stable")]
    for group in np.split(rows, np.flatnonzero(np.diff(width[rows])) + 1):
        if not group.size:
            continue
        w = int(width[group[0]])
        texts, inverse = np.unique(np.ndarray((b.size - w + 1,), dtype=f"S{w}", buffer=b, strides=(1,))[start[group]],
                                   return_inverse=True)
        ids = np.array([wide.setdefault(text, len(wide)) for text in texts.tolist()], dtype=np.uint64)
        keys[group] = ids[inverse] + np.uint64(_WIDE)
    return keys


def _int_keys(b: np.ndarray, start: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Each field `b[start:start + width]` of at most 8 bytes as one integer, its bytes big-endian.

    The 8 bytes from a field's start are read as one unaligned big-endian
    uint64, through an overlapping strided view of `b`, and the bytes past
    the field are shifted out.  A field that starts in the last 7 bytes is
    read from the last 8 bytes and shifted left first, so nothing is read
    past the end and `b` is not copied.  With no NUL in a field, the key's
    leading byte is not zero, so a key stands for one field text.  The empty
    field's key is 0: numpy defines a shift by all 64 bits to give 0.
    """
    if b.size < 8:
        b = np.concatenate([b, np.zeros(8 - b.size, dtype=np.uint8)])
    last = b.size - 8
    at = np.minimum(start, last)
    keys = np.ndarray((last + 1,), dtype=">u8", buffer=b, strides=(1,))[at].astype(np.uint64)
    near = np.flatnonzero(at < start)
    keys[near] <<= (8 * (start[near] - last)).astype(np.uint64)
    keys >>= (8 * (8 - width)).astype(np.uint64)
    return keys


def clean_trace(events: EventTable, t_max: int) -> tuple[EventTable, dict[str, int]]:
    """Keep events with non-empty endpoints and timestamp in [0, t_max].

    Returns (clean, dropped), where `dropped` counts the rows left out by
    reason: `dropped_empty_endpoint` for a row naming an empty service, then
    `dropped_out_of_range` for any other row whose timestamp lies outside
    the range.  The range test runs on the parsed timestamps before the
    int64 cast, so a stamp too large for int64 is dropped rather than
    wrapped.  The result shares the input's `names` and is sorted by
    timestamp with a stable sort, so same-timestamp events keep their input
    order.  Duplicate events are retained: each call instance matters for
    the multigraph downstream.
    """
    if t_max <= 0:
        raise ConfigError(f"t_max must be positive, got {t_max}")
    named = events.names != ""
    named = named[events.caller] & named[events.callee]
    ts = events.ts
    keep = np.flatnonzero(named & (ts >= 0) & (ts <= t_max))
    rows = keep[np.argsort(ts[keep], kind="stable")]
    n_named = int(np.count_nonzero(named))
    dropped = {"dropped_empty_endpoint": len(events) - n_named, "dropped_out_of_range": n_named - keep.size}
    return EventTable(events.names, events.caller[rows], events.callee[rows], ts[rows].astype(np.int64)), dropped


def write_trace(events: EventTable, path: str | Path, header_comment: str | None = None) -> None:
    """Write a clean table in the default format this module reads (round-trip).

    Rows go through csv, so a name holding the delimiter or a `"` is quoted.
    A name the reader would not give back, one with whitespace at an edge
    (stripped) or a line break (lines split there), is a DataError raised
    before the file is opened.  Each name of the vocabulary is checked once;
    the error names the first row that holds a bad one.  A `header_comment`
    holding a line break, whose second line would be read as the header, is
    a DataError too.
    """
    if header_comment and ("\n" in header_comment or "\r" in header_comment):
        raise DataError(f"header comment {header_comment!r} holds a line break")
    names = events.names.tolist()
    bad = np.array([name != name.strip() or "\n" in name or "\r" in name for name in names], dtype=bool)
    if bad.any():
        rows = np.flatnonzero(bad[events.caller] | bad[events.callee])
        if rows.size:
            row = int(rows[0])
            code = events.caller[row] if bad[events.caller[row]] else events.callee[row]
            raise DataError(f"row {row}: service name {names[code]!r} would not read back from a trace file")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if header_comment:
            handle.write(f"{COMMENT} {header_comment}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("timestamp", "um", "dm"))
        writer.writerows(zip(events.ts.tolist(), events.names[events.caller].tolist(),
                             events.names[events.callee].tolist()))
