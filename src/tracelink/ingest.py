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

    `caller` and `callee` are object arrays of service names.  `ts` holds the
    millisecond timestamps: float64, truncated toward zero, as parsed; int64
    once `clean_trace` has range-checked them.  `src` and `dst` are the int64
    node ids of caller and callee, set by `preprocess.apply_mapping`.
    """

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
    return EventTable(
        np.array(callers, dtype=object),
        np.array(callees, dtype=object),
        np.trunc(np.array(stamps, dtype=np.float64)),
    )


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
#: Bytes that keep a line out of the bulk split: all but printable ASCII
#: (0x21-0x7e, so no space) without csv's quote character.  The line break
#: is left out, since it ends lines rather than sitting in them.
_ODD = np.ones(256, dtype=bool)
_ODD[0x21:0x7F] = False
_ODD[ord('"')] = True
_ODD[ord("\n")] = False


def _parse_bytes(data: bytes, fmt: TraceFormat) -> tuple[EventTable, int] | None:
    """`parse_trace` over the lines of `data`, or None where it may differ.

    A kept line (neither blank nor a comment) that holds printable ASCII only,
    with no `"`, is left as it is by `str.strip()`, and csv splits it at each
    delimiter and nowhere else.  So such lines are split with numpy on the
    whole buffer: line breaks and delimiter positions give each line's field
    count and field bounds.  Each distinct caller, callee and timestamp text
    is decoded once, and both name columns share one `str` per service.

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
    odd = np.flatnonzero(_ODD[b])
    if np.any((b[odd] == ord("\r")) | (b[odd] >= 0x80)):
        return None
    ends = np.flatnonzero(b == ord("\n"))
    if b.size and b[-1] != ord("\n"):
        ends = np.append(ends, b.size)
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1

    first = b[starts]
    kept = first != ord(COMMENT)
    # A line led by whitespace or empty may still be blank or a comment.
    for line in np.flatnonzero(_ODD[first] | (first == ord("\n"))).tolist():
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

    stamp_texts, stamp_codes = _intern(data, *field(ts_i))
    stamps = np.array([_stamp(text) for text in stamp_texts], dtype=np.float64)[stamp_codes]
    finite = np.isfinite(stamps)
    skipped += int(stamps.size - np.count_nonzero(finite))
    lines, first_delim = lines[finite], first_delim[finite]
    names: dict[bytes, str] = {}  # one str per service, shared by both columns

    def name_column(j: int) -> np.ndarray:
        texts, codes = _intern(data, *field(j))
        return np.array([names.setdefault(text, text.decode("ascii")) for text in texts], dtype=object)[codes]

    return EventTable(name_column(caller_i), name_column(callee_i), np.trunc(stamps[finite])), skipped


def _stamp(text: bytes) -> float:
    try:
        return float(text.decode("ascii"))
    except ValueError:
        return math.nan


def _intern(data: bytes, start: np.ndarray, width: np.ndarray) -> tuple[list[bytes], np.ndarray]:
    """The distinct byte strings `data[start:start + width]`, and each one's index.

    Fields of one width are compared as fixed-width byte strings, gathered
    through an overlapping strided view of `data`; fields hold no NUL, so
    numpy's fixed-width bytes lose nothing.
    """
    order = np.argsort(width, kind="stable")
    sorted_width = width[order]
    codes = np.empty(width.size, dtype=np.int64)
    texts: list[bytes] = []
    for rows in np.split(order, np.flatnonzero(sorted_width[1:] != sorted_width[:-1]) + 1):
        if not rows.size:
            continue
        w = int(width[rows[0]])
        if w == 0:
            distinct, inverse = np.array([b""]), np.zeros(rows.size, dtype=np.int64)
        else:
            keys = np.ndarray((len(data) - w + 1,), dtype=f"S{w}", buffer=data, strides=(1,))[start[rows]]
            # With return_inverse numpy sorts; its hash path would import numpy.ma (~13 ms).
            distinct, inverse = np.unique(keys, return_inverse=True)
        codes[rows] = inverse + len(texts)
        texts.extend(distinct.tolist())
    return texts, codes


def clean_trace(events: EventTable, t_max: int) -> EventTable:
    """Keep events with non-empty endpoints and timestamp in [0, t_max].

    The range test runs on the parsed timestamps before the int64 cast, so
    a stamp too large for int64 is dropped rather than wrapped.  The result
    is sorted by timestamp with a stable sort, so same-timestamp events keep
    their input order.  Duplicate events are retained: each call instance
    matters for the multigraph downstream.
    """
    if t_max <= 0:
        raise ConfigError(f"t_max must be positive, got {t_max}")
    ts = events.ts
    keep = np.flatnonzero((events.caller != "") & (events.callee != "") & (ts >= 0) & (ts <= t_max))
    rows = keep[np.argsort(ts[keep], kind="stable")]
    return EventTable(events.caller[rows], events.callee[rows], ts[rows].astype(np.int64))


def write_trace(events: EventTable, path: str | Path, header_comment: str | None = None) -> None:
    """Write a clean table in the default format this module reads (round-trip).

    Rows go through csv, so a name holding the delimiter or a `"` is quoted.
    A name the reader would not give back, one with whitespace at an edge
    (stripped) or a line break (lines split there), is a DataError raised
    before the file is opened.
    """
    for column in (events.caller, events.callee):
        for name in dict.fromkeys(column.tolist()):
            if name != name.strip() or "\n" in name or "\r" in name:
                row = int(np.flatnonzero(column == name)[0])
                raise DataError(f"row {row}: service name {name!r} would not read back from a trace file")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if header_comment:
            handle.write(f"{COMMENT} {header_comment}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("timestamp", "um", "dm"))
        writer.writerows(zip(events.ts.tolist(), events.caller.tolist(), events.callee.tolist()))
