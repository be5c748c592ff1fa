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
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

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

    `names` is an object array of distinct service names, in no specified
    order, and `caller` and `callee` are int64 codes into it: the name of
    row i's caller is `names[caller[i]]`.  A name need not be used by any
    row.  `ts` holds the millisecond timestamps: float64, truncated toward
    zero, as parsed; int64 once `clean_trace` has range-checked them.
    `src` and `dst` are the int64 node ids of caller and callee, set by
    `preprocess.apply_mapping`.
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


#: Bytes `parse_trace_file` reads at a time, then on to the next line break.
#: The bulk split holds one such block of whole lines, so its scratch memory
#: is set by this, not by the file's size.
_BLOCK_BYTES = 1 << 18


def parse_trace_file(path: str | Path, fmt: TraceFormat = TraceFormat()) -> tuple[EventTable, int]:
    """Parse a trace file into what `parse_trace` gives on its UTF-8 text.

    The same table and skip count, or the same error.  The file is read as
    bytes in blocks of whole lines, each split in bulk (`_parse_blocks`),
    less one UTF-8 byte order mark leading the file, which `parse_trace`
    drops too.  Where any block's split cannot be shown to match csv's, the
    whole file is read again as UTF-8 text through `parse_trace`, which is
    the reference.
    """
    with open(path, "rb") as raw:
        # A pipe cannot be read twice, so it is read into memory once.
        handle = raw if raw.seekable() else io.BytesIO(raw.read())
        parsed = _parse_blocks(handle, fmt)
        if parsed is not None:
            return parsed
        handle.seek(0)
        try:
            return parse_trace(io.TextIOWrapper(handle, encoding="utf-8"), fmt)
        except UnicodeDecodeError as exc:
            raise DataError(f"trace {path} is not UTF-8 text: {exc.reason}") from None


#: The ASCII characters `str.strip()` removes.
_SPACE = bytes(i for i in range(128) if chr(i).isspace())


def _parse_blocks(handle: BinaryIO, fmt: TraceFormat) -> tuple[EventTable, int] | None:
    """`parse_trace` over the lines of the file `handle` reads, or None where it may differ.

    The file is read twice, in blocks of whole lines (`_blocks`).  The
    first pass counts its line breaks, which bound its rows, so that each
    output column is allocated once; it also refuses a file that holds a
    carriage return or a byte >= 0x80 before any block is split.  The
    second pass splits each block with numpy (`_kept_lines`,
    `_block_rows`).  A block's distinct name texts take codes in one
    running vocabulary, in the order they first come, and its rows' codes
    and timestamps are written into the columns in place.  The header is
    the file's first kept line.

    Returns None, for `parse_trace` to read the text instead, when the
    delimiter is not one printable ASCII character other than `"`; when the
    file holds a carriage return or a byte >= 0x80 (universal newlines would
    split a line there, and a comment must still be valid UTF-8); when
    `_kept_lines` refuses any block; when the header's columns do not bind,
    since the csv reader may yet meet an unreadable line first; or when the
    file has grown since its line breaks were counted.
    """
    fmt.validate()
    if not "!" <= fmt.delimiter <= "~" or fmt.delimiter == '"':
        return None
    columns = fmt.columns
    positions = None if fmt.header else _bind_columns(columns, fmt)
    capacity = 1
    for data in _blocks(handle):
        if b"\r" in data or not data.isascii():
            return None
        capacity += data.count(b"\n")
    handle.seek(0)
    caller, callee = np.empty(capacity, dtype=np.int64), np.empty(capacity, dtype=np.int64)
    ts = np.empty(capacity, dtype=np.float64)
    vocabulary: dict[bytes, int] = {}
    rows = skipped = 0
    for data in _blocks(handle):
        found = _kept_lines(data)
        if found is None:
            return None
        b, starts, ends, lines = found
        if positions is None:
            if not lines.size:
                continue
            columns = tuple(data[starts[lines[0]]:ends[lines[0]]].decode("ascii").split(fmt.delimiter))
            lines = lines[1:]
            try:
                positions = _bind_columns(columns, fmt)
            except ConfigError:
                return None
        stamps, texts, codes, block_skipped = _block_rows(b, starts, ends, lines, len(columns), positions,
                                                          fmt.delimiter)
        n = stamps.size
        if rows + n > capacity:
            return None
        lut = np.fromiter((vocabulary.setdefault(text, len(vocabulary)) for text in texts), dtype=np.int64,
                          count=len(texts))
        for column, block_codes in zip((caller, callee), codes):
            np.take(lut, block_codes, out=column[rows:rows + n])
        ts[rows:rows + n] = stamps
        rows += n
        skipped += block_skipped
    names = np.array([text.decode("ascii") for text in vocabulary], dtype=object)
    return EventTable(names, caller[:rows], callee[:rows], ts[:rows]), skipped


def _blocks(handle: BinaryIO) -> Iterator[bytes]:
    """The bytes `handle` reads, in blocks of whole lines: `_BLOCK_BYTES`,
    then on to the next line break.  One UTF-8 byte order mark leading the
    first block is dropped."""
    for i, block in enumerate(iter(lambda: handle.read(_BLOCK_BYTES) + handle.readline(), b"")):
        yield block.removeprefix(codecs.BOM_UTF8) if i == 0 else block


def _kept_lines(data: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """`data` as a uint8 array, each line's start and end, and the indices of its kept lines.

    `data` holds no carriage return and no byte >= 0x80: `_parse_blocks`
    refuses such a file before it splits any block.  A kept line (neither
    blank nor a comment) that holds printable ASCII only, with no `"`, is
    left as it is by `str.strip()`, and csv splits it at each delimiter and
    nowhere else.  None where a kept line holds any other byte, or is longer
    than csv's field size limit.
    """
    b = np.frombuffer(data, dtype=np.uint8)
    ends, odd = _scan(b)
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
    return b, starts, ends, lines


def _block_rows(b: np.ndarray, starts: np.ndarray, ends: np.ndarray, lines: np.ndarray, n_columns: int,
                positions: tuple[int, int, int],
                delimiter: str) -> tuple[np.ndarray, list[bytes], list[np.ndarray], int]:
    """Split the kept `lines` of `b` (`_kept_lines`) into fields of `n_columns` columns.

    Delimiter positions give each line's field count and field bounds.
    Returns the finite timestamps, truncated; the distinct caller and callee
    texts; the caller and callee codes into them (`_intern`, so each
    distinct name and timestamp text is decoded once); and the count of
    lines skipped for a wrong field count or a timestamp that is not a
    finite number.
    """
    caller_i, callee_i, ts_i = positions
    delims = np.flatnonzero(b == ord(delimiter))
    first_delim = np.searchsorted(delims, starts[lines])
    good = np.searchsorted(delims, ends[lines]) - first_delim == n_columns - 1
    skipped = int(lines.size - np.count_nonzero(good))
    lines, first_delim = lines[good], first_delim[good]

    def field(j: int) -> tuple[np.ndarray, np.ndarray]:
        """Start offset and width of column j in every line of `lines`."""
        start = starts[lines] if j == 0 else delims[first_delim + (j - 1)] + 1
        stop = ends[lines] if j == n_columns - 1 else delims[first_delim + j]
        return start, stop - start

    stamps = _stamps(b, field(ts_i))
    finite = np.isfinite(stamps)
    skipped += int(stamps.size - np.count_nonzero(finite))
    lines, first_delim = lines[finite], first_delim[finite]
    texts, codes = _intern(b, (field(j) for j in (caller_i, callee_i)))
    return np.trunc(stamps[finite]), texts, codes, skipped


def _scan(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the line breaks and of the odd bytes in `b`.

    Odd bytes keep a line out of the bulk split: all but printable ASCII,
    and csv's quote character.
    """
    special = np.flatnonzero(b - np.uint8(ord("#")) > np.uint8(ord("~") - ord("#")))  # bytes outside "#".."~"
    byte = b[special]
    line_break = byte == ord("\n")
    odd = ~line_break & (byte != ord("!"))
    return special[line_break], special[odd]


def _stamps(b: np.ndarray, field: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The float value of each timestamp field, NaN where it is not a number.

    Apart from `_block_rows`, so that the interning's arrays are freed
    before the name columns are interned.
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
    distinct keys then once more together, which is faster than one sort
    over every column at once: for two columns of 14,728 keys over 200
    names, a 256 KiB block's worth, 1.28 ms against 1.38 ms (medians of
    300, one core).
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
    uint64, through an overlapping strided view of a copy of `b` padded with
    8 NULs, and the bytes past the field are shifted out.  The view has a row
    at `b.size` too, where an empty last field starts.  With no NUL in a
    field, the key's leading byte is not zero, so a key stands for one field
    text.  The empty field's key is 0: numpy defines a shift by all 64 bits
    to give 0.
    """
    padded = np.concatenate([b, np.zeros(8, dtype=np.uint8)])
    keys = np.ndarray((b.size + 1,), dtype=">u8", buffer=padded, strides=(1,))[start].astype(np.uint64)
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

    Only rows that are dropped or reordered cost a copy: when every row is
    kept and the timestamps are already non-decreasing, the result holds
    the input's `caller` and `callee` arrays themselves, and only `ts` is
    cast to a new int64 array.
    """
    if t_max <= 0:
        raise ConfigError(f"t_max must be positive, got {t_max}")
    named = events.names != ""
    keep = named[events.caller] & named[events.callee]
    n_named = int(np.count_nonzero(keep))
    ts = events.ts
    keep &= (ts >= 0) & (ts <= t_max)
    n_kept = int(np.count_nonzero(keep))
    dropped = {"dropped_empty_endpoint": len(events) - n_named, "dropped_out_of_range": n_named - n_kept}
    caller, callee = events.caller, events.callee
    if n_kept < len(events):
        rows = np.flatnonzero(keep)
        caller, callee, ts = caller[rows], callee[rows], ts[rows]
    if np.any(ts[1:] < ts[:-1]):
        rows = np.argsort(ts, kind="stable")
        caller, callee, ts = caller[rows], callee[rows], ts[rows]
    return EventTable(events.names, caller, callee, ts.astype(np.int64)), dropped


#: Rows `write_trace` joins into one text at a time.
_WRITE_ROWS = 1 << 14


def write_trace(events: EventTable, path: str | Path, header_comment: str | None = None) -> None:
    """Write a clean table in the default format this module reads (round-trip).

    The text is what csv's writer gives: a name that holds the delimiter or
    a `"` is quoted, with each `"` doubled.  Each name's field text is made
    once, and rows are joined in blocks of `_WRITE_ROWS`.
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
    fields = np.array(['"' + name.replace('"', '""') + '"' if "," in name or '"' in name else name
                       for name in names], dtype=object)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if header_comment:
            handle.write(f"{COMMENT} {header_comment}\n")
        handle.write("timestamp,um,dm\n")
        for start in range(0, len(events), _WRITE_ROWS):
            stop = min(len(events), start + _WRITE_ROWS)
            parts = [","] * (6 * (stop - start))
            parts[0::6] = map(str, events.ts[start:stop].tolist())
            parts[2::6] = fields[events.caller[start:stop]].tolist()
            parts[4::6] = fields[events.callee[start:stop]].tolist()
            parts[5::6] = ["\n"] * (stop - start)
            handle.write("".join(parts))
