"""Trace ingestion: delimited text in, one clean time-ordered event table out.

A trace file carries one call event per line.  The physical column layout is
configurable (delimiter, optional header row, column names); logically every
event must provide a caller service, a callee service, and a millisecond
timestamp.  Parsing is forgiving (malformed lines are counted and skipped),
cleaning is strict (only events satisfying the invariants survive).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError, DataError

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
    comment: str = "#"

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


def _data_lines(lines: Iterable[str], comment: str) -> Iterator[str]:
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        if comment and stripped.startswith(comment):
            continue
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
    line names the columns and overrides ``fmt.columns``.  Text that csv
    cannot split (say, a field over its size limit) is a DataError, and a
    format that fails `TraceFormat.validate` a ConfigError.
    """
    fmt.validate()
    try:
        return _parse_rows(_data_lines(lines, fmt.comment), fmt)
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
    if not columns:
        raise ConfigError("trace format needs column names (no header row, no configured columns)")
    for logical, name in (("caller", fmt.caller), ("callee", fmt.callee), ("timestamp", fmt.timestamp)):
        if name not in columns:
            raise ConfigError(f"trace schema is missing the {logical} column {name!r}")
    caller_i = columns.index(fmt.caller)
    callee_i = columns.index(fmt.callee)
    ts_i = columns.index(fmt.timestamp)

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


def parse_trace_file(path: str | Path, fmt: TraceFormat = TraceFormat()) -> tuple[EventTable, int]:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return parse_trace(handle, fmt)
        except UnicodeDecodeError as exc:
            raise DataError(f"trace {path} is not UTF-8 text: {exc.reason}") from None


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
    """Write a clean table in the default format this module reads (round-trip)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if header_comment:
            handle.write(f"# {header_comment}\n")
        handle.write("timestamp,um,dm\n")
        for ts, caller, callee in zip(events.ts.tolist(), events.caller.tolist(), events.callee.tolist()):
            handle.write(f"{ts},{caller},{callee}\n")
