"""Node mapping and time windowing.

Service names become dense integer ids, attached to the event table as its
`src`/`dst` columns.  The mapping is the names in id order, nothing else: a
step that looks names up builds its own name -> id dict.  The trace horizon
[0, t_max) is cut into fixed-width half-open windows, each a contiguous run
of the time-sorted table, which are then split into a training prefix and a
test suffix.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, MappingError
from .ingest import EventTable


@dataclass(frozen=True)
class NodeMapping:
    """Distinct service names in id order: node id i is `names[i]`."""

    names: tuple[str, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.names)


@dataclass
class TimeWindow:
    """Half-open interval [start, end) and the mapped events inside it.

    `src`, `dst` and `ts` are views of the event table's columns over the
    window's rows.
    """

    index: int
    start: int
    end: int
    src: np.ndarray
    dst: np.ndarray
    ts: np.ndarray

    @property
    def width(self) -> int:
        return self.end - self.start

    @property
    def n_events(self) -> int:
        return int(self.ts.shape[0])


def build_node_mapping(events: EventTable) -> NodeMapping:
    """Ids in first-occurrence order over the caller column, then the callee
    column (the concatenation of the two name columns, deduplicated).

    A name that no row uses gets no id.
    """
    n = len(events)
    first = np.full(len(events.names), 2 * n, dtype=np.int64)  # each code's first position
    np.minimum.at(first, events.caller, np.arange(n))
    np.minimum.at(first, events.callee, np.arange(n, 2 * n))
    order = np.argsort(first, kind="stable")[:np.count_nonzero(first < 2 * n)]
    return NodeMapping(tuple(events.names[order].tolist()))


def apply_mapping(events: EventTable, mapping: NodeMapping, strict: bool = True) -> EventTable:
    """Attach the `src`/`dst` node id columns.

    Each name of the vocabulary is looked up once.  Strict mode raises on a
    name the mapping does not know, the first such row's caller before its
    callee; lenient mode drops the rows that name one.  The mapping itself
    never changes.  When no row is dropped, the result holds the input's
    `caller`, `callee` and `ts` arrays themselves, plus the new `src`/`dst`.
    """
    names = events.names.tolist()
    ids = {name: i for i, name in enumerate(mapping.names)}
    lut = np.fromiter(map(ids.get, names, repeat(-1)), dtype=np.int64, count=len(names))
    src, dst = lut[events.caller], lut[events.callee]
    known = (src >= 0) & (dst >= 0)
    if known.all():
        return EventTable(events.names, events.caller, events.callee, events.ts, src, dst)
    if strict:
        row = int(np.argmin(known))
        code = events.caller[row] if src[row] < 0 else events.callee[row]
        raise MappingError(f"unknown service {names[code]!r} has no node id")
    return EventTable(events.names, events.caller[known], events.callee[known], events.ts[known],
                      src[known], dst[known])


def _check_windowable(events: EventTable) -> None:
    if events.src is None or events.dst is None:
        raise DataError("events have no node ids (apply_mapping attaches them)")
    if np.any(events.ts[1:] < events.ts[:-1]):
        raise DataError("events must be sorted by timestamp (clean_trace sorts them)")


def _cut(events: EventTable, index: int, start: int, end: int) -> TimeWindow:
    """The window over the rows with start <= ts < end of a sorted table."""
    lo, hi = np.searchsorted(events.ts, (start, end)).tolist()
    return TimeWindow(index, start, end, events.src[lo:hi], events.dst[lo:hi], events.ts[lo:hi])


def segment_windows(events: EventTable, w_size: int, t_max: int) -> list[TimeWindow]:
    """Partition [0, t_max) into windows [k*w_size, (k+1)*w_size).

    The final window is clipped to t_max when the horizon is not a multiple
    of the width, so the windows tile [0, t_max) exactly.  The events must be
    mapped and sorted by timestamp; each window is a contiguous run of rows.
    An event outside [0, t_max) is a contract violation.
    """
    if w_size <= 0:
        raise ConfigError(f"window size must be positive, got {w_size}")
    if t_max <= 0:
        raise ConfigError(f"t_max must be positive, got {t_max}")
    _check_windowable(events)
    ts = events.ts
    if ts.size and (ts[0] < 0 or ts[-1] >= t_max):
        bad = ts[0] if ts[0] < 0 else ts[-1]
        raise DataError(f"event at t={bad} lies outside the horizon [0, {t_max})")
    return [
        _cut(events, i, start, min(start + w_size, t_max))
        for i, start in enumerate(range(0, t_max, w_size))
    ]


def span_window(events: EventTable, start: int, end: int, index: int = 0) -> TimeWindow:
    """One window covering [start, end) (the non-temporal degenerate case)."""
    if end <= start:
        raise ConfigError(f"empty span [{start}, {end})")
    _check_windowable(events)
    return _cut(events, index, start, end)


def split_train_test(
    windows: Sequence[TimeWindow], t_train: int, t_max: int
) -> tuple[list[TimeWindow], list[TimeWindow]]:
    """Train = windows entirely before t_train; test = the rest up to t_max."""
    if not 0 < t_train < t_max:
        raise ConfigError(f"need 0 < t_train < t_max, got t_train={t_train}, t_max={t_max}")
    if windows:
        w_size = windows[0].width
        if t_train % w_size != 0:
            raise ConfigError(
                f"t_train={t_train} is not a multiple of the window size {w_size}; "
                "a window would straddle the split"
            )
    train = [w for w in windows if w.end <= t_train]
    test = [w for w in windows if t_train <= w.start < t_max]
    return train, test


# ---------------------------------------------------------------------------
# mapping persistence

def save_mapping(mapping: NodeMapping, path: str | Path) -> None:
    """One `id<TAB>name` line per service, ascending by id."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(serialize_mapping(mapping))


def serialize_mapping(mapping: NodeMapping) -> bytes:
    """The `save_mapping` bytes.  A name holding a line break, which
    `load_mapping` would split there, is a DataError."""
    for name in mapping.names:
        if "\n" in name or "\r" in name:
            raise DataError(f"service name {name!r} holds a line break; a mapping file cannot store it")
    return "".join(f"{i}\t{name}\n" for i, name in enumerate(mapping.names)).encode("utf-8")


def load_mapping(path: str | Path) -> NodeMapping:
    """The mapping a `save_mapping` file holds.  Each id must be written as
    `save_mapping` writes it, `str(node_id)`: text that `int` reads as the
    same id, such as `+0`, ` 1` or a non-ASCII digit, is a DataError, since
    the names alone would give the file the canonical digest."""
    ids: dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"mapping file {path} is not UTF-8 text: {exc.reason}") from None
    for line_no, line in enumerate(text.split("\n")):
        if not line:
            continue
        try:
            id_text, name = line.split("\t", 1)
            node_id = int(id_text)
            if id_text != str(node_id):
                raise ValueError(f"id {id_text!r} is not written as {str(node_id)!r}")
        except ValueError as exc:
            raise DataError(f"bad mapping line {line_no + 1}: {line!r}") from exc
        if name in ids:
            raise DataError(f"mapping line {line_no + 1} repeats service {name!r}, which already has id {ids[name]}")
        if node_id != len(ids):
            raise DataError(f"mapping ids must be dense and ascending, got {node_id} at line {line_no + 1}")
        ids[name] = node_id
    return NodeMapping(tuple(ids))


def mapping_digest(mapping: NodeMapping) -> str:
    """Stable fingerprint used to pair checkpoints with their id space."""
    return hashlib.sha256(serialize_mapping(mapping)).hexdigest()
