"""Copy-always cleaning and mapping, kept as the reference for
`ingest.clean_trace` and `preprocess.apply_mapping`.

Both copy every column they return, whether or not a row is dropped or
moved.  The production functions return the input's own arrays where no row
is dropped or reordered; `test_ingest` and `test_preprocess` require the same
tables, counts and errors from both.
"""
from __future__ import annotations

from itertools import repeat

import numpy as np

from tracelink.errors import ConfigError, MappingError
from tracelink.ingest import EventTable


def clean_trace(events: EventTable, t_max: int) -> tuple[EventTable, dict[str, int]]:
    """Keep the rows with non-empty endpoints and timestamp in [0, t_max],
    stably sorted by timestamp, with the drop counts by reason."""
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


def apply_mapping(events: EventTable, mapping, strict: bool = True) -> EventTable:
    """Attach `src`/`dst`; an unknown name raises (strict) or drops its rows."""
    names = events.names.tolist()
    ids = {name: i for i, name in enumerate(mapping.names)}
    lut = np.fromiter(map(ids.get, names, repeat(-1)), dtype=np.int64, count=len(names))
    src, dst = lut[events.caller], lut[events.callee]
    known = (src >= 0) & (dst >= 0)
    if strict and not known.all():
        row = int(np.argmin(known))
        code = events.caller[row] if src[row] < 0 else events.callee[row]
        raise MappingError(f"unknown service {names[code]!r} has no node id")
    return EventTable(events.names, events.caller[known], events.callee[known], events.ts[known],
                      src[known], dst[known])


def same_table(a: EventTable, b: EventTable) -> bool:
    """The same vocabulary object and equal columns of equal dtypes."""
    if a.names is not b.names:
        return False
    for name in ("caller", "callee", "ts", "src", "dst"):
        x, y = getattr(a, name), getattr(b, name)
        if (x is None) != (y is None):
            return False
        if x is not None and (x.dtype != y.dtype or not np.array_equal(x, y)):
            return False
    return True
