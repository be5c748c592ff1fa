"""The row-by-row CSV writer, kept as the reference for `ingest._csv_blocks`.

It calls `repr` once per numeric cell and joins each row on its own.  The
production writer formats each distinct value once and joins the whole text
in one pass; `test_cli` requires both to give the same text.
"""
from __future__ import annotations

import csv
import io

import numpy as np


def csv_text(header: str, *columns) -> str:
    """CSV text: the `header` line (none if empty), then one line per entry
    of the parallel `columns`, each numeric value as its repr and each text
    of any other column as given."""

    def cells(column) -> list[str]:
        column = np.asarray(column)
        return list(map(repr, column.tolist())) if column.dtype.kind in "biuf" else column.tolist()

    lines = [header] if header else []
    lines += map(",".join, zip(*map(cells, columns)))
    lines.append("")
    return "\n".join(lines)


def csv_field(text: str) -> str:
    """`text` as csv's writer puts it in a row of several fields: quoted,
    with each `"` doubled, where it holds a `,` or a `"`."""
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow([text, ""])
    return out.getvalue()[:-1]
