"""The row-by-row CSV writer, kept as the reference for `cli._csv_blocks`.

It calls `repr` once per cell and joins each row on its own.  The production
writer formats each distinct value once and joins the whole text in one
pass; `test_cli` requires both to give the same text.
"""
from __future__ import annotations

import numpy as np


def csv_text(header: str, *columns) -> str:
    """CSV text: the `header` line (none if empty), then one line per entry
    of the parallel `columns`, each value as its repr."""
    lines = [header] if header else []
    lines += map(",".join, zip(*(map(repr, np.asarray(column).tolist()) for column in columns)))
    lines.append("")
    return "\n".join(lines)
