"""Small table renderer for metric/report rows (markdown or TSV).

Each cell is formatted and escaped once. TSV joins the cells with tabs;
markdown joins them with pipes and wraps the best and second-best values of
the annotated columns.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

# Columns where lower/higher is better get best / second-best annotations.
LOWER_BETTER = {"wer", "b_wer", "u_wer", "ne_wer", "ne_fnr", "rate_percent"}
HIGHER_BETTER = {"recall", "total", "p_optimal", "mean_reward"}

# A tab or line break in a name or value would start a new TSV column or row,
# and a pipe a new markdown cell: they are written as escapes instead, and a
# backslash is doubled so that an escape reads back one way.
_TSV_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
_ESCAPES = {"tsv": str.maketrans(_TSV_ESCAPES), "md": str.maketrans({**_TSV_ESCAPES, "|": "\\|"})}


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.4f}"
    if isinstance(value, (list, dict)):
        return json.dumps(value, ensure_ascii=False)
    return str(value)


def _ranked(value) -> bool:
    """True for an int or a finite float, the values a column's marks rank.

    NaN has no place in an order, so it and the infinities stay unmarked.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or math.isfinite(value)


def _rank_marks(rows: Sequence[dict], column: str) -> dict[int, str]:
    """row index -> markdown format of its cell in an annotated numeric column:
    ``"**{}**"`` for every row at the best value, ``"_{}_"`` for every row at
    the second best. A column with fewer than two distinct values is not marked."""
    values = {i: row[column] for i, row in enumerate(rows) if _ranked(row.get(column))}
    ranks = sorted(set(values.values()), reverse=column in HIGHER_BETTER)
    if len(ranks) < 2:
        return {}
    formats = {ranks[0]: "**{}**", ranks[1]: "_{}_"}
    return {i: formats[v] for i, v in values.items() if v in formats}


def render_table(rows: Sequence[dict], fmt: str = "md") -> str:
    """Render dict rows as markdown (annotated) or TSV (plain values)."""
    if fmt not in _ESCAPES:
        raise ValueError(f"unknown table format: {fmt!r}")
    escapes = _ESCAPES[fmt]
    columns = list(dict.fromkeys(key for row in rows for key in row))
    header = [c.translate(escapes) for c in columns]
    grid = [[_fmt(row.get(c)).translate(escapes) for c in columns] for row in rows]
    if fmt == "tsv":
        return "".join("\t".join(cells) + "\n" for cells in [header, *grid])
    for k, c in enumerate(columns):
        if c in LOWER_BETTER or c in HIGHER_BETTER:
            for i, mark in _rank_marks(rows, c).items():
                grid[i][k] = mark.format(grid[i][k])
    return "".join("| " + " | ".join(cells) + " |\n" for cells in [header, ["---"] * len(columns), *grid])
