"""Small table renderer for metric/report rows (markdown or TSV)."""

from __future__ import annotations

import json
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


def _rank_marks(rows: Sequence[dict], column: str) -> dict[int, str]:
    """row index -> "best" | "second" for an annotated numeric column."""
    reverse = column in HIGHER_BETTER
    scored = [
        (i, row[column])
        for i, row in enumerate(rows)
        if isinstance(row.get(column), (int, float)) and not isinstance(row.get(column), bool)
    ]
    if len(scored) < 2:
        return {}
    scored.sort(key=lambda p: p[1], reverse=reverse)
    marks = {scored[0][0]: "best"}
    if scored[1][1] != scored[0][1]:
        marks[scored[1][0]] = "second"
    return marks


def render_table(rows: Sequence[dict], fmt: str = "md") -> str:
    """Render dict rows as markdown (annotated) or TSV (plain values)."""
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    if fmt not in _ESCAPES:
        raise ValueError(f"unknown table format: {fmt!r}")
    escapes = _ESCAPES[fmt]
    names = [c.translate(escapes) for c in columns]
    if fmt == "tsv":
        lines = ["\t".join(names)]
        for row in rows:
            lines.append("\t".join(_fmt(row.get(c)).translate(escapes) for c in columns))
        return "\n".join(lines) + "\n"
    marks = {
        c: _rank_marks(rows, c) for c in columns if c in LOWER_BETTER or c in HIGHER_BETTER
    }
    lines = ["| " + " | ".join(names) + " |", "| " + " | ".join("---" for _ in columns) + " |"]
    for i, row in enumerate(rows):
        cells = []
        for c in columns:
            cell = _fmt(row.get(c)).translate(escapes)
            mark = marks.get(c, {}).get(i)
            if mark == "best":
                cell = f"**{cell}**"
            elif mark == "second":
                cell = f"_{cell}_"
            cells.append(cell)
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"
