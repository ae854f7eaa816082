"""Plain-text table rendering for the experiment harness and benchmarks.

Every experiment prints one or more tables; these helpers keep the format
uniform (fixed-width columns, ``None`` rendered as ``-``, floats rounded),
so the committed table goldens under ``tests/golden/`` compare byte for
byte.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

__all__ = ["render_table", "render_series"]


def _format_cell(value: object, *, float_digits: int = 3) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        return f"{value:.{float_digits}f}"
    return str(value)


def render_table(
    rows: Sequence[Mapping[str, object]],
    *,
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
    float_digits: int = 3,
) -> str:
    """Render a list of dict rows as a fixed-width ASCII table."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    formatted: List[List[str]] = [
        [_format_cell(row.get(col), float_digits=float_digits) for col in columns]
        for row in rows
    ]
    widths = [
        max(len(str(col)), max(len(r[i]) for r in formatted))
        for i, col in enumerate(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    separator = "-+-".join("-" * widths[i] for i in range(len(columns)))
    lines.append(header)
    lines.append(separator)
    for row in formatted:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_series(
    xs: Sequence[object],
    ys: Sequence[object],
    *,
    x_label: str = "x",
    y_label: str = "y",
    title: Optional[str] = None,
    float_digits: int = 3,
) -> str:
    """Render paired series (the textual analogue of a figure)."""
    rows = [{x_label: x, y_label: y} for x, y in zip(xs, ys)]
    return render_table(rows, columns=[x_label, y_label], title=title, float_digits=float_digits)
