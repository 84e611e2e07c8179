"""Plain-text table formatting for bench output and the CLI."""

from __future__ import annotations

from collections.abc import Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned monospace table.

    Numbers are right-aligned, text left-aligned; floats are shown with
    a sensible fixed precision.  Purely cosmetic, but every bench and
    the CLI share it so the output of the reproduction reads like the
    paper's tables.
    """

    def fmt(value: object) -> str:
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    text_rows = [[fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(headers[col])), *(len(r[col]) for r in text_rows))
        if text_rows
        else len(str(headers[col]))
        for col in range(len(headers))
    ]

    def render_row(cells: Sequence[str], pad: str = " ") -> str:
        parts = []
        for col, cell in enumerate(cells):
            parts.append(cell.rjust(widths[col], pad))
        return "  ".join(parts)

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row([str(h) for h in headers]))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append(render_row(row))
    return "\n".join(lines)
