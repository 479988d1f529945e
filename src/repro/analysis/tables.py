"""Plain-text result tables.

The paper has no empirical tables, so the reproduction's "tables" are the
summaries of the registered experiments (``repro experiment --list``).  This
module renders them as aligned monospace tables: the markdown format of
:func:`~repro.analysis.render.render`, which the CLI and the benchmarks print.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence

__all__ = ["format_table"]


def _render_cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]], title: str = "") -> str:
    """Render ``rows`` under ``headers`` as an aligned monospace table."""
    rendered_rows: List[List[str]] = [[_render_cell(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))

    def render_line(cells: Sequence[str]) -> str:
        return "  ".join(str(cell).ljust(widths[index]) for index, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * max(len(title), 8))
    lines.append(render_line([str(h) for h in headers]))
    lines.append(render_line(["-" * width for width in widths]))
    for row in rendered_rows:
        lines.append(render_line(row))
    return "\n".join(lines)
