"""Plain-text reporting: ASCII tables matching the paper's row/column layout.

The benchmark harness prints the same rows/series the paper reports; these
helpers keep that formatting consistent (and testable) across experiments.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Union

Number = Union[int, float]


def format_value(value: Union[Number, str], precision: int = 4) -> str:
    """Render a cell: floats get fixed precision, everything else is str()."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Union[Number, str]]],
                 precision: int = 4, title: Optional[str] = None) -> str:
    """Render an ASCII table with aligned columns."""
    rendered_rows = [[format_value(cell, precision) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))

    def render_line(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(render_line([str(h) for h in headers]))
    lines.append("-+-".join("-" * width for width in widths))
    lines.extend(render_line(row) for row in rendered_rows)
    return "\n".join(lines)


def format_metric_table(results: Mapping[str, Mapping[str, float]],
                        metric_order: Optional[Sequence[str]] = None,
                        row_label: str = "model",
                        precision: int = 4,
                        title: Optional[str] = None) -> str:
    """Render a {row_name: {metric: value}} mapping as an ASCII table."""
    if not results:
        return title or ""
    if metric_order is None:
        first = next(iter(results.values()))
        metric_order = list(first.keys())
    headers = [row_label] + list(metric_order)
    rows = []
    for name, metrics in results.items():
        rows.append([name] + [metrics.get(metric, float("nan")) for metric in metric_order])
    return format_table(headers, rows, precision=precision, title=title)


def relative_improvement(new: float, old: float) -> float:
    """Percentage improvement of ``new`` over ``old`` (paper's %Improv columns)."""
    if old == 0:
        return float("inf") if new > 0 else 0.0
    return 100.0 * (new - old) / abs(old)
