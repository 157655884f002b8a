"""Plain-text table rendering for experiment output.

Every experiment's ``main()`` prints the rows the corresponding paper
table/figure reports; this module keeps the formatting uniform.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str = "",
    float_format: str = "{:.1f}",
) -> str:
    """Render an aligned monospace table."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_bar_chart(
    rows: Sequence[tuple],
    *,
    width: int = 50,
    title: str = "",
) -> str:
    """Horizontal ASCII bars for ``(label, value)`` rows.

    Bars scale to the maximum value; used by experiment ``main()``s to
    echo the paper's bar figures in the terminal.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("need at least one row")
    if width < 1:
        raise ValueError("width must be positive")
    label_width = max(len(str(label)) for label, _ in rows)
    peak = max(value for _, value in rows)
    lines = [title] if title else []
    for label, value in rows:
        if peak <= 0:
            bar = ""
        else:
            bar = "#" * max(1 if value > 0 else 0, round(value / peak * width))
        lines.append(
            f"{str(label).rjust(label_width)} | "
            f"{bar.ljust(width)} {value:.1f}"
        )
    return "\n".join(lines)


def format_percent(value: float) -> str:
    """Render a percentage the way the paper's Table 2 does."""
    return f"{value:.1f}%"


def format_min_mean_max(lo: float, mean: float, hi: float) -> str:
    """Table 2's "Average (Min, Max)" cell format."""
    return f"{mean:.1f}% ({lo:.1f}%, {hi:.1f}%)"
