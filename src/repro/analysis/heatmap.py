"""Spatial interpolation and ASCII heat maps.

The paper's motivating applications build *hyperlocal maps* (pressure
maps, noise maps) from point readings.  This module turns a handful of
georeferenced readings into a gridded field via inverse-distance
weighting and renders it as an ASCII heat map — the closest a terminal
gets to Pressurenet's pressure overlay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.environment.geometry import Point

#: Glyph ramp from low to high values.
_RAMP = " .:-=+*#%@"


@dataclass(frozen=True)
class SpatialSample:
    """One georeferenced reading."""

    position: Point
    value: float


def idw_interpolate(samples: Sequence[SpatialSample], at: Point) -> float:
    """Inverse-distance-weighted estimate of the field at ``at``: weights
    fall with the square of the distance, floored at 1 m."""
    if not samples:
        raise ValueError("need at least one sample")
    numerator = 0.0
    denominator = 0.0
    for sample in samples:
        distance = max(1.0, sample.position.distance_to(at))
        weight = 1.0 / distance**2.0
        numerator += weight * sample.value
        denominator += weight
    return numerator / denominator


def grid_field(
    samples: Sequence[SpatialSample],
    width_m: float,
    height_m: float,
    *,
    cols: int = 40,
    rows: int = 16,
) -> List[List[float]]:
    """Interpolate the field onto a rows×cols grid over a rectangle."""
    if cols < 1 or rows < 1:
        raise ValueError("grid must have at least one cell")
    grid = []
    for r in range(rows):
        # Row 0 at the top (max y) so the rendering reads like a map.
        y = height_m * (rows - 0.5 - r) / rows
        row = []
        for c in range(cols):
            x = width_m * (c + 0.5) / cols
            row.append(idw_interpolate(samples, Point(x, y)))
        grid.append(row)
    return grid


def render_heatmap(
    samples: Sequence[SpatialSample],
    width_m: float,
    height_m: float,
    *,
    cols: int = 40,
    rows: int = 16,
    title: str = "",
    legend_format: str = "{:.1f}",
) -> str:
    """ASCII heat map of the interpolated field, with a value legend."""
    grid = grid_field(samples, width_m, height_m, cols=cols, rows=rows)
    flat = [v for row in grid for v in row]
    lo, hi = min(flat), max(flat)
    span = hi - lo

    def glyph(value: float) -> str:
        if span == 0.0:
            return _RAMP[len(_RAMP) // 2]
        index = int((value - lo) / span * (len(_RAMP) - 1))
        return _RAMP[index]

    lines = []
    if title:
        lines.append(title)
    border = "+" + "-" * cols + "+"
    lines.append(border)
    for row in grid:
        lines.append("|" + "".join(glyph(v) for v in row) + "|")
    lines.append(border)
    lines.append(
        f"low {legend_format.format(lo)} {_RAMP[0]!r} … "
        f"{_RAMP[-1]!r} {legend_format.format(hi)} high"
    )
    return "\n".join(lines)
