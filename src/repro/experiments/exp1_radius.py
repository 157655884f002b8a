"""Experiment 1 — impact of the task's area radius (Figs. 7, 8, 9).

Setup (paper Table 2): tasks need barometer values around the CS
department; radius sweeps {100, 200, 300, 400, 500, 1000} m; each test
lasts 90 minutes with a 10-minute sampling period and spatial density
2; one task per device set.

Reproduced artifacts:

- **Fig. 7** — the number of qualified devices grows with the radius.
- **Fig. 8** — total crowdsensing energy across devices: Sense-Aid
  Basic and Complete use far less than PCS, and the gap widens with
  the radius (PCS tasks every qualified device; Sense-Aid keeps
  selecting only 2).
- **Fig. 9** — the selection timeline at radius 1000 m: the selector
  rotates through the qualified devices so each is picked a fair
  number of times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.fairness import fairness_report
from repro.analysis.tables import format_bar_chart, format_table
from repro.core.server import SelectionEvent
from repro.experiments.common import (
    FourArms,
    ScenarioConfig,
    TaskParams,
    format_savings_table,
    run_four_arms,
)
from repro.runner import ExperimentEngine

RADII_M = (100.0, 200.0, 300.0, 400.0, 500.0, 1000.0)
TEST_DURATION_S = 90 * 60.0
SAMPLING_PERIOD_S = 10 * 60.0
SPATIAL_DENSITY = 2


@dataclass(frozen=True)
class RadiusPoint(FourArms):
    """All four arms at one radius."""

    radius_m: float


@dataclass
class Experiment1Result:
    points: List[RadiusPoint]
    #: Fig. 9 source: the Sense-Aid selection log of the 1000 m test.
    fairness_log: List[SelectionEvent]
    fairness_counts: Dict[str, int]

    def fig7_rows(self) -> List[Tuple[float, float]]:
        return [(p.radius_m, p.qualified_mean) for p in self.points]

    def fig8_rows(self) -> List[Tuple[float, float, float, float]]:
        return [
            (
                p.radius_m,
                p.pcs.energy.total_j,
                p.basic.energy.total_j,
                p.complete.energy.total_j,
            )
            for p in self.points
        ]

    def fig9_matrix(self) -> List[Tuple[float, Tuple[str, ...]]]:
        """(selection time, selected device ids) per selector round."""
        return [(e.time, e.selected) for e in self.fairness_log]


def task(radius_m: float) -> TaskParams:
    """The Experiment 1 task at one radius."""
    return TaskParams(
        area_radius_m=radius_m,
        spatial_density=SPATIAL_DENSITY,
        sampling_period_s=SAMPLING_PERIOD_S,
        sampling_duration_s=TEST_DURATION_S,
    )


def _radius_point(config: ScenarioConfig, radius_m: float) -> RadiusPoint:
    """One sweep point: all four frameworks at one radius (picklable)."""
    return run_four_arms(RadiusPoint, config, [task(radius_m)], radius_m=radius_m)


def run(
    config: Optional[ScenarioConfig] = None,
    radii_m: Sequence[float] = RADII_M,
    *,
    engine: Optional[ExperimentEngine] = None,
) -> Experiment1Result:
    """Run the full radius sweep (all four frameworks per radius)."""
    if config is None:
        config = ScenarioConfig()
    if engine is None:
        engine = ExperimentEngine()
    points: List[RadiusPoint] = engine.run_points(
        _radius_point,
        [{"config": config, "radius_m": radius} for radius in radii_m],
    )
    fairness_log: List[SelectionEvent] = []
    fairness_counts: Dict[str, int] = {}
    for point in points:
        if point.radius_m == max(radii_m):
            fairness_log = point.basic.selection_log
            fairness_counts = point.basic.extras["selections_per_device"]
    return Experiment1Result(
        points=points,
        fairness_log=fairness_log,
        fairness_counts=fairness_counts,
    )


def main(
    config: Optional[ScenarioConfig] = None,
    engine: Optional[ExperimentEngine] = None,
) -> str:
    result = run(config, engine=engine)
    lines = []
    lines.append(
        format_table(
            ["radius (m)", "qualified devices"],
            result.fig7_rows(),
            title="Figure 7 — qualified devices at the CS department vs area radius",
        )
    )
    lines.append("")
    lines.append(
        format_table(
            ["radius (m)", "PCS (J)", "SA-Basic (J)", "SA-Complete (J)"],
            result.fig8_rows(),
            title="Figure 8 — total crowdsensing energy vs area radius "
            "(Periodic omitted as in the paper; see savings below)",
        )
    )
    lines.append("")
    bar_rows = []
    for radius, pcs_j, basic_j, complete_j in result.fig8_rows():
        bar_rows.append((f"{radius:.0f}m PCS", pcs_j))
        bar_rows.append((f"{radius:.0f}m SA-C", complete_j))
    lines.append(
        format_bar_chart(bar_rows, title="Figure 8 as bars (J):", width=46)
    )
    lines.append("")
    lines.append(
        format_savings_table(
            "radius (m)",
            [(point.radius_m, point) for point in result.points],
            "Experiment 1 — Sense-Aid energy savings per radius",
        )
    )
    lines.append("")
    lines.append("Figure 9 — selection rounds at radius 1000 m (fair rotation):")
    for time, selected in result.fig9_matrix():
        lines.append(f"  t={time / 60.0:5.1f} min  selected: {', '.join(selected)}")
    report = fairness_report(result.fairness_counts)
    lines.append(
        f"  per-device selection counts: min={report['min_selections']} "
        f"max={report['max_selections']} jain={report['jain_index']:.3f}"
    )
    output = "\n".join(lines)
    print(output)
    return output


if __name__ == "__main__":
    main()
