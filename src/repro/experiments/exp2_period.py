"""Experiment 2 — impact of the sampling period (Figs. 10, 11).

Setup (paper Table 2): 2-hour tests, one task, spatial density 3,
radius 500 m around the CS department, sampling period swept over
{1, 5, 10} minutes.

Reproduced artifacts:

- **Fig. 10** — devices selected per test: Sense-Aid selects exactly
  the spatial density (3) regardless of period; Periodic and PCS task
  every qualified device.
- **Fig. 11** — average energy per participating device falls as the
  period grows; Sense-Aid stays far below PCS and Periodic, and at the
  1-minute period every framework's most-loaded devices approach or
  exceed the 2% budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.devices.battery import TWO_PERCENT_BUDGET_J
from repro.experiments.common import (
    FourArms,
    ScenarioConfig,
    TaskParams,
    format_savings_table,
    run_four_arms,
)
from repro.runner import ExperimentEngine

PERIODS_S = (60.0, 300.0, 600.0)
TEST_DURATION_S = 2 * 3600.0
SPATIAL_DENSITY = 3
AREA_RADIUS_M = 500.0


@dataclass(frozen=True)
class PeriodPoint(FourArms):
    """All four arms at one sampling period."""

    period_s: float


@dataclass
class Experiment2Result:
    points: List[PeriodPoint]

    def fig10_rows(self) -> List[Tuple[str, float, float, float]]:
        rows = []
        for p in self.points:
            counts = p.selected_counts()
            rows.append(
                (
                    f"{p.period_s / 60:.0f} min",
                    counts["periodic"],
                    counts["pcs"],
                    counts["sense-aid"],
                )
            )
        return rows

    def fig11_rows(self) -> List[Tuple[str, float, float, float, float]]:
        rows = []
        for p in self.points:
            energy = p.energy_per_device()
            rows.append(
                (
                    f"{p.period_s / 60:.0f} min",
                    energy["periodic"],
                    energy["pcs"],
                    energy["basic"],
                    energy["complete"],
                )
            )
        return rows


def _task(period_s: float) -> TaskParams:
    return TaskParams(
        area_radius_m=AREA_RADIUS_M,
        spatial_density=SPATIAL_DENSITY,
        sampling_period_s=period_s,
        sampling_duration_s=TEST_DURATION_S,
    )


def _period_point(config: ScenarioConfig, period_s: float) -> PeriodPoint:
    """One sweep point: all four frameworks at one period (picklable)."""
    return run_four_arms(PeriodPoint, config, [_task(period_s)], period_s=period_s)


def run(
    config: Optional[ScenarioConfig] = None,
    periods_s: Sequence[float] = PERIODS_S,
    *,
    engine: Optional[ExperimentEngine] = None,
) -> Experiment2Result:
    if config is None:
        config = ScenarioConfig()
    if engine is None:
        engine = ExperimentEngine()
    points = engine.run_points(
        _period_point,
        [{"config": config, "period_s": period} for period in periods_s],
    )
    return Experiment2Result(points=points)


def main(
    config: Optional[ScenarioConfig] = None,
    engine: Optional[ExperimentEngine] = None,
) -> str:
    result = run(config, engine=engine)
    lines = []
    lines.append(
        format_table(
            ["period", "Periodic", "PCS", "Sense-Aid"],
            result.fig10_rows(),
            title=(
                "Figure 10 — devices selected per request "
                f"(minimum required: {SPATIAL_DENSITY})"
            ),
        )
    )
    lines.append("")
    lines.append(
        format_table(
            ["period", "Periodic (J)", "PCS (J)", "SA-Basic (J)", "SA-Complete (J)"],
            result.fig11_rows(),
            title=(
                "Figure 11 — mean energy per participating device "
                f"(2% budget bar = {TWO_PERCENT_BUDGET_J:.0f} J)"
            ),
        )
    )
    lines.append("")
    lines.append(
        format_savings_table(
            "period",
            [(f"{point.period_s / 60:.0f} min", point) for point in result.points],
            "Experiment 2 — Sense-Aid energy savings per sampling period",
        )
    )
    output = "\n".join(lines)
    print(output)
    return output


if __name__ == "__main__":
    main()
