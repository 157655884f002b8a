"""Experiment 3 — impact of concurrent tasks per device (Figs. 12, 13).

Setup (paper Table 2): 90-minute tests, 5-minute sampling period,
spatial density 3, radius 500 m; the number of concurrent tasks sweeps
{3, 5, 10, 15}.  Concurrent tasks come from independent applications,
so their sampling instants are staggered across the period rather than
ticking in lockstep.

Reproduced artifacts:

- **Fig. 12** — devices selected: Periodic/PCS task all qualified
  devices for every task; Sense-Aid schedules the multiple tasks over
  the limited pool of qualified devices (so selected counts track the
  pool, not density × tasks).
- **Fig. 13** — energy per device rises with the task count for every
  framework, but Sense-Aid's rises far more slowly because pending
  assignments amortise: any radio burst flushes a device's whole
  backlog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.experiments.common import (
    FourArms,
    ScenarioConfig,
    TaskParams,
    format_savings_table,
    run_four_arms,
)
from repro.runner import ExperimentEngine

TASK_COUNTS = (3, 5, 10, 15)
TEST_DURATION_S = 90 * 60.0
SAMPLING_PERIOD_S = 5 * 60.0
SPATIAL_DENSITY = 3
AREA_RADIUS_M = 500.0


@dataclass(frozen=True)
class TaskCountPoint(FourArms):
    """All four arms at one number of concurrent tasks."""

    task_count: int


@dataclass
class Experiment3Result:
    points: List[TaskCountPoint]

    def fig12_rows(self) -> List[Tuple[int, float, float, float]]:
        rows = []
        for p in self.points:
            counts = p.selected_counts()
            rows.append(
                (p.task_count, counts["periodic"], counts["pcs"], counts["sense-aid"])
            )
        return rows

    def fig13_rows(self) -> List[Tuple[int, float, float, float, float]]:
        rows = []
        for p in self.points:
            energy = p.energy_per_device()
            rows.append(
                (
                    p.task_count,
                    energy["periodic"],
                    energy["pcs"],
                    energy["basic"],
                    energy["complete"],
                )
            )
        return rows


def _tasks(count: int) -> List[TaskParams]:
    """``count`` concurrent tasks, staggered across one period."""
    return [
        TaskParams(
            area_radius_m=AREA_RADIUS_M,
            spatial_density=SPATIAL_DENSITY,
            sampling_period_s=SAMPLING_PERIOD_S,
            sampling_duration_s=TEST_DURATION_S,
            start_offset_s=i * SAMPLING_PERIOD_S / count,
        )
        for i in range(count)
    ]


def _count_point(config: ScenarioConfig, task_count: int) -> TaskCountPoint:
    """One sweep point: all four frameworks at one task count."""
    return run_four_arms(
        TaskCountPoint, config, _tasks(task_count), task_count=task_count
    )


def run(
    config: Optional[ScenarioConfig] = None,
    task_counts: Sequence[int] = TASK_COUNTS,
    *,
    engine: Optional[ExperimentEngine] = None,
) -> Experiment3Result:
    if config is None:
        config = ScenarioConfig()
    if engine is None:
        engine = ExperimentEngine()
    points = engine.run_points(
        _count_point,
        [{"config": config, "task_count": count} for count in task_counts],
    )
    return Experiment3Result(points=points)


def main(
    config: Optional[ScenarioConfig] = None,
    engine: Optional[ExperimentEngine] = None,
) -> str:
    result = run(config, engine=engine)
    lines = []
    lines.append(
        format_table(
            ["tasks", "Periodic", "PCS", "Sense-Aid"],
            result.fig12_rows(),
            title="Figure 12 — devices selected per request vs concurrent tasks",
        )
    )
    lines.append("")
    lines.append(
        format_table(
            ["tasks", "Periodic (J)", "PCS (J)", "SA-Basic (J)", "SA-Complete (J)"],
            result.fig13_rows(),
            title=(
                "Figure 13 — mean energy per participating device "
                "vs concurrent tasks"
            ),
        )
    )
    lines.append("")
    lines.append(
        format_savings_table(
            "tasks",
            [(point.task_count, point) for point in result.points],
            "Experiment 3 — Sense-Aid energy savings vs concurrent tasks",
        )
    )
    output = "\n".join(lines)
    print(output)
    return output


if __name__ == "__main__":
    main()
