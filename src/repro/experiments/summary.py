"""Table 2 — the summary of energy savings across experiments 1–3.

For each experiment the table reports, over its parameter sweep, the
average (min, max) of four savings comparisons:

1. Sense-Aid Basic vs Periodic
2. Sense-Aid Complete vs Periodic
3. Sense-Aid Basic vs PCS
4. Sense-Aid Complete vs PCS
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.energy import min_mean_max
from repro.analysis.tables import format_min_mean_max, format_table
from repro.experiments import exp1_radius, exp2_period, exp3_tasks
from repro.experiments.common import COMPARISONS, ScenarioConfig

#: Table 2's column label of each comparison, in :data:`COMPARISONS` order.
LABELS = (
    "1: Basic/Periodic",
    "2: Complete/Periodic",
    "3: Basic/PCS",
    "4: Complete/PCS",
)


@dataclass(frozen=True)
class SummaryCell:
    """Average (min, max) savings for one comparison in one experiment."""

    comparison: str
    min_pct: float
    mean_pct: float
    max_pct: float

    def formatted(self) -> str:
        return format_min_mean_max(self.min_pct, self.mean_pct, self.max_pct)


@dataclass
class Table2Result:
    experiment_cells: Dict[str, List[SummaryCell]]

    def cell(self, experiment: str, comparison_key: str) -> SummaryCell:
        for cell in self.experiment_cells[experiment]:
            if cell.comparison == comparison_key:
                return cell
        raise KeyError(f"no cell {comparison_key!r} in {experiment!r}")


def _cells_from_savings(rows: List[Dict[str, float]]) -> List[SummaryCell]:
    cells = []
    for key in COMPARISONS:
        lo, mean, hi = min_mean_max(row[key] for row in rows)
        cells.append(SummaryCell(key, lo, mean, hi))
    return cells


def run(config: Optional[ScenarioConfig] = None) -> Table2Result:
    """Run all three experiments and aggregate Table 2."""
    if config is None:
        config = ScenarioConfig()
    exp1 = exp1_radius.run(config)
    exp2 = exp2_period.run(config)
    exp3 = exp3_tasks.run(config)
    return Table2Result(
        experiment_cells={
            "Experiment 1 (area radius)": _cells_from_savings(
                [p.savings_row() for p in exp1.points]
            ),
            "Experiment 2 (sampling period)": _cells_from_savings(
                [p.savings_row() for p in exp2.points]
            ),
            "Experiment 3 (tasks per device)": _cells_from_savings(
                [p.savings_row() for p in exp3.points]
            ),
        }
    )


def main(config: Optional[ScenarioConfig] = None) -> str:
    result = run(config)
    rows: List[Tuple[str, ...]] = []
    for experiment, cells in result.experiment_cells.items():
        rows.append((experiment, *(cell.formatted() for cell in cells)))
    table = format_table(
        ["experiment", *LABELS],
        rows,
        title="Table 2 — energy savings summary: average (min, max) per sweep",
    )
    print(table)
    return table


if __name__ == "__main__":
    main()
