"""Diurnal extension experiment: savings across a day of phone usage.

Not a paper figure — an extension probing the mechanism behind the
paper's results: Sense-Aid's cheap uploads depend on the user's own
traffic opening radio tails, so its advantage should track the daily
rhythm of phone use.  A 24-hour campaign with a diurnal traffic
modulation (quiet nights, busy evenings) measures energy per 4-hour
window for Sense-Aid Complete vs Periodic.

Expected shape: overnight, tails are rare, Sense-Aid falls back to
deadline uploads and its saving shrinks toward the pure orchestration
gain; during waking hours the tail-riding works and the saving is
large — evidence for the paper's premise that crowdsensing and regular
traffic synergise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.energy import savings_pct
from repro.analysis.tables import format_table
from repro.cellular.enodeb import TowerRegistry, grid_towers
from repro.cellular.network import CellularNetwork
from repro.clientlib import SenseAidClient
from repro.core.config import SenseAidConfig, ServerMode
from repro.core.server import SenseAidServer
from repro.devices.sensors import SensorType
from repro.devices.traffic import diurnal_modulator
from repro.environment.campus import CS_DEPARTMENT, default_campus
from repro.environment.population import PopulationConfig, build_population
from repro.runner import ExperimentEngine
from repro.serverlib import CrowdsensingAppServer
from repro.sim.engine import Simulator

DAY_S = 24 * 3600.0
WINDOW_S = 4 * 3600.0
SAMPLING_PERIOD_S = 600.0
DENSITY = 2
RADIUS_M = 1000.0


@dataclass(frozen=True)
class WindowRow:
    """Energy in one 4-hour window of the day."""

    window_label: str
    sense_aid_j: float
    periodic_j: float

    @property
    def saving_pct(self) -> float:
        return savings_pct(self.sense_aid_j, self.periodic_j)


def _window_energy(samples: List[float], window: int) -> float:
    """Energy accumulated in window ``window`` from cumulative samples."""
    start = samples[window]
    end = samples[window + 1]
    return end - start


def _run_framework(seed: int, use_sense_aid: bool) -> List[float]:  # noqa: C901
    """Run 24 h; return cumulative crowdsensing energy at window edges."""
    sim = Simulator(seed=seed)
    campus = default_campus()
    network = CellularNetwork(sim)
    devices = build_population(
        sim, campus, PopulationConfig(size=20), start_traffic=False
    )
    for device in devices:
        device.traffic.set_gap_modulator(diurnal_modulator)
        device.traffic.start()
    server: Optional[SenseAidServer] = None
    if use_sense_aid:
        registry = TowerRegistry(grid_towers(campus.width_m, campus.height_m))
        server = SenseAidServer(
            sim, registry, network, SenseAidConfig(mode=ServerMode.COMPLETE)
        )
        for device in devices:
            SenseAidClient(sim, device, server, network).register()
        cas = CrowdsensingAppServer(server, "diurnal")
        cas.task(
            SensorType.BAROMETER,
            campus.site(CS_DEPARTMENT).position,
            area_radius_m=RADIUS_M,
            spatial_density=DENSITY,
            sampling_period_s=SAMPLING_PERIOD_S,
            sampling_duration_s=DAY_S,
        )
    else:
        from repro.baselines import PeriodicFramework
        from repro.core.tasks import TaskSpec

        framework = PeriodicFramework(sim, network, devices)
        framework.add_task(
            TaskSpec(
                sensor_type=SensorType.BAROMETER,
                center=campus.site(CS_DEPARTMENT).position,
                area_radius_m=RADIUS_M,
                spatial_density=DENSITY,
                sampling_period_s=SAMPLING_PERIOD_S,
                sampling_duration_s=DAY_S,
                origin="diurnal",
            )
        )
    cumulative = [0.0]
    for w in range(int(DAY_S / WINDOW_S)):
        sim.run(until=(w + 1) * WINDOW_S)
        cumulative.append(sum(d.crowdsensing_energy_j() for d in devices))
    if server is not None:
        server.shutdown()
    return cumulative


def run(
    seed: int = 7, *, engine: Optional["ExperimentEngine"] = None
) -> List[WindowRow]:
    if engine is None:
        engine = ExperimentEngine()
    sense_aid, periodic = engine.run_points(
        _run_framework,
        [
            {"seed": seed, "use_sense_aid": True},
            {"seed": seed, "use_sense_aid": False},
        ],
    )
    rows = []
    for w in range(int(DAY_S / WINDOW_S)):
        label = f"{4 * w:02d}:00-{4 * w + 4:02d}:00"
        rows.append(
            WindowRow(
                window_label=label,
                sense_aid_j=_window_energy(sense_aid, w),
                periodic_j=_window_energy(periodic, w),
            )
        )
    return rows


def main(seed: int = 7, engine: Optional[ExperimentEngine] = None) -> str:
    rows = run(seed, engine=engine)
    table = format_table(
        ["window", "Sense-Aid (J)", "Periodic (J)", "saving"],
        [
            (r.window_label, r.sense_aid_j, r.periodic_j, f"{r.saving_pct:.1f}%")
            for r in rows
        ],
        title="Diurnal extension — energy per 4 h window "
        "(quiet nights starve the tail-riding)",
    )
    print(table)
    return table


if __name__ == "__main__":
    main()
