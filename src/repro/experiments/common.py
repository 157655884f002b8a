"""Shared experiment harness.

One *arm* = one framework (Periodic, PCS, Sense-Aid Basic/Complete)
run over an identical simulated world: same campus, same 20 users with
the same itineraries and the same background traffic (guaranteed by
seeding every random stream from the scenario's master seed by stable
names).  The paper had to hand each framework a *different* group of
20 students and notes that cross-framework differences in qualified
devices are mobility noise; fixing the world removes that noise.

Experiments 1-3 and the robustness extension compare the same four
arms at every sweep point: :func:`run_four_arms` runs them,
:class:`FourArms` holds them, and :func:`format_savings_table` prints
their :data:`COMPARISONS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type, TypeVar

from repro.analysis.energy import EnergySummary, savings_pct, summarize_devices
from repro.analysis.tables import format_table
from repro.baselines.common import BaselineFramework
from repro.baselines.coverage import CoverageFramework
from repro.baselines.pcs import PCSFramework
from repro.baselines.periodic import PeriodicFramework
from repro.cellular.enodeb import TowerRegistry, grid_towers
from repro.cellular.network import CellularNetwork
from repro.clientlib.client import SenseAidClient
from repro.core.config import SelectorWeights, SenseAidConfig, ServerMode
from repro.core.server import SelectionEvent, SenseAidServer
from repro.core.tasks import TaskSpec
from repro.devices.device import SimDevice
from repro.devices.sensors import SensorType
from repro.devices.traffic import TrafficPattern
from repro.environment.campus import CS_DEPARTMENT, Campus, default_campus
from repro.environment.population import PopulationConfig, build_population
from repro.serverlib.appserver import CrowdsensingAppServer
from repro.sim.engine import Simulator

#: Extra simulated time after the last task deadline, so tails close
#: and in-flight deliveries land.
RUN_SLACK_S = 60.0

#: Table 2's four savings comparisons, in the paper's order.  Each key
#: names a Sense-Aid arm of :class:`FourArms` and the baseline arm it
#: is measured against.
COMPARISONS: Tuple[str, ...] = (
    "basic_vs_periodic",
    "complete_vs_periodic",
    "basic_vs_pcs",
    "complete_vs_pcs",
)


@dataclass(frozen=True)
class TaskParams:
    """Framework-independent description of one crowdsensing task."""

    site: str = CS_DEPARTMENT
    sensor: SensorType = SensorType.BAROMETER
    area_radius_m: float = 500.0
    spatial_density: int = 2
    sampling_period_s: float = 600.0
    sampling_duration_s: float = 5400.0
    #: Concurrent tasks from different applications do not tick in
    #: lockstep; a per-task offset desynchronises their sampling
    #: instants (exercised by Experiment 3).
    start_offset_s: float = 0.0

    def to_spec(self, campus: Campus, origin: str) -> TaskSpec:
        return TaskSpec(
            sensor_type=self.sensor,
            center=campus.site(self.site).position,
            area_radius_m=self.area_radius_m,
            spatial_density=self.spatial_density,
            sampling_period_s=self.sampling_period_s,
            start_time=self.start_offset_s,
            end_time=self.start_offset_s + self.sampling_duration_s,
            origin=origin,
        )


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment scenario: the world every arm shares."""

    seed: int = 7
    population: PopulationConfig = field(
        default_factory=lambda: PopulationConfig(
            size=20, traffic=TrafficPattern(mean_gap_s=420.0)
        )
    )

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return replace(self, seed=seed)


@dataclass
class ArmResult:
    """Uniform result record for one framework arm."""

    name: str
    energy: EnergySummary
    data_points: int
    participants_per_request: Dict[str, int]
    devices: List[SimDevice]
    #: Sense-Aid only: the selector's execution log (Fig. 9).
    selection_log: List[SelectionEvent] = field(default_factory=list)
    #: Sense-Aid only: qualified-device counts per request (Fig. 7).
    qualified_per_request: Dict[str, int] = field(default_factory=dict)
    extras: Dict[str, object] = field(default_factory=dict)

    def mean_participants(self) -> float:
        if not self.participants_per_request:
            return 0.0
        counts = self.participants_per_request.values()
        return sum(counts) / len(counts)

    def mean_qualified(self) -> float:
        if not self.qualified_per_request:
            return 0.0
        counts = self.qualified_per_request.values()
        return sum(counts) / len(counts)

    def active_devices(self) -> List[str]:
        """Devices that actually spent crowdsensing energy this run.

        For the baselines this is every device that ever entered the
        task region; for Sense-Aid, every device the rotation touched.
        This is the denominator Figs. 11 and 13 average over.
        """
        return [
            device_id
            for device_id, joules in self.energy.per_device_j.items()
            if joules > 1e-6
        ]

    def mean_energy_per_active_device_j(self) -> float:
        active = self.active_devices()
        if not active:
            return 0.0
        return self.energy.total_j / len(active)

    def detached(self) -> "ArmResult":
        """A plain-data copy safe to pickle across process boundaries.

        The live simulation world (devices, server, clients, baseline
        frameworks) holds closures and cross-references that cannot —
        and should not — travel between worker processes; a detached
        result keeps every derived metric (energy summary, selection
        log, per-request counts) and summarises the world objects that
        downstream analysis actually reads into plain ``extras`` keys.
        """
        extras: Dict[str, object] = {}
        server = self.extras.get("server")
        if server is not None:
            extras["selections_per_device"] = dict(server.selections_per_device())
        return ArmResult(
            name=self.name,
            energy=self.energy,
            data_points=self.data_points,
            participants_per_request=dict(self.participants_per_request),
            devices=[],
            selection_log=list(self.selection_log),
            qualified_per_request=dict(self.qualified_per_request),
            extras=extras,
        )


def _build_world(config: ScenarioConfig):
    """Simulator + campus + towers + network + population."""
    sim = Simulator(seed=config.seed)
    campus = default_campus()
    registry = TowerRegistry(
        grid_towers(campus.width_m, campus.height_m, rows=2, cols=2)
    )
    network = CellularNetwork(sim)
    devices = build_population(sim, campus, config.population)
    return sim, campus, registry, network, devices


def _run_duration(tasks: Sequence[TaskParams]) -> float:
    longest = max(t.start_offset_s + t.sampling_duration_s for t in tasks)
    return longest + RUN_SLACK_S


def run_sense_aid_arm(
    config: ScenarioConfig,
    tasks: Sequence[TaskParams],
    mode: ServerMode,
    *,
    select_all_qualified: bool = False,
    weights: Optional[SelectorWeights] = None,
) -> ArmResult:
    """Run Sense-Aid (Basic or Complete) over the scenario's world."""
    if not tasks:
        raise ValueError("at least one task is required")
    sim, campus, registry, network, devices = _build_world(config)
    server_config = SenseAidConfig(
        mode=mode,
        select_all_qualified=select_all_qualified,
        weights=weights if weights is not None else SelectorWeights(),
    )
    server = SenseAidServer(sim, registry, network, server_config)
    clients = []
    for device in devices:
        client = SenseAidClient(sim, device, server, network)
        client.register()
        clients.append(client)
    cas = CrowdsensingAppServer(server, "cas-weather")
    for params in tasks:
        cas.task(
            params.sensor,
            campus.site(params.site).position,
            params.area_radius_m,
            params.spatial_density,
            sampling_period_s=params.sampling_period_s,
            sampling_duration_s=params.sampling_duration_s,
        )
    sim.run(until=_run_duration(tasks))
    server.shutdown()
    name = "sense-aid-basic" if mode is ServerMode.BASIC else "sense-aid-complete"
    if select_all_qualified:
        name += "-all"
    return ArmResult(
        name=name,
        energy=summarize_devices(devices),
        data_points=server.stats.data_points,
        participants_per_request={
            e.request_id: len(e.selected) for e in server.selection_log
        },
        devices=devices,
        selection_log=list(server.selection_log),
        qualified_per_request={
            e.request_id: len(e.qualified) for e in server.selection_log
        },
        extras={"server": server, "clients": clients, "cas": cas},
    )


def _run_baseline_arm(
    config: ScenarioConfig,
    tasks: Sequence[TaskParams],
    build: Callable[[Simulator, CellularNetwork, List[SimDevice]], BaselineFramework],
    name: Optional[str] = None,
) -> ArmResult:
    """Run one baseline framework over the scenario's world.

    ``build`` makes the framework; its tasks carry the framework's name
    as their origin, and so does the arm unless ``name`` is given.
    """
    if not tasks:
        raise ValueError("at least one task is required")
    sim, campus, registry, network, devices = _build_world(config)
    framework = build(sim, network, devices)
    for params in tasks:
        framework.add_task(params.to_spec(campus, framework.name))
    sim.run(until=_run_duration(tasks))
    return ArmResult(
        name=name or framework.name,
        energy=summarize_devices(devices),
        data_points=framework.stats.data_points_delivered,
        participants_per_request=dict(framework.stats.participants_per_request),
        devices=devices,
        extras={"framework": framework},
    )


def run_periodic_arm(
    config: ScenarioConfig, tasks: Sequence[TaskParams]
) -> ArmResult:
    """Run the Periodic baseline over the scenario's world."""
    return _run_baseline_arm(config, tasks, PeriodicFramework)


def run_coverage_arm(
    config: ScenarioConfig, tasks: Sequence[TaskParams]
) -> ArmResult:
    """Run the coverage-recruitment (CrowdRecruiter-style) comparator."""
    return _run_baseline_arm(config, tasks, CoverageFramework)


def run_pcs_arm(
    config: ScenarioConfig,
    tasks: Sequence[TaskParams],
    *,
    accuracy: float = 0.40,
    oracle_sessions: bool = False,
) -> ArmResult:
    """Run the PCS baseline over the scenario's world."""
    return _run_baseline_arm(
        config,
        tasks,
        partial(PCSFramework, accuracy=accuracy, oracle_sessions=oracle_sessions),
        name=f"pcs@{accuracy:.0%}",
    )


@dataclass(frozen=True)
class FourArms:
    """Periodic, PCS, Sense-Aid Basic and Complete over one world.

    Each experiment's sweep point is this record plus its one sweep
    field (``radius_m``, ``period_s``, ``task_count``).
    """

    periodic: ArmResult
    pcs: ArmResult
    basic: ArmResult
    complete: ArmResult

    @property
    def qualified_mean(self) -> float:
        """Fig. 7: mean qualified devices per request."""
        return self.basic.mean_qualified()

    def savings_row(self) -> Dict[str, float]:
        """Table-2-style savings percentages, keyed by :data:`COMPARISONS`."""
        row = {}
        for key in COMPARISONS:
            sense_aid, baseline = key.split("_vs_")
            row[key] = savings_pct(
                getattr(self, sense_aid).energy.total_j,
                getattr(self, baseline).energy.total_j,
            )
        return row

    def selected_counts(self) -> Dict[str, float]:
        """Figs. 10 and 12: mean devices used per request, per framework."""
        return {
            "periodic": self.periodic.mean_participants(),
            "pcs": self.pcs.mean_participants(),
            "sense-aid": self.basic.mean_participants(),
        }

    def energy_per_device(self) -> Dict[str, float]:
        """Figs. 11 and 13: mean Joules per participating device."""
        return {
            "periodic": self.periodic.mean_energy_per_active_device_j(),
            "pcs": self.pcs.mean_energy_per_active_device_j(),
            "basic": self.basic.mean_energy_per_active_device_j(),
            "complete": self.complete.mean_energy_per_active_device_j(),
        }


SweepPoint = TypeVar("SweepPoint", bound=FourArms)


def run_four_arms(
    point: Type[SweepPoint],
    config: ScenarioConfig,
    tasks: Sequence[TaskParams],
    **sweep: object,
) -> SweepPoint:
    """Run Periodic, PCS, Basic and Complete, in that order, over the
    scenario's world and return them as a ``point`` record.

    Each arm is detached as soon as it finishes, so at most one live
    world exists at a time.  ``sweep`` fills the record's sweep field.
    """
    return point(
        periodic=run_periodic_arm(config, tasks).detached(),
        pcs=run_pcs_arm(config, tasks).detached(),
        basic=run_sense_aid_arm(config, tasks, ServerMode.BASIC).detached(),
        complete=run_sense_aid_arm(config, tasks, ServerMode.COMPLETE).detached(),
        **sweep,
    )


def format_savings_table(
    sweep_header: str, rows: Sequence[Tuple[object, FourArms]], title: str
) -> str:
    """An experiment's savings table: one ``(sweep value, point)`` row
    per sweep point, one percentage column per comparison."""
    table_rows = []
    for value, point in rows:
        savings = point.savings_row()
        table_rows.append((value, *(f"{savings[key]:.1f}%" for key in COMPARISONS)))
    # Column labels in COMPARISONS order.
    headers = [sweep_header, "B/Periodic", "C/Periodic", "B/PCS", "C/PCS"]
    return format_table(headers, table_rows, title=title)
