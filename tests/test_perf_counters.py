"""Unit tests for the perf-counter layer (repro.sim.perf)."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.sim.engine import Simulator
from repro.sim.perf import PerfRegistry

SRC = Path(__file__).resolve().parents[1] / "src"


class TestPerfProbe:
    def test_observe_accumulates(self):
        perf = PerfRegistry()
        probe = perf.probe("op")
        probe.observe(10)
        probe.observe(4)
        assert probe.calls == 2
        assert probe.items == 14
        assert probe.max_items == 10
        assert probe.items_per_call() == 7.0

    def test_zero_call_rates(self):
        probe = PerfRegistry().probe("idle")
        assert probe.items_per_call() == 0.0

    def test_same_name_same_probe(self):
        perf = PerfRegistry()
        assert perf.probe("x") is perf.probe("x")


class TestMeasure:
    def test_count_is_untimed(self):
        perf = PerfRegistry()
        perf.count("hits")
        perf.count("hits", items=3)
        probe = perf.probe("hits")
        assert probe.calls == 2
        assert probe.items == 3
        assert probe.max_items == 3


class TestSnapshotAndExport:
    def test_snapshot_shape(self):
        perf = PerfRegistry()
        perf.count("a", items=2)
        snap = perf.snapshot()
        assert snap["a"]["calls"] == 1
        assert snap["a"]["items"] == 2
        assert set(snap["a"]) == {"calls", "items", "max_items", "items_per_call"}


def test_simulator_owns_a_perf_registry():
    sim = Simulator(seed=1)
    assert isinstance(sim.perf, PerfRegistry)
    sim.perf.count("anything")
    assert sim.perf.probe("anything").calls == 1


#: The modules allowed to read the wall clock, relative to ``src/repro``:
#: the service front's ``ServiceClock`` and the load generator's
#: stopwatch, which the live latency and throughput gates read.
WALL_CLOCK_MODULES = {"service/server.py", "service/loadgen.py"}
WALL_CLOCK_IMPORTS = {"time", "datetime", "timeit"}


def test_only_the_service_front_reads_the_wall_clock():
    """Probes count work and the e2e tracer times it: no other module
    under ``src/repro`` may import a wall-clock module."""
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in WALL_CLOCK_IMPORTS for name in names):
                offenders.append(path.relative_to(SRC / "repro").as_posix())
    assert sorted(set(offenders) - WALL_CLOCK_MODULES) == []


def test_server_instruments_hot_paths():
    """A full little run leaves the expected probes populated."""
    from repro.cellular.enodeb import TowerRegistry, grid_towers
    from repro.cellular.network import CellularNetwork
    from repro.clientlib import SenseAidClient
    from repro.core.config import SenseAidConfig, ServerMode
    from repro.core.server import SenseAidServer
    from repro.devices.sensors import SensorType
    from repro.environment.campus import default_campus
    from repro.environment.population import PopulationConfig, build_population
    from repro.serverlib import CrowdsensingAppServer

    sim = Simulator(seed=17)
    campus = default_campus()
    registry = TowerRegistry(grid_towers(campus.width_m, campus.height_m))
    network = CellularNetwork(sim)
    devices = build_population(sim, campus, PopulationConfig(size=15))
    server = SenseAidServer(
        sim, registry, network, SenseAidConfig(mode=ServerMode.COMPLETE)
    )
    for device in devices:
        SenseAidClient(sim, device, server, network).register()
    app = CrowdsensingAppServer(server, "probe-check")
    app.task(
        SensorType.BAROMETER,
        campus.site("CS department").position,
        area_radius_m=1200.0,
        spatial_density=2,
        sampling_period_s=300.0,
        sampling_duration_s=900.0,
    )
    sim.run(until=1000.0)
    server.shutdown()

    probes = sim.perf.probes()
    assert probes["registry.devices_within"].calls > 0
    assert probes["server.qualified_devices"].calls > 0
    assert probes["server.edge_refresh"].calls > 0
    # The registry shares the simulator's perf registry via bind().
    assert registry.perf is sim.perf
    # Per-query touched devices is bounded by the fleet.
    assert probes["registry.devices_within"].max_items <= len(devices)


def test_complexity_contract_counter_bounds():
    """The counter-backed rows of the docs/performance.md §5 table.

    The fleet is static, so every bucket keeps its occupancy for the
    whole run and the end-of-run ``max_bucket`` bounds what each query
    saw.
    """
    import math
    import random

    from repro.cellular.enodeb import TowerRegistry, grid_towers
    from repro.cellular.network import CellularNetwork
    from repro.clientlib import SenseAidClient
    from repro.core.config import SenseAidConfig, ServerMode
    from repro.core.server import SenseAidServer
    from repro.devices.device import SimDevice
    from repro.devices.sensors import SensorType
    from repro.environment.campus import default_campus
    from repro.environment.geometry import Point
    from repro.environment.mobility import StaticMobility
    from repro.serverlib import CrowdsensingAppServer

    fleet = 200
    radius_m = 300.0
    rng = random.Random(5)
    sim = Simulator(seed=5)
    campus = default_campus()
    registry = TowerRegistry(grid_towers(campus.width_m, campus.height_m))
    network = CellularNetwork(sim)
    server = SenseAidServer(
        sim, registry, network, SenseAidConfig(mode=ServerMode.COMPLETE)
    )
    for i in range(fleet):
        position = Point(
            rng.uniform(0.0, campus.width_m), rng.uniform(0.0, campus.height_m)
        )
        device = SimDevice(sim, f"d{i:03d}", mobility=StaticMobility(position))
        SenseAidClient(sim, device, server, network).register()
    app = CrowdsensingAppServer(server, "contract-check")
    for site in ("CS department", "Student Union"):
        app.task(
            SensorType.BAROMETER,
            campus.site(site).position,
            area_radius_m=radius_m,
            spatial_density=2,
            sampling_period_s=300.0,
            sampling_duration_s=1800.0,
        )
    sim.run(until=1900.0)
    server.shutdown()

    probes = sim.perf.probes()
    grid = registry.grid_stats()

    # devices_within: O(q), q bounded by the buckets a circle can touch.
    query = probes["registry.devices_within"]
    assert query.calls > 0
    cells_across = math.ceil(2 * radius_m / grid["cell_size_m"] + 1)
    query_bound = cells_across**2 * grid["max_bucket"]
    assert query_bound < fleet  # the bound is tighter than a scan
    assert query.max_items <= query_bound

    # Edge sync: O(fleet) per distinct instant that reads the view.
    # Nothing is waitlisted here, so only scheduling instants refresh;
    # the 30 s wait-queue ticks find an empty queue and do no fleet work.
    edge = probes["server.edge_refresh"]
    assert server.stats.requests_waitlisted == 0
    assert edge.calls == len({event.time for event in server.selection_log})
    assert edge.items <= edge.calls * fleet
    assert probes["server.wait_check"].calls == 63

    # qualified_devices: once per task on a static fleet; every later
    # round reuses the set, across instants.
    assert len(server.selection_log) == 12
    assert probes["server.qualified_devices"].calls == 2
    assert probes["server.qualified_devices.memo_hit"].calls == 10

    # refresh_attachments: O(d × c), c = candidate towers per cell.
    nearest = probes["registry.nearest_tower"]
    assert nearest.calls >= fleet
    assert nearest.max_items <= 4

    # The same bound on every cell of a 5x5-tower, 9 km region.
    city = TowerRegistry(grid_towers(9000.0, 9000.0, rows=5, cols=5))
    cell = city.grid_stats()["cell_size_m"]
    for i in range(int(9000.0 // cell)):
        for j in range(int(9000.0 // cell)):
            city.nearest_tower(Point((i + 0.5) * cell, (j + 0.5) * cell))
    assert city.perf.probe("registry.nearest_tower").max_items <= 4
