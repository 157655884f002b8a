"""The spatial index's exactness contract.

The uniform grid is a pure accelerator: every query must return
bit-identical results to the brute-force scan, including ordering
(distance from the centre, then device id), and a full simulation must
produce the same selection log whether the index is on or off.
"""

from __future__ import annotations

import random
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cellular.enodeb import ENodeB, TowerRegistry, grid_towers
from repro.cellular.network import CellularNetwork
from repro.cellular.spatial import UniformGridIndex
from repro.clientlib import SenseAidClient
from repro.core.config import SenseAidConfig, ServerMode
from repro.core.server import SenseAidServer
from repro.devices.sensors import SensorType
from repro.environment.campus import STUDY_SITES, default_campus
from repro.environment.geometry import Point
from repro.environment.mobility import RandomWaypointMobility, StaticMobility
from repro.environment.population import PopulationConfig, build_population
from repro.faults import FaultInjector, FaultPlan, reset_global_ids
from repro.serverlib import CrowdsensingAppServer
from repro.sim.engine import Simulator
from tests.conftest import make_device


class _Dot:
    """Minimal registry device: id + position, no modem needed."""

    def __init__(self, device_id: str, position: Point) -> None:
        self.device_id = device_id
        self._position = position
        self.modem = None
        self.mobility = StaticMobility(position)

    def position(self) -> Point:
        return self._position


def _registry(cell_size_m: float = 500.0) -> TowerRegistry:
    return TowerRegistry(grid_towers(3000.0, 3000.0, rows=2, cols=2), cell_size_m=cell_size_m)


class TestUniformGridIndex:
    def test_rejects_bad_cell_size(self):
        with pytest.raises(ValueError):
            UniformGridIndex(0.0)

    def test_update_moves_between_buckets(self):
        grid = UniformGridIndex(100.0)
        assert grid.update("a", Point(10.0, 10.0)) is True
        assert grid.update("a", Point(20.0, 20.0)) is False  # same cell
        assert grid.update("a", Point(150.0, 10.0)) is True
        assert len(grid) == 1
        assert grid.bucket_count() == 1

    def test_remove(self):
        grid = UniformGridIndex(100.0)
        grid.update("a", Point(0.0, 0.0))
        grid.remove("a")
        assert "a" not in grid
        assert grid.bucket_count() == 0
        grid.remove("a")  # idempotent

    def test_negative_coordinates(self):
        grid = UniformGridIndex(100.0)
        grid.update("neg", Point(-50.0, -50.0))
        assert [i for _, i in grid.query_circle(Point(0.0, 0.0), 100.0)] == ["neg"]

    def test_query_negative_radius(self):
        grid = UniformGridIndex(100.0)
        with pytest.raises(ValueError):
            grid.query_circle(Point(0.0, 0.0), -1.0)

    def test_occupancy_stats(self):
        grid = UniformGridIndex(100.0)
        for i in range(5):
            grid.update(f"d{i}", Point(10.0 * i, 0.0))
        stats = grid.occupancy_stats()
        assert stats["items"] == 5
        assert stats["max_bucket"] == 5


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_devices=st.integers(min_value=0, max_value=120),
    cell_size=st.sampled_from([120.0, 500.0, 1500.0]),
    radius=st.floats(min_value=0.0, max_value=4000.0),
)
def test_grid_equals_scan_on_random_fleets(seed, n_devices, cell_size, radius):
    """Indexed devices_within ≡ brute-force scan, order included."""
    rng = random.Random(seed)
    registry = _registry(cell_size)
    for i in range(n_devices):
        registry.attach_device(
            _Dot(
                f"d{i}",
                Point(rng.uniform(-500.0, 3500.0), rng.uniform(-500.0, 3500.0)),
            )
        )
    center = Point(rng.uniform(0.0, 3000.0), rng.uniform(0.0, 3000.0))
    indexed = registry.devices_within(center, radius)
    scanned = registry.devices_within_scan(center, radius)
    assert indexed == scanned
    assert registry.candidate_count_within(center, radius) >= len(indexed)


def _brute_force_nearest(towers, point: Point) -> ENodeB:
    """The reference: scan every operational tower (all of them during
    a total outage); ``min`` keeps the first registered on exact ties."""
    pool = [t for t in towers if t.operational] or list(towers)
    return min(pool, key=lambda t: t.position.distance_to(point))


def _tower_layout(layout: str, rng: random.Random):
    if layout == "grid":
        return grid_towers(3000.0, 3000.0, rows=rng.randint(1, 5), cols=rng.randint(1, 5))
    if layout == "random":
        return [
            ENodeB(f"t{i}", Point(rng.uniform(-1000.0, 4000.0), rng.uniform(-1000.0, 4000.0)))
            for i in range(rng.randint(1, 12))
        ]
    # "lattice": integer positions on a coarse lattice, so exact
    # equidistant ties are everywhere; registered in shuffled order, so
    # registry order is not id order.
    spots = [(x, y) for x in range(-1000, 4001, 500) for y in range(-1000, 4001, 500)]
    return [
        ENodeB(f"t{x}:{y}", Point(float(x), float(y)))
        for x, y in rng.sample(spots, rng.randint(2, 12))
    ]


def _probe_points(towers, cell_size: float, rng: random.Random):
    points = [
        Point(rng.uniform(-2000.0, 5000.0), rng.uniform(-2000.0, 5000.0)) for _ in range(12)
    ]
    # Cell edges and corners, negative coordinates included.
    for _ in range(8):
        i, j = rng.randint(-4, 12), rng.randint(-4, 12)
        points.append(Point(i * cell_size, rng.uniform(-2000.0, 5000.0)))
        points.append(Point(i * cell_size, j * cell_size))
    # Midpoints of tower pairs (exactly equidistant on the lattice) and
    # the towers themselves.
    for _ in range(8):
        a, b = rng.choice(towers), rng.choice(towers)
        points.append(Point((a.position.x + b.position.x) / 2, (a.position.y + b.position.y) / 2))
    points.extend(t.position for t in towers)
    return points


@settings(max_examples=60, deadline=None)
@given(
    layout=st.sampled_from(["grid", "random", "lattice"]),
    seed=st.integers(min_value=0, max_value=10_000),
    cell_size=st.sampled_from([120.0, 500.0, 1500.0]),
    total_outage=st.booleans(),
    data=st.data(),
)
def test_nearest_tower_equals_brute_force(layout, seed, cell_size, total_outage, data):
    """``nearest_tower`` and the attachment refresh ≡ a scan of the pool,
    before, during and after tower failures (or a total outage)."""
    rng = random.Random(seed)
    towers = _tower_layout(layout, rng)
    registry = TowerRegistry(towers, cell_size_m=cell_size)
    points = _probe_points(towers, cell_size, rng)
    for i, point in enumerate(points):
        registry.attach_device(_Dot(f"d{i}", point))
    if total_outage:
        failed = list(range(len(towers)))
    else:
        failed = data.draw(st.sets(st.integers(0, len(towers) - 1)), label="failed")

    def check():
        for i, point in enumerate(points):
            expected = _brute_force_nearest(towers, point)
            assert registry.nearest_tower(point) is expected
            assert registry.serving_tower(f"d{i}") is expected

    check()
    # Each fail/restore re-attaches the whole fleet through the refresh
    # path, against a freshly invalidated candidate cache.
    for index in sorted(failed):
        registry.fail_tower(towers[index].tower_id)
        check()
    for index in sorted(failed):
        registry.restore_tower(towers[index].tower_id)
    check()


def test_equidistant_tie_goes_to_first_registered_tower():
    registry = TowerRegistry(
        [ENodeB("zulu", Point(0.0, 0.0)), ENodeB("alpha", Point(2000.0, 0.0))]
    )
    # x = 1000 is equidistant and also a cell edge (cell size 500).
    for y in (-750.0, 0.0, 1000.0):
        assert registry.nearest_tower(Point(1000.0, y)).tower_id == "zulu"
    # The centre of a 2x2 grid ties all four towers.
    grid = TowerRegistry(grid_towers(3000.0, 3000.0))
    grid.attach_device(_Dot("c", Point(1500.0, 1500.0)))
    assert grid.serving_tower("c").tower_id == "enb-00"


def test_fail_and_restore_invalidate_candidate_cache():
    registry = TowerRegistry(grid_towers(3000.0, 3000.0))
    point = Point(700.0, 700.0)
    registry.attach_device(_Dot("d", point))
    assert registry.nearest_tower(point).tower_id == "enb-00"
    registry.fail_tower("enb-00")
    assert registry.nearest_tower(point).tower_id != "enb-00"
    assert registry.serving_tower("d").tower_id != "enb-00"
    registry.restore_tower("enb-00")
    assert registry.nearest_tower(point).tower_id == "enb-00"
    assert registry.serving_tower("d").tower_id == "enb-00"


class TestRegistryIncrementalRefresh:
    def test_memoised_per_instant_with_clock(self):
        sim = Simulator(seed=3)
        registry = _registry()
        registry.bind(sim)
        registry.attach_device(_Dot("a", Point(100.0, 100.0)))
        registry.devices_within(Point(0.0, 0.0), 500.0)
        before = registry.perf.probe("registry.refresh_positions").calls
        registry.devices_within(Point(0.0, 0.0), 500.0)
        registry.devices_within(Point(0.0, 0.0), 900.0)
        assert registry.perf.probe("registry.refresh_positions").calls == before
        assert registry.perf.probe("registry.refresh_positions.memo_hit").calls >= 2

    def test_paused_devices_skip_position_reads(self):
        sim = Simulator(seed=3)
        registry = _registry()
        registry.bind(sim)
        # StaticMobility promises the position never changes, so after
        # the first observation refreshes touch zero devices.
        for i in range(10):
            registry.attach_device(
                make_device(sim, f"d{i}", position=Point(100.0 * i, 50.0))
            )
        sim.run(until=100.0)
        registry.refresh_positions()
        probe = registry.perf.probe("registry.refresh_positions")
        assert probe.calls == 1
        assert probe.items == 0

    def test_attachment_follows_refresh(self):
        registry = TowerRegistry(
            [
                ENodeB("west", Point(0.0, 0.0)),
                ENodeB("east", Point(2000.0, 0.0)),
            ]
        )
        walker = _Dot("w", Point(100.0, 0.0))
        registry.attach_device(walker)
        assert registry.serving_tower("w").tower_id == "west"
        walker._position = Point(1900.0, 0.0)
        walker.mobility = StaticMobility(walker._position)
        registry.refresh_attachments()
        assert registry.serving_tower("w").tower_id == "east"
        registry.detach_device("w")
        with pytest.raises(KeyError):
            registry.serving_tower("w")

    def test_version_counts_membership_and_topology(self):
        registry = _registry()
        v0 = registry.version
        registry.attach_device(_Dot("a", Point(100.0, 100.0)))
        assert registry.version > v0
        v1 = registry.version
        registry.fail_tower(registry.towers[0].tower_id)
        assert registry.version > v1
        v2 = registry.version
        registry.detach_device("a")
        assert registry.version > v2

    def test_attachment_matches_nearest_after_mobility(self):
        """Cell-cached attachment ≡ exact nearest-tower, under walking."""
        sim = Simulator(seed=11)
        campus = default_campus()
        registry = TowerRegistry(grid_towers(campus.width_m, campus.height_m, rows=3, cols=3))
        registry.bind(sim)
        devices = build_population(sim, campus, PopulationConfig(size=30))
        for device in devices:
            registry.attach_device(device)
        for t in (600.0, 1200.0, 2400.0):
            sim.run(until=t)
            registry.refresh_attachments()
            for device in devices:
                expected = registry.nearest_tower(device.position()).tower_id
                assert registry.serving_tower(device.device_id).tower_id == expected


class _TimerRefreshServer(SenseAidServer):
    """Reference server: every wait-queue tick refreshes the whole edge
    view first, whether or not a request reads it."""

    def _check_wait_queue(self) -> None:
        self._refresh_edge_view()
        super()._check_wait_queue()


def _run_campaign(
    seed: int,
    use_spatial_index: bool = True,
    *,
    server_cls=SenseAidServer,
    mode: ServerMode = ServerMode.COMPLETE,
    density: int = 3,
    reassign_margin_s: Optional[float] = None,
    plan: Optional[FaultPlan] = None,
):
    """Two barometer tasks over 40 walking users on the campus; returns
    ``(server, devices, clients, injector)``."""
    reset_global_ids()
    sim = Simulator(seed=seed)
    campus = default_campus()
    registry = TowerRegistry(
        grid_towers(campus.width_m, campus.height_m, rows=3, cols=3),
        use_spatial_index=use_spatial_index,
    )
    network = CellularNetwork(sim)
    devices = build_population(sim, campus, PopulationConfig(size=40))
    config = SenseAidConfig(mode=mode, reassign_margin_s=reassign_margin_s)
    server = server_cls(sim, registry, network, config)
    injector = FaultInjector(sim, network, registry, server=server, plan=plan)
    clients = []
    for device in devices:
        client = SenseAidClient(sim, device, server, network)
        client.register()
        clients.append(client)
    app = CrowdsensingAppServer(server, "equiv")
    for site in STUDY_SITES[:2]:
        app.task(
            SensorType.BAROMETER,
            campus.site(site).position,
            area_radius_m=900.0,
            spatial_density=density,
            sampling_period_s=300.0,
            sampling_duration_s=1800.0,
        )
    sim.run(until=1900.0)
    server.shutdown()
    return server, devices, clients, injector


def test_selection_log_bit_identical_with_and_without_index():
    """The tentpole determinism gate: indexing must not change one bit
    of the scheduling outcome under the same seed."""
    indexed, *_ = _run_campaign(29, use_spatial_index=True)
    scanned, *_ = _run_campaign(29, use_spatial_index=False)
    assert indexed.selection_log == scanned.selection_log
    assert indexed.stats == scanned.stats


_TOWERS = tuple(f"enb-{r}{c}" for r in range(3) for c in range(3))


def _outage_and_crash_plan(towers) -> FaultPlan:
    """Fail ``towers`` from 450 s to 1050 s (all nine: a total outage),
    then crash the server at 1230 s and restart it 45 s later."""
    plan = FaultPlan()
    for tower_id in towers:
        plan.tower_down(450.0, tower_id)
    for tower_id in towers:
        plan.tower_up(1050.0, tower_id)
    return plan.server_crash(1230.0, restart_after=45.0)


def _pulled_and_reference(seed, mode, density, reassign_margin_s, outage):
    """The same campaign under the server and under the timer-refresh
    reference; ``outage`` is None (no faults) or the towers to fail."""

    def run(server_cls):
        plan = None if outage is None else _outage_and_crash_plan(outage)
        return _run_campaign(
            seed,
            server_cls=server_cls,
            mode=mode,
            density=density,
            reassign_margin_s=reassign_margin_s,
            plan=plan,
        )

    pulled, reference = run(SenseAidServer), run(_TimerRefreshServer)
    server, devices, _, injector = pulled
    ref_server, ref_devices, _, ref_injector = reference
    assert server.selection_log == ref_server.selection_log
    assert server.stats == ref_server.stats
    assert [d.crowdsensing_energy_j() for d in devices] == [
        d.crowdsensing_energy_j() for d in ref_devices
    ]
    assert injector.stats == ref_injector.stats
    return pulled, reference


@settings(max_examples=24, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    mode=st.sampled_from([ServerMode.BASIC, ServerMode.COMPLETE]),
    density=st.sampled_from([15, 30]),
    reassign_margin_s=st.sampled_from([None, 2.0]),
    outage=st.one_of(st.none(), st.sampled_from(_TOWERS).map(lambda t: (t,)), st.just(_TOWERS)),
)
def test_edge_view_pulled_on_read_matches_timer_refresh(
    seed, mode, density, reassign_margin_s, outage
):
    """Refreshing the edge view only where a request reads it changes no
    decision: selections, stats, device energy and fault outcomes equal
    those of a server that also refreshes on every wait-queue tick.
    Density 30 of 40 users starves requests into the wait queue;
    density 15 leaves spare candidates for reassignment to rank.  Each
    runs with reassignment off and on, without faults, and with a
    one-tower or total outage followed by a server crash and restart."""
    _pulled_and_reference(seed, mode, density, reassign_margin_s, outage)


def test_edge_view_exactness_world_is_not_vacuous():
    """One pinned case of the property above: its world waitlists
    requests, makes tail uploads, drops traffic in the total outage,
    drafts substitutes, restarts the server, and the reference
    refreshes at more instants."""
    pulled, reference = _pulled_and_reference(6, ServerMode.COMPLETE, 15, 2.0, _TOWERS)
    server, _, clients, injector = pulled
    assert server.stats.requests_waitlisted > 0
    assert sum(c.stats.uploads_in_tail for c in clients) > 0
    assert injector.stats.outage_drops > 0
    assert server.stats.reassignments > 0
    assert injector.stats.server_restarts == 1
    edge_refreshes = [
        run[0]._sim.perf.probe("server.edge_refresh").calls for run in (pulled, reference)
    ]
    assert edge_refreshes[0] < edge_refreshes[1]


def test_random_waypoint_position_valid_until():
    rng = random.Random(5)
    mobility = RandomWaypointMobility(
        Point(0.0, 0.0), [Point(500.0, 0.0), Point(0.0, 700.0)], rng
    )
    # The itinerary starts with a pause at home: the validity window is
    # in the future and the position really is constant across it.
    until = mobility.position_valid_until(0.0)
    assert until > 0.0
    p0 = mobility.position_at(0.0)
    assert mobility.position_at(until * 0.5) == p0
    # Mid-walk the model promises nothing.
    t_walk = until + 1.0
    assert mobility.position_valid_until(t_walk) == t_walk
