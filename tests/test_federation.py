"""Tests for the geographic (federated) edge deployment of paper §3.2:
a :class:`ShardedSenseAid` fleet with :class:`NearestSite` placement."""

from __future__ import annotations

import pytest

from repro.cellular.network import CellularNetwork
from repro.clientlib import SenseAidClient
from repro.core.config import SenseAidConfig, ServerMode
from repro.core.sharding import NearestSite, ShardedSenseAid, ShardSpec
from repro.core.tasks import TaskSpec
from repro.devices.sensors import SensorType
from repro.environment.geometry import Point
from repro.environment.mobility import MobilityModel
from repro.sim.engine import Simulator
from tests.conftest import make_device

WEST = Point(500.0, 500.0)
EAST = Point(2500.0, 500.0)


class _Teleporter(MobilityModel):
    """Moves instantly from one point to another at a switch time."""

    def __init__(self, before: Point, after: Point, switch_at: float) -> None:
        self._before = before
        self._after = after
        self._switch_at = switch_at

    def position_at(self, time: float) -> Point:
        return self._before if time < self._switch_at else self._after


def make_fleet(sim, *, rebalance_period_s=60.0, auto_failover=True):
    network = CellularNetwork(sim)
    fleet = ShardedSenseAid(
        sim,
        network,
        [ShardSpec("west", WEST), ShardSpec("east", EAST)],
        SenseAidConfig(mode=ServerMode.COMPLETE),
        auto_failover=auto_failover,
        placement=NearestSite(rebalance_period_s),
    )
    return network, fleet


def make_client(sim, network, fleet, device_id, position, *, mobility=None):
    device = make_device(sim, device_id, position=position)
    if mobility is not None:
        device.mobility = mobility
    client = SenseAidClient(sim, device, fleet.instance("west"), network)
    fleet.register(client)
    return client


def make_task(center, **kwargs) -> TaskSpec:
    defaults = dict(
        sensor_type=SensorType.BAROMETER,
        center=center,
        area_radius_m=800.0,
        spatial_density=1,
        sampling_period_s=300.0,
        sampling_duration_s=600.0,
    )
    defaults.update(kwargs)
    return TaskSpec(**defaults)


class TestTopology:
    def test_requires_regions(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ShardedSenseAid(
                sim, CellularNetwork(sim), [], placement=NearestSite()
            )

    def test_unique_region_ids(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ShardedSenseAid(
                sim,
                CellularNetwork(sim),
                [ShardSpec("x", WEST), ShardSpec("x", EAST)],
                placement=NearestSite(),
            )

    def test_voronoi_routing(self):
        sim = Simulator()
        network, fleet = make_fleet(sim)
        make_client(sim, network, fleet, "far-west", Point(100.0, 500.0))
        make_client(sim, network, fleet, "far-east", Point(2900.0, 500.0))
        assert fleet.home_shard("far-west") == "west"
        assert fleet.home_shard("far-east") == "east"

    def test_unknown_region(self):
        sim = Simulator()
        _, fleet = make_fleet(sim)
        with pytest.raises(KeyError):
            fleet.instance("north")


class TestRegistration:
    def test_device_lands_on_nearest_instance(self):
        sim = Simulator()
        network, fleet = make_fleet(sim)
        client = make_client(sim, network, fleet, "d-east", EAST)
        assert fleet.home_shard("d-east") == "east"
        assert client.server is fleet.instance("east")
        assert "d-east" in fleet.instance("east").devices

    def test_devices_per_region(self):
        sim = Simulator()
        network, fleet = make_fleet(sim)
        make_client(sim, network, fleet, "w1", WEST)
        make_client(sim, network, fleet, "w2", WEST)
        make_client(sim, network, fleet, "e1", EAST)
        assert fleet.devices_per_shard() == {"west": 2, "east": 1}

    def test_deregister(self):
        sim = Simulator()
        network, fleet = make_fleet(sim)
        client = make_client(sim, network, fleet, "d", WEST)
        fleet.deregister("d")
        assert not client.registered
        with pytest.raises(KeyError):
            fleet.home_shard("d")


class TestHandoff:
    def test_moving_device_is_handed_over(self):
        sim = Simulator()
        network, fleet = make_fleet(sim, rebalance_period_s=30.0)
        make_client(
            sim, network, fleet, "walker", WEST,
            mobility=_Teleporter(WEST, EAST, switch_at=100.0),
        )
        assert fleet.home_shard("walker") == "west"
        sim.run(until=150.0)
        assert fleet.home_shard("walker") == "east"
        assert fleet.handoffs == 1
        assert "walker" in fleet.instance("east").devices
        assert "walker" not in fleet.instance("west").devices

    def test_stationary_device_not_handed_over(self):
        sim = Simulator()
        network, fleet = make_fleet(sim, rebalance_period_s=30.0)
        make_client(sim, network, fleet, "still", WEST)
        sim.run(until=500.0)
        assert fleet.handoffs == 0

    def test_handoff_preserves_service(self):
        """A device handed over keeps serving tasks in its new region."""
        sim = Simulator()
        network, fleet = make_fleet(sim, rebalance_period_s=30.0)
        make_client(
            sim, network, fleet, "walker", WEST,
            mobility=_Teleporter(WEST, EAST, switch_at=100.0),
        )
        sim.run(until=150.0)
        data = []
        fleet.submit_task(make_task(EAST), data.append)
        sim.run(until=800.0)
        assert len(data) == 2  # both sampling instants served


class TestTaskRouting:
    def test_task_routed_by_center(self):
        sim = Simulator()
        network, fleet = make_fleet(sim)
        make_client(sim, network, fleet, "w1", WEST)
        handle = fleet.submit_task(make_task(WEST), lambda p: None)
        assert handle.allocations == {"west": 1}
        sim.run(until=700.0)
        assert fleet.instance("west").stats.requests_issued == 2
        assert fleet.instance("east").stats.requests_issued == 0

    def test_independent_campaigns_per_region(self):
        sim = Simulator()
        network, fleet = make_fleet(sim)
        make_client(sim, network, fleet, "w1", WEST)
        make_client(sim, network, fleet, "e1", EAST)
        west_data, east_data = [], []
        fleet.submit_task(make_task(WEST), west_data.append)
        fleet.submit_task(make_task(EAST), east_data.append)
        sim.run(until=700.0)
        assert len(west_data) == 2
        assert len(east_data) == 2
        assert fleet.total_data_points() == 4
        issued = [fleet.instance(s).stats.requests_issued for s in fleet.shard_ids()]
        assert issued == [2, 2]

    def test_shutdown_stops_instances(self):
        sim = Simulator()
        network, fleet = make_fleet(sim)
        fleet.shutdown()  # heartbeats and rebalancer stopped
        sim.run(until=1000.0)
        assert sim.events_processed == 0
        assert fleet.handoffs == 0
