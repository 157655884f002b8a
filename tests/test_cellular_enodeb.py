"""Unit tests for eNodeBs and the tower registry."""

from __future__ import annotations

import pytest

from repro.cellular.enodeb import ENodeB, TowerRegistry, grid_towers
from repro.cellular.rrc import RRCState
from repro.cellular.packets import TrafficCategory
from repro.environment.geometry import Point
from repro.sim.engine import Simulator
from tests.conftest import make_device


def two_tower_registry():
    return TowerRegistry(
        [
            ENodeB("west", Point(0.0, 0.0), coverage_radius_m=1000.0),
            ENodeB("east", Point(2000.0, 0.0), coverage_radius_m=1000.0),
        ]
    )


class TestENodeB:
    def test_covers(self):
        tower = ENodeB("t", Point(0.0, 0.0), coverage_radius_m=100.0)
        assert tower.covers(Point(50.0, 0.0))
        assert not tower.covers(Point(101.0, 0.0))


class TestTowerRegistry:
    def test_requires_towers(self):
        with pytest.raises(ValueError):
            TowerRegistry([])

    def test_unique_ids_required(self):
        tower = ENodeB("t", Point(0.0, 0.0))
        with pytest.raises(ValueError):
            TowerRegistry([tower, tower])

    def test_nearest_tower(self):
        registry = two_tower_registry()
        assert registry.nearest_tower(Point(100.0, 0.0)).tower_id == "west"
        assert registry.nearest_tower(Point(1900.0, 0.0)).tower_id == "east"

    def test_tower_lookup(self):
        registry = two_tower_registry()
        assert registry.tower("west").tower_id == "west"
        with pytest.raises(KeyError):
            registry.tower("north")

    def test_towers_covering_region(self):
        registry = two_tower_registry()
        covering = registry.towers_covering(Point(0.0, 0.0), 100.0)
        assert [t.tower_id for t in covering] == ["west"]
        both = registry.towers_covering(Point(1000.0, 0.0), 500.0)
        assert {t.tower_id for t in both} == {"west", "east"}

    def test_attach_and_serving_tower(self):
        sim = Simulator()
        registry = two_tower_registry()
        device = make_device(sim, "d1", position=Point(100.0, 0.0))
        tower = registry.attach_device(device)
        assert tower.tower_id == "west"
        assert registry.serving_tower("d1").tower_id == "west"
        assert "d1" in registry
        assert "d2" not in registry

    def test_detach(self):
        sim = Simulator()
        registry = two_tower_registry()
        device = make_device(sim, "d1", position=Point(100.0, 0.0))
        registry.attach_device(device)
        registry.detach_device("d1")
        assert registry.device_ids() == []
        assert "d1" not in registry
        with pytest.raises(KeyError):
            registry.serving_tower("d1")

    def test_detach_unknown_is_noop(self):
        two_tower_registry().detach_device("ghost")

    def test_devices_within(self):
        sim = Simulator()
        registry = two_tower_registry()
        near = make_device(sim, "near", position=Point(10.0, 0.0))
        far = make_device(sim, "far", position=Point(1500.0, 0.0))
        registry.attach_device(near)
        registry.attach_device(far)
        assert registry.devices_within(Point(0.0, 0.0), 100.0) == ["near"]
        # Deterministic ordering contract: nearest first, ids break ties.
        assert registry.devices_within(Point(0.0, 0.0), 2000.0) == ["near", "far"]
        assert registry.devices_within_scan(Point(0.0, 0.0), 2000.0) == [
            "near",
            "far",
        ]

    def test_devices_within_negative_radius(self):
        with pytest.raises(ValueError):
            two_tower_registry().devices_within(Point(0.0, 0.0), -1.0)

    def test_radio_state_visibility(self):
        sim = Simulator()
        registry = two_tower_registry()
        device = make_device(sim, "d1", position=Point(0.0, 0.0))
        registry.attach_device(device)
        assert registry.radio_state("d1") is RRCState.IDLE
        device.modem.transmit(600, TrafficCategory.BACKGROUND)
        sim.run(until=1.0)
        assert registry.radio_state("d1") in (RRCState.ACTIVE, RRCState.TAIL)

    def test_seconds_since_last_comm_visibility(self):
        sim = Simulator()
        registry = two_tower_registry()
        device = make_device(sim, "d1", position=Point(0.0, 0.0))
        registry.attach_device(device)
        assert registry.seconds_since_last_comm("d1") is None
        device.modem.transmit(600, TrafficCategory.BACKGROUND)
        sim.run(until=20.0)
        assert registry.seconds_since_last_comm("d1") > 0

    def test_unknown_device_raises(self):
        registry = two_tower_registry()
        with pytest.raises(KeyError):
            registry.radio_state("ghost")
        with pytest.raises(KeyError):
            registry.device("ghost")

    def test_refresh_attachments_follows_mobility(self):
        sim = Simulator()
        registry = two_tower_registry()

        class Walker:
            device_id = "walker"
            modem = None

            def __init__(self):
                self._pos = Point(100.0, 0.0)

            def position(self):
                return self._pos

        walker = Walker()
        registry.attach_device(walker)
        assert registry.serving_tower("walker").tower_id == "west"
        walker._pos = Point(1900.0, 0.0)
        registry.refresh_attachments()
        assert registry.serving_tower("walker").tower_id == "east"


class TestGridTowers:
    def test_grid_layout(self):
        towers = grid_towers(2000.0, 2000.0, rows=2, cols=2)
        assert len(towers) == 4
        positions = {(t.position.x, t.position.y) for t in towers}
        assert positions == {
            (500.0, 500.0),
            (1500.0, 500.0),
            (500.0, 1500.0),
            (1500.0, 1500.0),
        }

    def test_unique_ids(self):
        towers = grid_towers(1000.0, 1000.0, rows=3, cols=3)
        assert len({t.tower_id for t in towers}) == 9

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            grid_towers(1000.0, 1000.0, rows=0)
