"""Tests for server checkpointing and the heat-map renderer."""

from __future__ import annotations

import json

import pytest

from repro.analysis.heatmap import (
    SpatialSample,
    grid_field,
    idw_interpolate,
    render_heatmap,
)
from repro.cellular.enodeb import ENodeB, TowerRegistry
from repro.core.datastores import (
    record_from_dict,
    record_to_dict,
    task_from_dict,
    task_to_dict,
)
from repro.core.server import SenseAidServer
from repro.core.wal import DurableLog, checkpoint_server
from repro.devices.sensors import SensorType
from repro.environment.geometry import Point
from repro.sim.engine import Simulator
from tests.test_core_datastores_queues import make_record
from tests.test_core_server import CENTER, make_setup, make_spec
from tests.test_wal_recovery import wal_setup


class TestCodecs:
    def test_record_round_trip(self):
        record = make_record(
            energy_used_j=12.5,
            times_selected=3,
            battery_pct=67.0,
            last_comm_time=42.0,
            sensors=frozenset({SensorType.BAROMETER, SensorType.GPS}),
        )
        restored = record_from_dict(record_to_dict(record))
        assert restored == record

    def test_record_dict_is_json_safe(self):
        record = make_record(sensors=frozenset({SensorType.BAROMETER}))
        json.dumps(record_to_dict(record))

    def test_task_round_trip(self):
        from tests.test_core_tasks import make_task

        task = make_task(device_type="iPhone 6")
        restored = task_from_dict(task_to_dict(task))
        assert restored == task

    def test_task_dict_is_json_safe(self):
        from tests.test_core_tasks import make_task

        json.dumps(task_to_dict(make_task()))


class TestCheckpoint:
    def test_checkpoint_captures_devices_and_tasks(self):
        sim = Simulator()
        server, _, _, _ = make_setup(sim, n_devices=3)
        server.submit_task(make_spec(), lambda p: None)
        sim.run(until=100.0)
        snapshot = checkpoint_server(server)
        assert len(snapshot["devices"]) == 3
        assert len(snapshot["tasks"]) == 1
        assert snapshot["taken_at"] == 100.0
        json.dumps(snapshot)  # fully serialisable

    def test_restore_into_fresh_server(self, tmp_path):
        # Original server: 2 devices, a 1-hour campaign; checkpoint at
        # t=700, then a brand-new server over the same WAL takes over,
        # handed the task's delivery callback by task id.
        sim = Simulator()
        server, network, _, _ = wal_setup(sim, tmp_path / "wal")
        data = []
        task_id = server.submit_task(
            make_spec(
                spatial_density=1,
                sampling_period_s=600.0,
                sampling_duration_s=3600.0,
            ),
            data.append,
        )
        sim.run(until=700.0)
        server._wal.checkpoint(server)
        server.shutdown()

        fresh = SenseAidServer(
            sim,
            TowerRegistry([ENodeB("t0", CENTER, coverage_radius_m=5000.0)]),
            network,
            wal=DurableLog(str(tmp_path / "wal")),
        )
        fresh.take_over({str(task_id): data.append})
        assert task_id in fresh.tasks
        for device_id in ("d0", "d1"):
            restored = fresh.devices.record(device_id)
            original = server.devices.record(device_id)
            assert restored.imei_hash == original.imei_hash
            assert restored.times_selected == original.times_selected
        fresh.shutdown()

    def test_restore_skips_expired_tasks(self, tmp_path):
        sim = Simulator(seed=5)
        server, _, _, _ = wal_setup(sim, tmp_path / "wal", n_devices=1)
        task_id = server.submit_task(
            make_spec(spatial_density=1, sampling_duration_s=600.0), lambda p: None
        )
        server._wal.checkpoint(server)
        sim.run(until=1000.0)  # past the task's end
        assert task_id in server.tasks  # an expired task lingers while live
        server.crash()
        server.restart()
        assert task_id not in server.tasks
        assert "d0" in server.devices


class TestHeatmap:
    SAMPLES = [
        SpatialSample(Point(100.0, 100.0), 1010.0),
        SpatialSample(Point(900.0, 900.0), 1020.0),
    ]

    def test_idw_at_sample_point(self):
        value = idw_interpolate(self.SAMPLES, Point(100.0, 100.0))
        assert value == pytest.approx(1010.0, abs=0.1)

    def test_idw_between_samples(self):
        value = idw_interpolate(self.SAMPLES, Point(500.0, 500.0))
        assert 1010.0 < value < 1020.0

    def test_idw_requires_samples(self):
        with pytest.raises(ValueError):
            idw_interpolate([], Point(0, 0))

    def test_grid_shape(self):
        grid = grid_field(self.SAMPLES, 1000.0, 1000.0, cols=10, rows=5)
        assert len(grid) == 5
        assert all(len(row) == 10 for row in grid)

    def test_grid_orientation_top_row_is_north(self):
        grid = grid_field(self.SAMPLES, 1000.0, 1000.0, cols=10, rows=5)
        # High-value sample sits at (900, 900): top-right corner.
        assert grid[0][-1] > grid[-1][0]

    def test_render_contains_ramp_extremes(self):
        art = render_heatmap(self.SAMPLES, 1000.0, 1000.0, title="map")
        assert art.splitlines()[0] == "map"
        assert "@" in art
        assert "low" in art and "high" in art

    def test_render_flat_field(self):
        flat = [SpatialSample(Point(500.0, 500.0), 1013.0)]
        art = render_heatmap(flat, 1000.0, 1000.0)
        assert "low 1013.0" in art

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            grid_field(self.SAMPLES, 1000.0, 1000.0, cols=0)
