"""Failure-handling tests: server crash, fail-safe routing, restart,
and unresponsive devices."""

from __future__ import annotations

from repro.cellular.network import CellularNetwork
from repro.cellular.packets import (
    Message,
    MessageKind,
    TrafficCategory,
    sensor_data_message,
)
from repro.sim.engine import Simulator
from tests.test_core_server import CENTER, make_setup, make_spec


class TestServerCrash:
    def test_crash_stops_orchestration(self):
        sim = Simulator()
        server, _, _, _ = make_setup(sim, n_devices=3)
        server.submit_task(
            make_spec(sampling_period_s=600.0, sampling_duration_s=3600.0),
            lambda p: None,
        )
        sim.run(until=700.0)
        issued_before = server.stats.requests_issued
        server.crash()
        sim.run(until=2500.0)
        assert server.stats.requests_issued == issued_before
        assert server.stats.requests_lost_to_crash >= 2

    def test_crash_reroutes_to_path1(self):
        """The paper's fail-safe: path 1 if Sense-Aid server crashes."""
        sim = Simulator()
        server, network, devices, _ = make_setup(sim, n_devices=1)
        assert network.route_for(sensor_data_message("d0", {})) == "path2"
        server.crash()
        assert network.route_for(sensor_data_message("d0", {})) == "path1"

    def test_background_traffic_unaffected_by_crash(self):
        sim = Simulator()
        server, network, devices, _ = make_setup(sim, n_devices=1)
        server.crash()
        msg = Message(MessageKind.APP_TRAFFIC, "d0", 1000)
        delivered = []
        network.uplink(devices[0], msg, on_delivered=lambda m, r: delivered.append(r))
        sim.run(until=30.0)
        assert len(delivered) == 1
        assert delivered[0].path == "path1"

    def test_recovery_resumes_scheduling(self):
        """A WAL-less cold restart resumes the surviving task under the
        new epoch: original request ids, the outage's instants lost."""
        sim = Simulator()
        server, _, _, _ = make_setup(sim, n_devices=3)
        data = []
        task_id = server.submit_task(
            make_spec(
                spatial_density=2,
                sampling_period_s=600.0,
                sampling_duration_s=3600.0,
            ),
            data.append,
        )
        sim.run(until=700.0)
        assert server.stats.requests_scheduled == 2
        server.crash()
        sim.run(until=1900.0)  # the 1200 s and 1800 s instants are lost
        assert server.stats.requests_lost_to_crash == 2
        data_during_crash = [p for p in data if 700.0 < p.delivered_at <= 1900.0]
        assert data_during_crash == []
        server.restart()
        assert server.epoch == 2
        sim.run(until=3700.0)
        # The remaining instants (issued at 2400 and 3000) resume.
        assert server.stats.requests_scheduled == 4
        assert server.stats.requests_lost_to_crash == 2
        resumed = [p for p in data if p.delivered_at > 1900.0]
        assert len(resumed) == 2 * 2  # two requests × density 2
        assert {p.request_id for p in resumed} == {
            f"task{task_id}-r4",
            f"task{task_id}-r5",
        }

    def test_crash_is_idempotent(self):
        sim = Simulator()
        server, _, _, _ = make_setup(sim, n_devices=1)
        server.crash()
        server.crash()
        server.restart()
        assert not server.crashed
        assert server.epoch == 2

    def test_uploads_during_crash_are_not_counted(self):
        sim = Simulator()
        server, network, devices, _ = make_setup(sim, n_devices=2)
        server.submit_task(make_spec(sampling_duration_s=600.0), lambda p: None)
        sim.run(until=10.0)
        server.crash()
        # A straggler upload arrives at the (dead) server callback.
        from repro.cellular.network import DeliveryReceipt

        request_id = server.selection_log[0].request_id
        message = sensor_data_message(
            "d0", {"device_id": "d0", "request_id": request_id, "value": 1013.0}
        )
        server.receive_sensed_data(
            message, DeliveryReceipt(1, sim.now, sim.now, "path1")
        )
        assert server.stats.data_points == 0


class TestUnresponsiveDevices:
    def test_device_without_handler_marked_unresponsive(self):
        sim = Simulator()
        server, network, devices, clients = make_setup(sim, n_devices=3)
        # Simulate a vanished client: handler removed but record kept.
        server._assignment_handlers.pop("d0")
        server.submit_task(
            make_spec(spatial_density=3, sampling_duration_s=600.0), lambda p: None
        )
        sim.run(until=650.0)
        assert not server.devices.record("d0").responsive
        # Follow-up requests exclude it (only 2 eligible of 3 needed).
        server.submit_task(
            make_spec(spatial_density=3, sampling_duration_s=600.0), lambda p: None
        )
        sim.run(until=sim.now + 50.0)
        assert server.stats.requests_waitlisted >= 1
