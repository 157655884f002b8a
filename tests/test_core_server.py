"""Integration tests for the Sense-Aid server (Algorithm 1)."""

from __future__ import annotations

import pytest

from repro.cellular.enodeb import ENodeB, TowerRegistry
from repro.cellular.network import CellularNetwork
from repro.cellular.packets import TrafficCategory
from repro.clientlib.client import SenseAidClient
from repro.core.config import SenseAidConfig, ServerMode
from repro.core.server import SenseAidServer
from repro.core.tasks import TaskSpec
from repro.devices.sensors import SensorType
from repro.environment.geometry import Point
from repro.environment.mobility import MobilityModel
from repro.sim.engine import Simulator
from tests.conftest import make_device

CENTER = Point(500.0, 500.0)


def make_setup(
    sim,
    n_devices=4,
    mode=ServerMode.COMPLETE,
    *,
    positions=None,
    config=None,
    start_traffic=False,
):
    registry = TowerRegistry([ENodeB("t0", CENTER, coverage_radius_m=5000.0)])
    network = CellularNetwork(sim)
    server_config = config if config is not None else SenseAidConfig(mode=mode)
    server = SenseAidServer(sim, registry, network, server_config)
    devices, clients = [], []
    for i in range(n_devices):
        position = positions[i] if positions else CENTER
        device = make_device(sim, f"d{i}", position=position)
        client = SenseAidClient(sim, device, server, network)
        client.register()
        if start_traffic:
            device.traffic.start()
        devices.append(device)
        clients.append(client)
    return server, network, devices, clients


def make_spec(**kwargs) -> TaskSpec:
    defaults = dict(
        sensor_type=SensorType.BAROMETER,
        center=CENTER,
        area_radius_m=1000.0,
        spatial_density=2,
        sampling_period_s=600.0,
        sampling_duration_s=1800.0,
    )
    defaults.update(kwargs)
    return TaskSpec(**defaults)


class TestRegistration:
    def test_register_populates_datastore(self):
        sim = Simulator()
        server, _, devices, _ = make_setup(sim, n_devices=2)
        assert len(server.devices) == 2
        record = server.devices.record("d0")
        assert record.imei_hash == devices[0].imei_hash
        assert record.energy_budget_j == devices[0].preferences.energy_budget_j

    def test_double_register_rejected(self):
        sim = Simulator()
        _, _, _, clients = make_setup(sim, n_devices=1)
        with pytest.raises(RuntimeError):
            clients[0].register()

    def test_deregister_removes_device(self):
        sim = Simulator()
        server, _, _, clients = make_setup(sim, n_devices=2)
        clients[0].deregister()
        assert len(server.devices) == 1
        assert not clients[0].registered

    def test_deregister_unregistered_rejected(self):
        sim = Simulator()
        _, _, _, clients = make_setup(sim, n_devices=1)
        clients[0].deregister()
        with pytest.raises(RuntimeError):
            clients[0].deregister()

    def test_update_preferences_propagates(self):
        sim = Simulator()
        server, _, devices, clients = make_setup(sim, n_devices=1)
        clients[0].update_preferences(energy_budget_j=100.0, critical_battery_pct=30.0)
        record = server.devices.record("d0")
        assert record.energy_budget_j == 100.0
        assert record.critical_battery_pct == 30.0
        assert devices[0].preferences.energy_budget_j == 100.0


class TestSchedulingWorkflow:
    def test_request_satisfied_end_to_end(self):
        sim = Simulator()
        server, _, _, _ = make_setup(sim, n_devices=4)
        data = []
        server.submit_task(make_spec(sampling_duration_s=600.0), data.append)
        sim.run(until=700.0)
        assert server.stats.requests_issued == 1
        assert server.stats.requests_scheduled == 1
        assert server.stats.requests_satisfied == 1
        assert len(data) == 2  # spatial density

    def test_selects_exactly_spatial_density(self):
        sim = Simulator()
        server, _, _, _ = make_setup(sim, n_devices=6)
        server.submit_task(make_spec(spatial_density=3), lambda p: None)
        sim.run(until=2000.0)
        for event in server.selection_log:
            assert len(event.selected) == 3
            assert len(event.qualified) == 6

    def test_periodic_task_generates_all_requests(self):
        sim = Simulator()
        server, _, _, _ = make_setup(sim, n_devices=3)
        server.submit_task(
            make_spec(sampling_period_s=600.0, sampling_duration_s=3600.0),
            lambda p: None,
        )
        sim.run(until=3700.0)
        assert server.stats.requests_issued == 6

    def test_unsatisfiable_goes_to_wait_queue(self):
        sim = Simulator()
        server, _, _, _ = make_setup(sim, n_devices=1)
        server.submit_task(
            make_spec(spatial_density=3, sampling_duration_s=600.0), lambda p: None
        )
        sim.run(until=50.0)
        assert server.stats.requests_waitlisted == 1
        assert len(server.wait_queue) == 1

    def test_wait_queue_request_expires_at_deadline(self):
        sim = Simulator()
        server, _, _, _ = make_setup(sim, n_devices=1)
        server.submit_task(
            make_spec(spatial_density=3, sampling_duration_s=600.0), lambda p: None
        )
        sim.run(until=700.0)
        assert server.stats.requests_expired == 1
        assert len(server.wait_queue) == 0

    def test_wait_queue_recovers_when_devices_arrive(self):
        sim = Simulator()
        server, network, _, _ = make_setup(sim, n_devices=1)
        server.submit_task(
            make_spec(spatial_density=2, sampling_duration_s=600.0), lambda p: None
        )
        sim.run(until=50.0)
        assert server.stats.requests_waitlisted == 1
        # A second device registers mid-window; the wait checker should
        # pick the request back up before its deadline.
        device = make_device(sim, "late", position=CENTER)
        client = SenseAidClient(sim, device, server, network)
        client.register()
        sim.run(until=590.0)
        assert server.stats.requests_scheduled == 1

    def test_qualification_requires_region(self):
        sim = Simulator()
        positions = [CENTER, CENTER, Point(5000.0, 5000.0)]
        server, _, _, _ = make_setup(sim, n_devices=3, positions=positions)
        spec = make_spec(area_radius_m=500.0)
        request = spec.expand_requests(0.0)[0]
        assert server.qualified_devices(request) == ["d0", "d1"]

    def test_qualification_requires_sensor(self):
        sim = Simulator()
        server, network, _, _ = make_setup(sim, n_devices=2)
        from repro.devices.profiles import profile_by_model

        no_baro = make_device(
            sim, "nobaro", position=CENTER, profile=profile_by_model("Moto E")
        )
        SenseAidClient(sim, no_baro, server, network).register()
        request = make_spec().expand_requests(0.0)[0]
        assert "nobaro" not in server.qualified_devices(request)

    def test_qualification_device_type_restriction(self):
        sim = Simulator()
        server, _, _, _ = make_setup(sim, n_devices=2)
        request = make_spec(device_type="iPhone 6").expand_requests(0.0)[0]
        assert server.qualified_devices(request) == []

    def test_select_all_qualified_mode(self):
        sim = Simulator()
        config = SenseAidConfig(select_all_qualified=True)
        server, _, _, _ = make_setup(sim, n_devices=5, config=config)
        server.submit_task(make_spec(sampling_duration_s=600.0), lambda p: None)
        sim.run(until=590.0)
        assert len(server.selection_log[0].selected) == 5


class _Teleport(MobilityModel):
    """Stands at ``before`` until ``at``, then at ``after`` for good."""

    def __init__(self, before: Point, after: Point, at: float) -> None:
        self._before, self._after, self._at = before, after, at

    def position_at(self, time: float) -> Point:
        return self._before if time < self._at else self._after

    def position_valid_until(self, time: float) -> float:
        return self._at if time < self._at else float("inf")


class TestQualificationMemo:
    """A task's qualified set is reused across instants until a
    position, the membership or the topology changes
    (``server.qualified_devices`` counts computations; the static-fleet
    bound is in ``test_complexity_contract_counter_bounds``)."""

    @staticmethod
    def _computed(sim) -> int:
        return sim.perf.probe("server.qualified_devices").calls

    def test_call_between_rounds_sees_a_move(self):
        """Outside the request path nothing has pulled the edge view, so
        a direct call does not trust the memo: it re-reads positions."""
        sim = Simulator()
        server, network, _, _ = make_setup(sim, n_devices=2)
        mover = make_device(
            sim, "mover", mobility=_Teleport(CENTER, Point(5000.0, 5000.0), 90.0)
        )
        SenseAidClient(sim, mover, server, network).register()
        spec = make_spec(sampling_period_s=60.0, sampling_duration_s=600.0)
        server.submit_task(spec, lambda p: None)
        sim.run(until=100.0)
        assert "mover" in server.selection_log[-1].qualified
        request = spec.expand_requests(0.0)[0]
        assert "mover" not in server.qualified_devices(request)

    def test_recomputed_after_each_change(self):
        """One change between two rounds costs exactly one computation:
        a device moving out of the region, a registration, a
        deregistration, a tower failure and its restore, and a task
        update.  A deleted task's memo goes with it."""
        sim = Simulator()
        server, network, _, clients = make_setup(sim, n_devices=4)
        registry = server._registry
        mover = make_device(
            sim, "mover", mobility=_Teleport(CENTER, Point(5000.0, 5000.0), 90.0)
        )
        SenseAidClient(sim, mover, server, network).register()
        spec = make_spec(sampling_period_s=60.0, sampling_duration_s=1200.0)
        task_id = server.submit_task(spec, lambda p: None)
        late = make_device(sim, "late", position=CENTER)
        sim.schedule_at(210.0, SenseAidClient(sim, late, server, network).register)
        sim.schedule_at(330.0, clients[0].deregister)
        sim.schedule_at(450.0, registry.fail_tower, "t0")
        sim.schedule_at(570.0, registry.restore_tower, "t0")
        sim.schedule_at(690.0, lambda: server.update_task(task_id, spatial_density=3))
        sim.run(until=1000.0)
        # Rounds every 60 s; the update at 690 s re-expands the task
        # from that instant.
        assert self._computed(sim) == 7
        by_time = {event.time: event.qualified for event in server.selection_log}
        assert "mover" in by_time[60.0] and "mover" not in by_time[120.0]
        assert "late" not in by_time[180.0] and "late" in by_time[240.0]
        assert "d0" in by_time[300.0] and "d0" not in by_time[360.0]
        assert all(len(e.selected) == 3 for e in server.selection_log if e.time >= 690.0)

        # A deleted task's memo is dropped: qualifying one of its
        # requests again right after a round (so the view is current)
        # computes, where before the delete it reused.
        request = server.tasks.get(task_id).expand_requests(sim.now)[0]
        counts = []

        def delete_then_qualify():
            server.qualified_devices(request)
            counts.append(self._computed(sim))
            server.delete_task(task_id)
            server.qualified_devices(request)
            counts.append(self._computed(sim))

        # 1050 s is a round of the updated task; this runs after it.
        sim.schedule_at(1050.0, lambda: sim.schedule(0.0, delete_then_qualify))
        sim.run(until=1060.0)
        assert counts == [7, 8]


class TestDataPath:
    def test_data_reaches_application_callback(self):
        sim = Simulator()
        server, _, _, _ = make_setup(sim, n_devices=3)
        points = []
        server.submit_task(make_spec(sampling_duration_s=600.0), points.append)
        sim.run(until=650.0)
        assert len(points) == 2
        for point in points:
            assert point.sensor_type is SensorType.BAROMETER
            assert 850.0 <= point.value <= 1100.0

    def test_application_sees_hashed_identity_only(self):
        sim = Simulator()
        server, _, devices, _ = make_setup(sim, n_devices=2)
        points = []
        server.submit_task(make_spec(sampling_duration_s=600.0), points.append)
        sim.run(until=650.0)
        hashes = {d.imei_hash for d in devices}
        ids = {d.device_id for d in devices}
        for point in points:
            assert point.device_hash in hashes
            assert point.device_hash not in ids

    def test_upload_updates_device_record(self):
        sim = Simulator()
        server, _, _, _ = make_setup(sim, n_devices=2)
        server.submit_task(make_spec(sampling_duration_s=600.0), lambda p: None)
        sim.run(until=650.0)
        record = server.devices.record("d0")
        assert record.last_comm_time is not None
        assert record.energy_used_j > 0

    def test_duplicate_uploads_counted_once(self):
        sim = Simulator()
        server, _, _, clients = make_setup(sim, n_devices=2)
        data = []
        server.submit_task(make_spec(sampling_duration_s=600.0), data.append)
        sim.run(until=650.0)
        before = server.stats.data_points
        # Replays a duplicate payload for an already-satisfied request.
        from repro.cellular.packets import sensor_data_message
        from repro.cellular.network import DeliveryReceipt

        request_id = server.selection_log[0].request_id
        message = sensor_data_message(
            "d0",
            {
                "device_id": "d0",
                "request_id": request_id,
                "value": 1013.0,
                "battery_pct": 90.0,
                "energy_used_j": 1.0,
            },
        )
        receipt = DeliveryReceipt(1, sim.now, sim.now, "path2")
        server.receive_sensed_data(message, receipt)
        assert server.stats.data_points == before

    def test_invalid_value_rejected(self):
        sim = Simulator()
        server, _, _, _ = make_setup(sim, n_devices=2)
        server.submit_task(make_spec(sampling_duration_s=600.0), lambda p: None)
        sim.run(until=650.0)
        from repro.cellular.packets import sensor_data_message
        from repro.cellular.network import DeliveryReceipt

        request_id = server.selection_log[0].request_id
        selected = server.selection_log[0].selected[0]
        message = sensor_data_message(
            selected,
            {
                "device_id": selected,
                "request_id": request_id,
                "value": 5.0,  # implausible pressure
            },
        )
        server.receive_sensed_data(
            message, DeliveryReceipt(1, sim.now, sim.now, "path2")
        )
        assert server.stats.invalid_data == 1
        assert server.devices.record(selected).invalid_data_count == 1


class TestTaskManagement:
    def test_delete_task_retracts_requests(self):
        sim = Simulator()
        server, _, _, _ = make_setup(sim, n_devices=3)
        spec = make_spec(sampling_period_s=600.0, sampling_duration_s=3600.0)
        task_id = server.submit_task(spec, lambda p: None)
        sim.run(until=700.0)
        scheduled_before = server.stats.requests_scheduled
        server.delete_task(task_id)
        sim.run(until=3700.0)
        assert server.stats.requests_scheduled == scheduled_before

    def test_update_task_changes_future_requests(self):
        sim = Simulator()
        server, _, _, _ = make_setup(sim, n_devices=4)
        spec = make_spec(
            spatial_density=2, sampling_period_s=600.0, sampling_duration_s=3600.0
        )
        task_id = server.submit_task(spec, lambda p: None)
        sim.run(until=700.0)
        server.update_task(task_id, spatial_density=3, sampling_duration_s=1200.0)
        sim.run(until=sim.now + 1300.0)
        late_events = [e for e in server.selection_log if e.time > 700.0]
        assert late_events
        assert all(len(e.selected) == 3 for e in late_events)


class TestFairness:
    def test_selection_rotates(self):
        sim = Simulator()
        server, _, _, _ = make_setup(sim, n_devices=6)
        server.submit_task(
            make_spec(
                spatial_density=2,
                sampling_period_s=600.0,
                sampling_duration_s=1800.0,
            ),
            lambda p: None,
        )
        sim.run(until=1900.0)
        counts = server.selections_per_device()
        assert sum(counts.values()) == 6
        assert max(counts.values()) == 1  # 3 rounds × 2 over 6 devices


class TestModes:
    def test_basic_resets_tail_complete_does_not(self):
        basic = SenseAidConfig(mode=ServerMode.BASIC)
        complete = SenseAidConfig(mode=ServerMode.COMPLETE)
        sim = Simulator()
        server_b, _, _, _ = make_setup(sim, n_devices=1, config=basic)
        assert server_b.crowdsensing_resets_tail()
        sim2 = Simulator()
        server_c, _, _, _ = make_setup(sim2, n_devices=1, config=complete)
        assert not server_c.crowdsensing_resets_tail()

    def test_complete_uses_less_energy_than_basic(self):
        def run(mode):
            sim = Simulator(seed=21)
            server, _, devices, _ = make_setup(
                sim, n_devices=4, mode=mode, start_traffic=True
            )
            server.submit_task(
                make_spec(sampling_period_s=600.0, sampling_duration_s=3600.0),
                lambda p: None,
            )
            sim.run(until=3700.0)
            return sum(d.crowdsensing_energy_j() for d in devices)

        assert run(ServerMode.COMPLETE) <= run(ServerMode.BASIC)
