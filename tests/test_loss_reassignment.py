"""Tests for network message loss and deadline reassignment (§8:
failures in the data collection)."""

from __future__ import annotations

import pytest

from repro.cellular.enodeb import ENodeB, TowerRegistry
from repro.cellular.network import CellularNetwork
from repro.cellular.packets import Message, MessageKind
from repro.clientlib.client import SenseAidClient
from repro.core.config import SenseAidConfig, ServerMode
from repro.core.server import SenseAidServer
from repro.sim.engine import Simulator
from tests.conftest import make_device
from tests.test_core_server import CENTER, make_spec


def lossy_setup(sim, n_devices, *, loss, reassign_margin_s=None):
    registry = TowerRegistry([ENodeB("t0", CENTER, coverage_radius_m=5000.0)])
    network = CellularNetwork(sim, loss_probability=loss)
    config = SenseAidConfig(
        mode=ServerMode.COMPLETE,
        reassign_margin_s=reassign_margin_s,
        # Forced uploads must precede the reassignment check.
        deadline_grace_s=(
            reassign_margin_s * 2 if reassign_margin_s is not None else 5.0
        ),
    )
    server = SenseAidServer(sim, registry, network, config)
    devices, clients = [], []
    for i in range(n_devices):
        device = make_device(sim, f"d{i}", position=CENTER)
        client = SenseAidClient(sim, device, server, network)
        client.register()
        devices.append(device)
        clients.append(client)
    return server, network, devices, clients


class TestNetworkLoss:
    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            CellularNetwork(Simulator(), loss_probability=1.0)
        with pytest.raises(ValueError):
            CellularNetwork(Simulator(), loss_probability=-0.1)

    def test_lossless_by_default(self):
        sim = Simulator()
        network = CellularNetwork(sim)
        assert network.loss_probability == 0.0

    def test_losses_counted_and_energy_still_spent(self):
        sim = Simulator(seed=3)
        network = CellularNetwork(sim, loss_probability=0.5)
        device = make_device(sim, position=CENTER)
        delivered = []
        for i in range(20):
            sim.schedule_at(
                i * 60.0,
                lambda: network.uplink(
                    device,
                    Message(MessageKind.APP_TRAFFIC, "d", 600),
                    on_delivered=lambda m, r: delivered.append(m),
                ),
            )
        sim.run(until=20 * 60.0)
        assert network.messages_lost > 0
        assert len(delivered) + network.messages_lost == 20
        # The radio transmitted all 20 regardless of loss.
        assert device.modem.transfers == 20

    def test_loss_is_deterministic_per_seed(self):
        def lost(seed):
            sim = Simulator(seed=seed)
            network = CellularNetwork(sim, loss_probability=0.5)
            device = make_device(sim, position=CENTER)
            for i in range(10):
                sim.schedule_at(
                    i * 60.0,
                    lambda: network.uplink(
                        device, Message(MessageKind.APP_TRAFFIC, "d", 600)
                    ),
                )
            sim.run(until=700.0)
            return network.messages_lost

        assert lost(9) == lost(9)


class TestReassignment:
    def test_lost_uploads_break_requests_without_reassignment(self):
        sim = Simulator(seed=5)
        server, network, _, _ = lossy_setup(sim, 6, loss=0.6)
        server.submit_task(
            make_spec(
                spatial_density=2,
                sampling_period_s=600.0,
                sampling_duration_s=3600.0,
            ),
            lambda p: None,
        )
        sim.run(until=3700.0)
        assert server.stats.requests_satisfied < server.stats.requests_scheduled

    def test_reassignment_recovers_completeness(self):
        def satisfied_fraction(margin):
            sim = Simulator(seed=5)
            server, network, _, _ = lossy_setup(
                sim, 6, loss=0.6, reassign_margin_s=margin
            )
            server.submit_task(
                make_spec(
                    spatial_density=2,
                    sampling_period_s=600.0,
                    sampling_duration_s=3600.0,
                ),
                lambda p: None,
            )
            sim.run(until=3700.0)
            return server.stats.requests_satisfied / server.stats.requests_scheduled

        without = satisfied_fraction(None)
        with_reassign = satisfied_fraction(120.0)
        assert with_reassign > without

    def test_reassignments_counted(self):
        sim = Simulator(seed=5)
        server, _, _, _ = lossy_setup(sim, 6, loss=0.6, reassign_margin_s=120.0)
        server.submit_task(
            make_spec(
                spatial_density=2,
                sampling_period_s=600.0,
                sampling_duration_s=3600.0,
            ),
            lambda p: None,
        )
        sim.run(until=3700.0)
        assert server.stats.reassignments > 0

    def test_no_reassignment_when_all_arrived(self):
        sim = Simulator()
        server, _, _, _ = lossy_setup(sim, 4, loss=0.0, reassign_margin_s=60.0)
        server.submit_task(
            make_spec(spatial_density=2, sampling_duration_s=600.0), lambda p: None
        )
        sim.run(until=700.0)
        assert server.stats.reassignments == 0
        assert server.stats.requests_satisfied == 1

    def test_substitutes_exclude_original_assignees(self):
        sim = Simulator(seed=5)
        server, _, _, _ = lossy_setup(sim, 6, loss=0.6, reassign_margin_s=120.0)
        server.submit_task(
            make_spec(
                spatial_density=2,
                sampling_period_s=600.0,
                sampling_duration_s=1800.0,
            ),
            lambda p: None,
        )
        sim.run(until=1900.0)
        for tracking in server._tracking.values():
            assert len(tracking.assigned) == len(set(tracking.assigned))

    def test_invalid_margin(self):
        with pytest.raises(ValueError):
            SenseAidConfig(reassign_margin_s=0.0)


class TestUnresponsiveStrikes:
    def _run_with_dead_client(self):
        sim = Simulator(seed=5)
        server, network, devices, clients = lossy_setup(
            sim, 3, loss=0.0, reassign_margin_s=60.0
        )
        # d0's client vanishes: assignments reach it but nothing happens.
        server._assignment_handlers["d0"] = lambda assignment: None
        server.submit_task(
            make_spec(
                spatial_density=1,
                sampling_period_s=600.0,
                sampling_duration_s=9 * 600.0,
            ),
            lambda p: None,
        )
        sim.run(until=9 * 600.0 + 60.0)
        return server

    def test_silent_device_struck_out(self):
        server = self._run_with_dead_client()
        record = server.devices.record("d0")
        assert not record.responsive
        # After exclusion, later requests go to the healthy devices.
        late = server.selection_log[-1]
        assert "d0" not in late.selected

    def test_delivery_clears_strikes(self):
        sim = Simulator(seed=5)
        server, network, devices, clients = lossy_setup(
            sim, 2, loss=0.0, reassign_margin_s=60.0
        )
        server.devices.record("d0").missed_deliveries = 2
        server.devices.mark_unresponsive("d1")
        server.submit_task(
            make_spec(spatial_density=1, sampling_duration_s=600.0), lambda p: None
        )
        sim.run(until=700.0)
        assert server.devices.record("d0").missed_deliveries == 0

    def test_margin_must_fit_inside_grace(self):
        with pytest.raises(ValueError):
            SenseAidConfig(deadline_grace_s=5.0, reassign_margin_s=60.0)


class TestReassignmentEdgeCases:
    """The unhappy paths of ``_reassign_missing``: nobody left to draft,
    substitutes that are just as dead, and the check racing a task
    deletion."""

    def _silence(self, server, device_id):
        """Assignments still reach the device but nothing comes back."""
        server._assignment_handlers[device_id] = lambda assignment: None

    def test_no_qualified_substitute_available(self):
        # Every registered device is already assigned, so when one goes
        # silent there is nobody to draft: the check must be a no-op,
        # not a crash, and the request simply fails.
        sim = Simulator(seed=5)
        server, _, _, _ = lossy_setup(sim, 2, loss=0.0, reassign_margin_s=60.0)
        self._silence(server, "d0")
        server.submit_task(
            make_spec(
                spatial_density=2, sampling_period_s=None, sampling_duration_s=None
            ),
            lambda p: None,
        )
        sim.run(until=400.0)
        server.shutdown()
        assert server.stats.reassignments == 0
        assert server.stats.requests_satisfied == 0

    def test_substitute_also_times_out(self):
        # The drafted substitute is no healthier than the original;
        # reassignment happens but the request still fails, and the
        # failure is charged to the request, not raised as an error.
        sim = Simulator(seed=5)
        server, _, _, _ = lossy_setup(sim, 3, loss=0.0, reassign_margin_s=60.0)
        for device_id in ("d0", "d1", "d2"):
            self._silence(server, device_id)
        server.submit_task(
            make_spec(
                spatial_density=1, sampling_period_s=None, sampling_duration_s=None
            ),
            lambda p: None,
        )
        sim.run(until=400.0)
        server.shutdown()
        assert server.stats.reassignments >= 1
        assert server.stats.requests_satisfied == 0
        assert server.stats.data_points == 0

    def test_reassignment_races_task_deletion(self):
        # The task is deleted after the reassignment check was
        # scheduled but before it fires: the check must notice the task
        # is gone and draft nobody.
        sim = Simulator(seed=5)
        server, _, _, _ = lossy_setup(sim, 3, loss=0.0, reassign_margin_s=60.0)
        self._silence(server, "d0")
        self._silence(server, "d1")
        self._silence(server, "d2")
        task_id = server.submit_task(
            make_spec(
                spatial_density=1, sampling_period_s=None, sampling_duration_s=None
            ),
            lambda p: None,
        )
        # One-shot deadline is 120 s, margin 60 s -> check fires at 60.
        sim.schedule_at(30.0, server.delete_task, task_id)
        sim.run(until=400.0)
        server.shutdown()
        assert server.stats.reassignments == 0
