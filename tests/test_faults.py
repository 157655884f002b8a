"""Tests for the chaos layer: `repro.faults` (deterministic fault
injection) and its interaction with towers, the network, and clients."""

from __future__ import annotations

import pytest

from repro.cellular.enodeb import ENodeB, TowerRegistry
from repro.cellular.network import CellularNetwork
from repro.cellular.packets import Message, MessageKind
from repro.clientlib.client import SenseAidClient
from repro.core.config import SenseAidConfig, ServerMode
from repro.core.server import SenseAidServer
from repro.environment.geometry import Point
from repro.faults import FaultInjector, FaultPlan, GilbertElliott
from repro.sim.engine import Simulator
from repro.sim.simlog import structured_log
from tests.conftest import make_device
from tests.test_core_server import CENTER, make_spec


def chaos_setup(
    sim,
    n_devices=4,
    *,
    towers=None,
    retry=None,
    config=None,
    **injector_kwargs,
):
    registry = TowerRegistry(
        towers or [ENodeB("t0", CENTER, coverage_radius_m=5000.0)]
    )
    network = CellularNetwork(sim)
    server = SenseAidServer(
        sim,
        registry,
        network,
        config or SenseAidConfig(mode=ServerMode.COMPLETE),
    )
    injector = FaultInjector(
        sim, network, registry, server=server, **injector_kwargs
    )
    devices, clients = [], []
    for i in range(n_devices):
        device = make_device(sim, f"d{i}", position=CENTER)
        client = SenseAidClient(sim, device, server, network, retry_policy=retry)
        client.register()
        injector.adopt_client(client)
        devices.append(device)
        clients.append(client)
    return server, network, registry, injector, devices, clients


class TestGilbertElliott:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GilbertElliott(p_good_to_bad=1.5)
        with pytest.raises(ValueError):
            GilbertElliott(loss_bad=-0.1)

    def test_burstiness(self):
        """Losses cluster: runs of consecutive losses are much longer
        than an i.i.d. model at the same average rate would produce."""
        import random

        model = GilbertElliott(
            p_good_to_bad=0.05, p_bad_to_good=0.2, loss_good=0.0, loss_bad=1.0
        )
        rng = random.Random(42)
        outcomes = [model.step(rng) for _ in range(5000)]
        loss_rate = sum(outcomes) / len(outcomes)
        assert 0.05 < loss_rate < 0.4
        # Longest loss run under bursty loss far exceeds i.i.d.'s
        # typical maximum at this rate (~4-5 for p=0.2, n=5000).
        longest = run = 0
        for lost in outcomes:
            run = run + 1 if lost else 0
            longest = max(longest, run)
        assert longest >= 8

    def test_steady_state_loss_matches_empirical(self):
        import random

        model = GilbertElliott(
            p_good_to_bad=0.1, p_bad_to_good=0.3, loss_good=0.0, loss_bad=0.8
        )
        expected = model.steady_state_loss()
        rng = random.Random(7)
        outcomes = [model.step(rng) for _ in range(20000)]
        assert abs(sum(outcomes) / len(outcomes) - expected) < 0.03

    def test_deterministic_given_rng(self):
        import random

        def sequence(seed):
            model = GilbertElliott()
            rng = random.Random(seed)
            return [model.step(rng) for _ in range(200)]

        assert sequence(3) == sequence(3)


class TestFaultPlan:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan().add(10.0, "meteor_strike")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan().tower_up(-1.0, "t0")

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan().tower_up(float("nan"), "t0")

    def test_events_sorted_by_time(self):
        plan = FaultPlan().heal(50.0).partition(10.0).tower_up(30.0, "t0")
        assert [e.at for e in plan.events] == [10.0, 30.0, 50.0]

    def test_builders_chain_and_pair(self):
        plan = (
            FaultPlan()
            .tower_down(100.0, "t0", restore_after=50.0)
            .partition(200.0, heal_after=25.0)
        )
        actions = [(e.at, e.action) for e in plan.events]
        assert actions == [
            (100.0, "tower_down"),
            (150.0, "tower_up"),
            (200.0, "partition"),
            (225.0, "heal"),
        ]


class TestBurstyLoss:
    def test_injected_losses_drop_messages(self):
        sim = Simulator(seed=11)
        model = GilbertElliott(
            p_good_to_bad=0.3, p_bad_to_good=0.2, loss_bad=1.0
        )
        _, network, _, injector, devices, _ = chaos_setup(
            sim, n_devices=1, loss_model=model
        )
        delivered = []
        for i in range(30):
            sim.schedule_at(
                i * 60.0,
                lambda: network.uplink(
                    devices[0],
                    Message(MessageKind.APP_TRAFFIC, "d0", 600),
                    on_delivered=lambda m, r: delivered.append(m),
                ),
            )
        sim.run(until=31 * 60.0)
        assert injector.stats.losses_injected > 0
        assert len(delivered) + injector.stats.losses_injected == 30
        assert network.messages_dropped_by_faults == injector.stats.losses_injected

    def test_drops_logged_as_structured_events(self):
        sim = Simulator(seed=11)
        model = GilbertElliott(p_good_to_bad=1.0, loss_bad=1.0)
        _, network, _, injector, devices, _ = chaos_setup(
            sim, n_devices=1, loss_model=model
        )
        network.uplink(devices[0], Message(MessageKind.APP_TRAFFIC, "d0", 600))
        sim.run(until=60.0)
        drops = structured_log(sim).records(kind="fault.drop")
        assert len(drops) == 1
        assert drops[0].fields["reason"] == "burst_loss"


class TestDelayAndDuplication:
    def test_injected_delay_slows_delivery(self):
        def delivery_time(delay_probability):
            sim = Simulator(seed=4)
            _, network, _, _, devices, _ = chaos_setup(
                sim,
                n_devices=1,
                delay_probability=delay_probability,
                delay_range_s=(30.0, 30.0),
            )
            arrivals = []
            network.uplink(
                devices[0],
                Message(MessageKind.APP_TRAFFIC, "d0", 600),
                on_delivered=lambda m, r: arrivals.append(r.delivered_at),
            )
            sim.run(until=100.0)
            return arrivals[0]

        assert delivery_time(1.0) == pytest.approx(delivery_time(0.0) + 30.0)

    def test_duplication_delivers_twice(self):
        sim = Simulator(seed=4)
        _, network, _, injector, devices, _ = chaos_setup(
            sim, n_devices=1, duplicate_probability=1.0, duplicate_lag_s=(5.0, 5.0)
        )
        arrivals = []
        network.uplink(
            devices[0],
            Message(MessageKind.APP_TRAFFIC, "d0", 600),
            on_delivered=lambda m, r: arrivals.append(r.delivered_at),
        )
        sim.run(until=60.0)
        assert len(arrivals) == 2
        assert arrivals[1] == pytest.approx(arrivals[0] + 5.0)
        assert injector.stats.duplicates_injected == 1
        assert network.messages_duplicated == 1

    def test_unequal_delays_reorder_messages(self):
        sim = Simulator(seed=4)
        _, network, _, injector, devices, _ = chaos_setup(sim, n_devices=1)
        plan_order = []
        # First message gets a large injected delay, second none: the
        # second overtakes the first.
        injector._do_set_delay(1.0, (60.0, 60.0))
        network.uplink(
            devices[0],
            Message(MessageKind.APP_TRAFFIC, "d0", 600),
            on_delivered=lambda m, r: plan_order.append("first"),
        )
        sim.run(until=5.0)
        injector._do_set_delay(0.0, (0.0, 0.0))
        network.uplink(
            devices[0],
            Message(MessageKind.APP_TRAFFIC, "d0", 600),
            on_delivered=lambda m, r: plan_order.append("second"),
        )
        sim.run(until=120.0)
        assert plan_order == ["second", "first"]

    def test_nan_delay_range_rejected(self):
        sim = Simulator()
        network = CellularNetwork(sim)
        with pytest.raises(ValueError, match="lo <= hi"):
            FaultInjector(sim, network, delay_range_s=(float("nan"), 1.0))


class TestTowerOutage:
    def two_tower_setup(self, sim, **kwargs):
        towers = [
            ENodeB("west", Point(0.0, 500.0), coverage_radius_m=5000.0),
            ENodeB("east", Point(5000.0, 500.0), coverage_radius_m=5000.0),
        ]
        return chaos_setup(sim, towers=towers, **kwargs)

    def test_failed_tower_drops_traffic_until_restore(self):
        sim = Simulator(seed=2)
        towers = [ENodeB("only", CENTER, coverage_radius_m=5000.0)]
        plan = FaultPlan().tower_down(100.0, "only", restore_after=200.0)
        _, network, registry, injector, devices, _ = chaos_setup(
            sim, n_devices=1, towers=towers, plan=plan
        )
        delivered = []
        for t in (50.0, 150.0, 350.0):
            sim.schedule_at(
                t,
                lambda: network.uplink(
                    devices[0],
                    Message(MessageKind.APP_TRAFFIC, "d0", 600),
                    on_delivered=lambda m, r: delivered.append(sim.now),
                ),
            )
        sim.run(until=400.0)
        # Message at t=150 fell into the outage window.
        assert len(delivered) == 2
        assert injector.stats.outage_drops == 1
        assert injector.stats.tower_failures == 1
        assert injector.stats.tower_restores == 1

    def test_devices_reassociate_to_surviving_tower(self):
        sim = Simulator(seed=2)
        _, network, registry, injector, devices, _ = self.two_tower_setup(
            sim, n_devices=1
        )
        # CENTER=(500, 500) is nearest to "west".
        assert registry.serving_tower("d0").tower_id == "west"
        registry.fail_tower("west")
        assert registry.serving_tower("d0").tower_id == "east"
        registry.restore_tower("west")
        assert registry.serving_tower("d0").tower_id == "west"

    def test_total_outage_keeps_attachment_but_drops(self):
        sim = Simulator(seed=2)
        towers = [ENodeB("only", CENTER, coverage_radius_m=5000.0)]
        _, network, registry, injector, devices, _ = chaos_setup(
            sim, n_devices=1, towers=towers
        )
        registry.fail_tower("only")
        assert registry.serving_tower("d0").tower_id == "only"
        assert not registry.serving_tower_operational("d0")
        assert registry.operational_towers() == []


class TestPartitionAndChurn:
    def test_partition_reroutes_and_heals(self):
        sim = Simulator(seed=2)
        plan = FaultPlan().partition(100.0, heal_after=100.0)
        server, network, _, injector, _, _ = chaos_setup(sim, plan=plan)
        sim.run(until=150.0)
        assert not network.sense_aid_path_available
        assert not server.crashed  # partition is not a crash
        sim.run(until=250.0)
        assert network.sense_aid_path_available
        assert injector.stats.partitions == 1
        assert injector.stats.heals == 1

    def test_kill_device_powers_off_client_and_drops_messages(self):
        sim = Simulator(seed=2)
        plan = FaultPlan().kill_device(100.0, "d0")
        server, network, _, injector, devices, clients = chaos_setup(
            sim, n_devices=2, plan=plan
        )
        sim.run(until=150.0)
        assert not clients[0].powered
        assert injector.is_dead("d0")
        # Its messages die in the network now.
        network.uplink(devices[0], Message(MessageKind.APP_TRAFFIC, "d0", 600))
        sim.run(until=200.0)
        assert injector.stats.dead_device_drops == 1
        # A killed client ignores later assignments.
        server.submit_task(
            make_spec(spatial_density=1, sampling_duration_s=600.0), lambda p: None
        )
        sim.run(until=900.0)
        assert clients[0].stats.assignments_received == 0

    def test_abrupt_deregistration_removes_server_record(self):
        sim = Simulator(seed=2)
        plan = FaultPlan().deregister_device(100.0, "d1")
        server, _, _, injector, _, clients = chaos_setup(
            sim, n_devices=2, plan=plan
        )
        sim.run(until=150.0)
        assert "d1" not in server.devices
        assert injector.stats.devices_deregistered == 1
        # The client believes it is still registered — that is the
        # point of an *abrupt* fault.
        assert clients[1].registered


class TestDeterminismIsolation:
    """Satellite: enabling faults must not perturb the other streams."""

    def world_fingerprint(self, *, with_faults: bool):
        sim = Simulator(seed=99)
        towers = [ENodeB("t0", CENTER, coverage_radius_m=5000.0)]
        registry = TowerRegistry(towers)
        network = CellularNetwork(sim)
        server = SenseAidServer(
            sim, registry, network, SenseAidConfig(mode=ServerMode.COMPLETE)
        )
        if with_faults:
            FaultInjector(
                sim,
                network,
                registry,
                server=server,
                loss_model=GilbertElliott(
                    p_good_to_bad=0.5, p_bad_to_good=0.2, loss_bad=1.0
                ),
                delay_probability=0.5,
                delay_range_s=(1.0, 10.0),
                duplicate_probability=0.3,
            )
        devices = []
        for i in range(4):
            device = make_device(sim, f"d{i}", position=CENTER)
            SenseAidClient(sim, device, server, network).register()
            device.traffic.start()
            devices.append(device)
        server.submit_task(
            make_spec(
                spatial_density=2,
                sampling_period_s=600.0,
                sampling_duration_s=3000.0,
            ),
            lambda p: None,
        )
        sim.run(until=3100.0)
        server.shutdown()
        # Mobility, background traffic, and sensor noise must be
        # byte-identical between the arms: they draw from their own
        # named streams.
        return [
            (
                d.traffic.sessions,
                round(d.position().x, 9),
                round(d.position().y, 9),
            )
            for d in devices
        ]

    def test_same_seed_identical_world_with_and_without_faults(self):
        assert self.world_fingerprint(with_faults=False) == self.world_fingerprint(
            with_faults=True
        )

    def test_network_builtin_loss_uses_dedicated_streams(self):
        """The i.i.d. loss knob draws from network:loss only — traffic
        draws stay identical."""

        def traffic_sessions(loss):
            sim = Simulator(seed=123)
            network = CellularNetwork(sim, loss_probability=loss)
            device = make_device(sim, position=CENTER)
            device.traffic.start()
            for i in range(10):
                sim.schedule_at(
                    i * 30.0,
                    lambda: network.uplink(
                        device, Message(MessageKind.APP_TRAFFIC, "d", 600)
                    ),
                )
            sim.run(until=2000.0)
            return device.traffic.sessions

        assert traffic_sessions(0.0) == traffic_sessions(0.5)

    def test_same_seed_same_fault_decisions(self):
        def loss_count():
            sim = Simulator(seed=31)
            _, network, _, injector, devices, _ = chaos_setup(
                sim,
                n_devices=1,
                loss_model=GilbertElliott(
                    p_good_to_bad=0.3, p_bad_to_good=0.3, loss_bad=0.9
                ),
            )
            for i in range(25):
                sim.schedule_at(
                    i * 60.0,
                    lambda: network.uplink(
                        devices[0], Message(MessageKind.APP_TRAFFIC, "d0", 600)
                    ),
                )
            sim.run(until=26 * 60.0)
            return injector.stats.losses_injected

        assert loss_count() == loss_count()

    def test_double_hook_install_rejected(self):
        sim = Simulator()
        network = CellularNetwork(sim)
        FaultInjector(sim, network)
        with pytest.raises(RuntimeError):
            FaultInjector(sim, network)
