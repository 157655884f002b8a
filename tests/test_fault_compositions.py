"""Composition edges of ``FaultInjector._decide``: what happens when
several fault mechanisms claim the same message or the same instant.

The decision pipeline is ordered — dead device, tower outage, bursty
loss, delay, duplication — and these tests pin the observable
consequences of that order: loss preempts duplication on the same
message, an in-flight delayed message survives its sender's death,
and overload-burst ticks keep landing while the server they target
crashes and restarts mid-burst.
"""

from __future__ import annotations

import pytest

from repro.cellular.packets import Message, MessageKind
from repro.core.config import OverloadPolicy, SenseAidConfig, ServerMode
from repro.faults import FaultPlan, GilbertElliott
from repro.sim.engine import Simulator
from tests.test_faults import chaos_setup


class TestLossVersusDuplication:
    def test_loss_preempts_duplication_on_same_message(self):
        """With certain loss and certain duplication configured, the
        loss wins: a dropped message produces zero deliveries, not a
        surviving duplicate."""
        sim = Simulator(seed=3)
        model = GilbertElliott(
            p_good_to_bad=1.0, p_bad_to_good=0.0, loss_bad=1.0, bad=True
        )
        _, network, _, injector, devices, _ = chaos_setup(
            sim,
            n_devices=1,
            loss_model=model,
            duplicate_probability=1.0,
            duplicate_lag_s=(1.0, 1.0),
        )
        arrivals = []
        network.uplink(
            devices[0],
            Message(MessageKind.APP_TRAFFIC, "d0", 600),
            on_delivered=lambda m, r: arrivals.append(r.delivered_at),
        )
        sim.run(until=60.0)
        assert arrivals == []
        assert injector.stats.losses_injected == 1
        assert injector.stats.duplicates_injected == 0
        assert network.messages_duplicated == 0

    def test_delay_and_duplication_compose_when_nothing_drops(self):
        """Without loss in the way, one message with both knobs at 1.0
        yields the delayed original plus its lagged copy."""
        sim = Simulator(seed=3)
        _, network, _, injector, devices, _ = chaos_setup(
            sim,
            n_devices=1,
            plan=FaultPlan().set_delay(
                0.0, probability=1.0, delay_range_s=(10.0, 10.0)
            ),
            duplicate_probability=1.0,
            duplicate_lag_s=(5.0, 5.0),
        )
        arrivals = []
        network.uplink(
            devices[0],
            Message(MessageKind.APP_TRAFFIC, "d0", 600),
            on_delivered=lambda m, r: arrivals.append(r.delivered_at),
        )
        sim.run(until=60.0)
        assert len(arrivals) == 2
        assert injector.stats.delays_injected == 1
        assert injector.stats.duplicates_injected == 1


class TestDeathMidFlight:
    def test_delayed_message_survives_sender_death(self):
        """The fault decision is taken at transmission time: a message
        already in (delayed) flight still delivers even though its
        device is killed before the delivery instant — and the dead
        device's *next* message is dropped at the hook."""
        sim = Simulator(seed=5)
        plan = (
            FaultPlan()
            .set_delay(0.0, probability=1.0, delay_range_s=(30.0, 30.0))
            .kill_device(10.0, "d0")
        )
        _, network, _, injector, devices, _ = chaos_setup(sim, n_devices=1, plan=plan)
        arrivals = []

        def send():
            network.uplink(
                devices[0],
                Message(MessageKind.APP_TRAFFIC, "d0", 600),
                on_delivered=lambda m, r: arrivals.append(r.delivered_at),
            )

        send()  # in flight (delayed past the kill) at t=0
        sim.schedule_at(20.0, send)  # sent after death: dropped
        sim.run(until=120.0)
        assert len(arrivals) == 1
        assert arrivals[0] > 10.0  # delivered after the device died
        assert injector.stats.dead_device_drops == 1
        assert injector.is_dead("d0")


class TestBurstRacingCrash:
    def test_burst_ticks_survive_mid_burst_server_crash(self):
        """An overload burst straddling a server crash+restart keeps
        ticking: every scheduled request lands in the admission
        controller without raising, through crash and recovery."""
        sim = Simulator(seed=9)
        plan = (
            FaultPlan()
            .overload_burst(10.0, rate_per_s=50.0, duration_s=4.0)
            .server_crash(12.0)
            .server_restart(14.0)
        )
        server, _, _, injector, _, _ = chaos_setup(
            sim,
            n_devices=1,
            plan=plan,
            config=SenseAidConfig(
                mode=ServerMode.COMPLETE, overload=OverloadPolicy()
            ),
        )
        sim.run(until=60.0)
        assert injector.stats.overload_bursts == 1
        assert injector.stats.burst_requests == 200  # 50/s x 4s, none lost
        assert injector.stats.server_crashes == 1
        assert injector.stats.server_restarts == 1
        assert not server.crashed
        admission = server.admission
        assert admission is not None
        assert (
            admission.stats.total_admitted + admission.stats.total_shed
            >= injector.stats.burst_requests
        )

    def test_two_bursts_race_without_interference(self):
        """Two overlapping bursts of different classes simply sum."""
        sim = Simulator(seed=9)
        plan = (
            FaultPlan()
            .overload_burst(10.0, rate_per_s=40.0, duration_s=5.0)
            .overload_burst(
                12.0, rate_per_s=20.0, duration_s=5.0, request_class="upload"
            )
        )
        _, _, _, injector, _, _ = chaos_setup(
            sim,
            n_devices=1,
            plan=plan,
            config=SenseAidConfig(
                mode=ServerMode.COMPLETE, overload=OverloadPolicy()
            ),
        )
        sim.run(until=60.0)
        assert injector.stats.overload_bursts == 2
        assert injector.stats.burst_requests == 300
