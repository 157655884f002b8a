"""Tests for overload control: the bounded admission queue, priority
shedding, the circuit breaker, Retry-After hints, and the client side
honoring them."""

from __future__ import annotations

import pytest

from repro.cellular.enodeb import ENodeB, TowerRegistry
from repro.cellular.network import CellularNetwork
from repro.clientlib.client import SenseAidClient
from repro.core.config import (
    OverloadPolicy,
    RetryPolicy,
    SenseAidConfig,
    ServerMode,
)
from repro.core.overload import (
    BREAKER_COOLDOWN_S,
    AdmissionController,
    RequestClass,
    ServerOverloadedError,
)
from repro.core.server import SenseAidServer
from repro.faults import FaultInjector, FaultPlan
from repro.sim.engine import Simulator
from repro.sim.simlog import structured_log
from tests.conftest import make_device
from tests.test_core_server import CENTER, make_spec

RETRY = RetryPolicy(
    max_attempts=4,
    ack_timeout_s=20.0,
    backoff_base_s=10.0,
    backoff_multiplier=2.0,
    jitter_fraction=0.0,
    tail_wait_max_s=30.0,
)


def overload_setup(sim, policy, n_devices=2, *, retry=RETRY, plan=None):
    registry = TowerRegistry([ENodeB("t0", CENTER, coverage_radius_m=5000.0)])
    network = CellularNetwork(sim)
    server = SenseAidServer(
        sim,
        registry,
        network,
        SenseAidConfig(
            mode=ServerMode.COMPLETE, deadline_grace_s=60.0, overload=policy
        ),
    )
    injector = None
    if plan is not None:
        injector = FaultInjector(sim, network, registry, server=server, plan=plan)
    clients = []
    for i in range(n_devices):
        device = make_device(sim, f"d{i}", position=CENTER)
        client = SenseAidClient(sim, device, server, network, retry_policy=retry)
        client.register()
        if injector is not None:
            injector.adopt_client(client)
        clients.append(client)
    return server, network, injector, clients


class TestOverloadPolicyConfig:
    def test_defaults_valid(self):
        OverloadPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"queue_capacity": 0},
            {"service_rate_per_s": 0.0},
            {"retry_after_base_s": -1.0},
            {"breaker_threshold": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            OverloadPolicy(**kwargs)


def make_controller(sim, **overrides):
    params = dict(
        queue_capacity=8,
        service_rate_per_s=1.0,
        retry_after_base_s=2.0,
        breaker_threshold=100,
    )
    params.update(overrides)
    return AdmissionController(sim, OverloadPolicy(**params))


class TestAdmissionController:
    def test_priority_thresholds(self):
        ctrl = make_controller(Simulator(seed=1))
        # Queries are refused first (threshold 8 * 0.5 = 4) ...
        for _ in range(4):
            assert ctrl.admit(RequestClass.QUERY).admitted
        assert not ctrl.admit(RequestClass.QUERY).admitted
        # ... uploads survive until 8 * 0.75 = 6 ...
        assert ctrl.admit(RequestClass.UPLOAD).admitted
        assert ctrl.admit(RequestClass.UPLOAD).admitted
        assert not ctrl.admit(RequestClass.UPLOAD).admitted
        # ... and registrations only fail once the queue is full.
        assert ctrl.admit(RequestClass.REGISTRATION).admitted
        assert ctrl.admit(RequestClass.REGISTRATION).admitted
        decision = ctrl.admit(RequestClass.REGISTRATION)
        assert not decision.admitted
        assert decision.reason == "queue_full"
        assert ctrl.stats.shed["registration"] == 1

    def test_queue_depth_is_bounded_by_capacity(self):
        ctrl = make_controller(Simulator(seed=1))
        for _ in range(50):
            ctrl.admit(RequestClass.REGISTRATION)
        assert ctrl.stats.max_queue_depth <= ctrl.policy.queue_capacity
        assert ctrl.queue_depth <= ctrl.policy.queue_capacity

    def test_fluid_drain_reopens_admission(self):
        sim = Simulator(seed=1)
        ctrl = make_controller(sim)
        for _ in range(4):
            ctrl.admit(RequestClass.QUERY)
        assert not ctrl.admit(RequestClass.QUERY).admitted
        sim.run(until=2.0)  # drains 2 requests at 1/s
        assert ctrl.queue_depth == pytest.approx(2.0)
        assert ctrl.admit(RequestClass.QUERY).admitted

    def test_retry_after_scales_with_overshoot(self):
        ctrl = make_controller(Simulator(seed=1))
        for _ in range(4):
            ctrl.admit(RequestClass.QUERY)
        first = ctrl.admit(RequestClass.QUERY)
        # Overshoot of 1 over the class threshold at 1/s, plus base.
        assert first.retry_after_s == pytest.approx(2.0 + 1.0)
        for _ in range(2):
            ctrl.admit(RequestClass.UPLOAD)
        deeper = ctrl.admit(RequestClass.QUERY)
        assert deeper.retry_after_s > first.retry_after_s

    def test_breaker_opens_after_consecutive_sheds(self):
        sim = Simulator(seed=1)
        ctrl = make_controller(sim, breaker_threshold=3)
        for _ in range(4):
            ctrl.admit(RequestClass.QUERY)
        for _ in range(3):
            assert not ctrl.admit(RequestClass.QUERY).admitted
        assert ctrl.breaker_open
        assert ctrl.stats.breaker_opens == 1
        rejected = ctrl.admit(RequestClass.UPLOAD)
        assert not rejected.admitted
        assert rejected.reason == "breaker_open"
        # The hint is the remaining cooldown.
        assert rejected.retry_after_s == pytest.approx(BREAKER_COOLDOWN_S)
        assert ctrl.stats.breaker_rejects == 1
        # Registrations pass the breaker (shed only on a full queue).
        assert ctrl.admit(RequestClass.REGISTRATION).admitted

    def test_breaker_closes_after_cooldown(self):
        sim = Simulator(seed=1)
        ctrl = make_controller(sim, breaker_threshold=3)
        for _ in range(4):
            ctrl.admit(RequestClass.QUERY)
        for _ in range(3):
            ctrl.admit(RequestClass.QUERY)
        assert ctrl.breaker_open
        sim.run(until=BREAKER_COOLDOWN_S + 1.0)
        assert not ctrl.breaker_open
        assert ctrl.admit(RequestClass.QUERY).admitted  # queue drained too

    def test_admission_resets_consecutive_shed_count(self):
        sim = Simulator(seed=1)
        ctrl = make_controller(sim, breaker_threshold=3)
        for _ in range(4):
            ctrl.admit(RequestClass.QUERY)
        ctrl.admit(RequestClass.QUERY)  # shed 1
        ctrl.admit(RequestClass.QUERY)  # shed 2
        ctrl.admit(RequestClass.UPLOAD)  # admitted: streak broken
        ctrl.admit(RequestClass.QUERY)  # shed 1 again
        assert not ctrl.breaker_open


class TestRetryPolicyShedDelay:
    def test_hint_dominates_when_larger(self):
        assert RETRY.shed_delay_s(1, 25.0) == 25.0

    def test_backoff_dominates_when_hint_small(self):
        # attempt 2 backoff = 20s > 5s hint
        assert RETRY.shed_delay_s(2, 5.0) == 20.0

    def test_negative_hint_clamped(self):
        assert RETRY.shed_delay_s(1, -3.0) == RETRY.backoff_s(1)


BURST_POLICY = OverloadPolicy(
    queue_capacity=16,
    service_rate_per_s=2.0,
    retry_after_base_s=2.0,
    breaker_threshold=10_000,  # keep the breaker out of this scenario
)


class TestOverloadBurstIntegration:
    def test_burst_sheds_by_priority_and_clients_recover(self, tmp_path):
        sim = Simulator(seed=71)
        # Clients hold uploads for the pre-deadline flush at ~t=540
        # (round-0 deadline 600 minus the 60s grace); the burst brackets
        # that window so real uploads contend with the synthetic flood.
        plan = FaultPlan().overload_burst(
            535.0, rate_per_s=40.0, duration_s=20.0, request_class="upload"
        )
        server, _, injector, clients = overload_setup(
            sim, BURST_POLICY, plan=plan
        )
        collected = []
        server.submit_task(
            make_spec(spatial_density=2, sampling_duration_s=1800.0),
            collected.append,
        )
        sim.run(until=1250.0)
        stats = server.admission.stats
        assert injector.stats.overload_bursts == 1
        assert injector.stats.burst_requests == 800
        # Priority order: uploads were shed, registrations never were.
        assert stats.shed["upload"] > 0
        assert stats.shed["registration"] == 0
        assert server.stats.registrations_shed == 0
        # The queue never grew past its bound.
        assert stats.max_queue_depth <= BURST_POLICY.queue_capacity
        # Real client uploads were among the shed ones, backed off per
        # the Retry-After hint, and eventually landed.
        assert server.stats.uploads_shed > 0
        assert sum(c.stats.uploads_shed for c in clients) > 0
        assert sum(c.stats.uploads_abandoned for c in clients) == 0
        # Both the round flushed mid-burst (t=540) and the following
        # round completed despite the shedding.
        assert server.stats.data_points >= 4
        assert server.stats.requests_satisfied == 2
        assert collected
        log = structured_log(sim)
        assert log.records(kind="overload.shed")
        assert log.records(kind="upload_shed")

    def test_shed_registration_is_deferred_and_retried(self):
        sim = Simulator(seed=73)
        policy = OverloadPolicy(
            queue_capacity=4,
            service_rate_per_s=0.5,
            retry_after_base_s=2.0,
            breaker_threshold=10_000,
        )
        server, network, _, _ = overload_setup(sim, policy, n_devices=0)
        for _ in range(4):
            server.admission.admit(RequestClass.REGISTRATION)  # fill the queue
        client = SenseAidClient(
            sim, make_device(sim, "late", position=CENTER), server, network,
            retry_policy=RETRY,
        )
        client.register()
        assert not client.registered
        assert client.stats.registrations_deferred == 1
        assert "late" not in server.devices
        sim.run(until=30.0)  # queue drains; deferred retry fires
        assert client.registered
        assert "late" in server.devices
        server.shutdown()

    def test_register_device_raises_when_shed(self):
        sim = Simulator(seed=75)
        policy = OverloadPolicy(
            queue_capacity=2, service_rate_per_s=0.5, breaker_threshold=10_000
        )
        server, _, _, _ = overload_setup(sim, policy, n_devices=0)
        for _ in range(2):
            server.admission.admit(RequestClass.REGISTRATION)
        device = make_device(sim, "d9", position=CENTER)
        with pytest.raises(ServerOverloadedError) as excinfo:
            server.register_device(device, lambda a: None)
        assert excinfo.value.retry_after_s > 0
        assert server.stats.registrations_shed == 1
        server.shutdown()

    def test_breaker_opens_under_sustained_burst(self):
        sim = Simulator(seed=77)
        policy = OverloadPolicy(
            queue_capacity=8,
            service_rate_per_s=1.0,
            retry_after_base_s=1.0,
            breaker_threshold=5,
        )
        plan = FaultPlan().overload_burst(
            10.0, rate_per_s=20.0, duration_s=5.0, request_class="query"
        )
        server, _, injector, _ = overload_setup(
            sim, policy, n_devices=0, plan=plan
        )
        sim.run(until=40.0)
        stats = server.admission.stats
        assert stats.breaker_opens >= 1
        assert stats.breaker_rejects > 0
        assert structured_log(sim).records(kind="overload.breaker_open")
        server.shutdown()

    def test_plan_builder_validates_burst_parameters(self):
        with pytest.raises(ValueError):
            FaultPlan().overload_burst(0.0, rate_per_s=0.0, duration_s=1.0)
        with pytest.raises(ValueError):
            FaultPlan().overload_burst(0.0, rate_per_s=1.0, duration_s=0.0)

    def test_burst_requires_overload_policy(self):
        sim = Simulator(seed=79)
        registry = TowerRegistry([ENodeB("t0", CENTER, coverage_radius_m=5000.0)])
        network = CellularNetwork(sim)
        server = SenseAidServer(sim, registry, network)  # no overload config
        plan = FaultPlan().overload_burst(1.0, rate_per_s=5.0, duration_s=1.0)
        FaultInjector(sim, network, registry, server=server, plan=plan)
        with pytest.raises(RuntimeError, match="OverloadPolicy"):
            sim.run(until=2.0)
        server.shutdown()
