"""Tests for client upload retries, acks, backoff, and the
retry/idempotency policies in the config layer."""

from __future__ import annotations

import pytest

from repro.cellular.enodeb import ENodeB, TowerRegistry
from repro.cellular.network import CellularNetwork
from repro.cellular.packets import TrafficCategory
from repro.clientlib.client import SenseAidClient
from repro.core.config import (
    BACKOFF_MAX_S,
    RETRY_AFTER_CAP_S,
    RetryPolicy,
    SenseAidConfig,
    ServerMode,
)
from repro.core.server import SenseAidServer
from repro.faults import FaultInjector, FaultPlan, GilbertElliott, reset_global_ids
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


def retry_setup(
    sim,
    n_devices=2,
    *,
    retry=RETRY,
    plan=None,
    loss_model=None,
    duplicate_probability=0.0,
    config=None,
):
    registry = TowerRegistry([ENodeB("t0", CENTER, coverage_radius_m=5000.0)])
    network = CellularNetwork(sim)
    server = SenseAidServer(
        sim,
        registry,
        network,
        config or SenseAidConfig(mode=ServerMode.COMPLETE, deadline_grace_s=60.0),
    )
    injector = None
    if plan is not None or loss_model is not None or duplicate_probability:
        injector = FaultInjector(
            sim,
            network,
            registry,
            server=server,
            plan=plan,
            loss_model=loss_model,
            duplicate_probability=duplicate_probability,
        )
    devices, clients = [], []
    for i in range(n_devices):
        device = make_device(sim, f"d{i}", position=CENTER)
        client = SenseAidClient(sim, device, server, network, retry_policy=retry)
        client.register()
        if injector is not None:
            injector.adopt_client(client)
        devices.append(device)
        clients.append(client)
    return server, network, injector, devices, clients


class TestRetryPolicyConfig:
    def test_defaults_valid(self):
        RetryPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"ack_timeout_s": 0.0},
            {"backoff_base_s": -1.0},
            {"backoff_multiplier": 0.5},
            {"jitter_fraction": 1.0},
            {"tail_wait_max_s": -1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_backoff_schedule(self):
        policy = RetryPolicy(backoff_base_s=10.0, backoff_multiplier=2.0)
        assert policy.backoff_s(1) == 10.0
        assert policy.backoff_s(2) == 20.0
        assert policy.backoff_s(6) == BACKOFF_MAX_S  # 320 s, capped
        with pytest.raises(ValueError):
            policy.backoff_s(0)


class TestRetryHintClamps:
    """Satellite: hostile or buggy Retry-After hints and pathological
    backoff parameters must not wedge or overflow the retry schedule."""

    POLICY = RetryPolicy(backoff_base_s=10.0, backoff_multiplier=2.0)

    @pytest.mark.parametrize(
        "hint", [0.0, -1.0, -1e18, float("nan"), float("-inf"), None, "soon"]
    )
    def test_useless_hints_fall_back_to_backoff(self, hint):
        # A zero, negative, non-finite, or non-numeric hint is treated
        # as absent: the client's own backoff schedule governs.
        assert self.POLICY.shed_delay_s(1, hint) == 10.0
        assert self.POLICY.shed_delay_s(3, hint) == 40.0

    def test_honest_hint_wins_when_longer(self):
        assert self.POLICY.shed_delay_s(1, 25.0) == 25.0

    def test_backoff_wins_when_hint_shorter(self):
        assert self.POLICY.shed_delay_s(3, 25.0) == 40.0

    def test_huge_hint_clamped_to_cap(self):
        assert self.POLICY.shed_delay_s(1, 1e18) == RETRY_AFTER_CAP_S
        assert self.POLICY.shed_delay_s(1, float("inf")) == 10.0  # non-finite

    def test_huge_attempt_numbers_do_not_overflow(self):
        # 2.0 ** 10_000 would raise OverflowError if evaluated naively.
        assert self.POLICY.backoff_s(10_001) == BACKOFF_MAX_S
        assert self.POLICY.shed_delay_s(10_001, 0.0) == BACKOFF_MAX_S

    def test_extreme_multiplier_saturates_at_cap(self):
        policy = RetryPolicy(backoff_base_s=1.0, backoff_multiplier=1e300)
        assert policy.backoff_s(1) == 1.0
        for attempt in (2, 3, 50):
            assert policy.backoff_s(attempt) == BACKOFF_MAX_S

    def test_multiplier_of_one_is_flat(self):
        policy = RetryPolicy(backoff_base_s=7.0, backoff_multiplier=1.0)
        assert [policy.backoff_s(a) for a in (1, 2, 9999)] == [7.0, 7.0, 7.0]

    def test_base_at_or_above_max_pins_to_max(self):
        policy = RetryPolicy(backoff_base_s=400.0, backoff_multiplier=2.0)
        assert policy.backoff_s(1) == BACKOFF_MAX_S
        assert policy.backoff_s(100) == BACKOFF_MAX_S


class TestReassignmentMode:
    """Satellite: reassignment off is an explicit, documented mode."""

    def test_none_means_disabled(self):
        config = SenseAidConfig()
        assert config.reassign_margin_s is None
        assert not config.reassignment_enabled

    def test_positive_margin_enables(self):
        config = SenseAidConfig(deadline_grace_s=240.0, reassign_margin_s=120.0)
        assert config.reassignment_enabled

    def test_zero_margin_rejected_with_pointer_to_none(self):
        with pytest.raises(ValueError, match="pass None"):
            SenseAidConfig(reassign_margin_s=0.0)

    def test_bool_and_garbage_rejected(self):
        with pytest.raises(TypeError):
            SenseAidConfig(reassign_margin_s=True)
        with pytest.raises(TypeError):
            SenseAidConfig(reassign_margin_s="120")


class TestAcksAndRetries:
    def test_clean_network_acks_without_retries(self):
        sim = Simulator(seed=1)
        server, _, _, _, clients = retry_setup(sim, n_devices=2)
        server.submit_task(
            make_spec(spatial_density=2, sampling_duration_s=600.0), lambda p: None
        )
        sim.run(until=800.0)
        total_acked = sum(c.stats.uploads_acked for c in clients)
        total_retried = sum(c.stats.uploads_retried for c in clients)
        assert total_acked == 2
        assert total_retried == 0
        assert all(c.inflight_count == 0 for c in clients)
        assert server.stats.requests_satisfied == 1
        assert server.stats.duplicate_uploads == 0

    def test_retry_recovers_lost_upload(self):
        """Total loss for the first 10 minutes, then a clean network:
        without retries the request fails, with them it completes."""

        def satisfied(retry):
            sim = Simulator(seed=1)
            plan = FaultPlan().set_loss_model(
                0.0, GilbertElliott(p_good_to_bad=1.0, p_bad_to_good=0.0, loss_bad=1.0)
            ).clear_loss_model(600.0)
            server, _, _, _, _ = retry_setup(
                sim,
                n_devices=2,
                retry=retry,
                plan=plan,
                config=SenseAidConfig(mode=ServerMode.COMPLETE, deadline_grace_s=60.0),
            )
            server.submit_task(
                make_spec(
                    spatial_density=2,
                    sampling_period_s=None,
                    sampling_duration_s=None,
                ),
                lambda p: None,
            )
            sim.run(until=3600.0)
            server.shutdown()
            return server.stats.requests_satisfied

        patient = RetryPolicy(
            max_attempts=8,
            ack_timeout_s=20.0,
            backoff_base_s=30.0,
            backoff_multiplier=2.0,
            jitter_fraction=0.0,
            tail_wait_max_s=30.0,
        )
        assert satisfied(retry=None) == 0
        assert satisfied(retry=patient) == 1

    def test_abandons_after_max_attempts(self):
        sim = Simulator(seed=1)
        server, _, _, _, clients = retry_setup(
            sim,
            n_devices=1,
            loss_model=GilbertElliott(
                p_good_to_bad=1.0, p_bad_to_good=0.0, loss_bad=1.0
            ),
            config=SenseAidConfig(mode=ServerMode.COMPLETE, deadline_grace_s=60.0),
        )
        server.submit_task(
            make_spec(
                spatial_density=1, sampling_period_s=None, sampling_duration_s=None
            ),
            lambda p: None,
        )
        sim.run(until=4000.0)
        client = clients[0]
        assert client.stats.uploads_abandoned == 1
        assert client.stats.uploads_retried == RETRY.max_attempts - 1
        assert client.inflight_count == 0
        assert server.stats.data_points == 0
        abandoned = structured_log(sim).records(kind="upload_abandoned")
        assert len(abandoned) == 1
        assert abandoned[0].fields["attempts"] == RETRY.max_attempts

    def test_duplicates_acked_but_counted_once(self):
        sim = Simulator(seed=1)
        received = []
        server, _, _, _, clients = retry_setup(
            sim, n_devices=1, duplicate_probability=1.0
        )
        server.submit_task(
            make_spec(spatial_density=1, sampling_duration_s=600.0),
            received.append,
        )
        sim.run(until=900.0)
        assert server.stats.data_points == 1
        assert server.stats.duplicate_uploads >= 1
        assert len(received) == 1  # the application saw exactly one point
        assert clients[0].stats.uploads_acked == 1
        assert clients[0].inflight_count == 0
        dedups = structured_log(sim).records(kind="dedup")
        assert len(dedups) == server.stats.duplicate_uploads

    def test_retry_reuses_reading_and_upload_id(self):
        """Retransmissions are idempotent replicas: same upload_id, same
        value, bumped attempt counter."""
        sim = Simulator(seed=1)
        seen = []
        server, network, _, _, clients = retry_setup(
            sim,
            n_devices=1,
            retry=RetryPolicy(
                max_attempts=8,
                ack_timeout_s=20.0,
                backoff_base_s=30.0,
                backoff_multiplier=2.0,
                jitter_fraction=0.0,
                tail_wait_max_s=30.0,
            ),
            plan=FaultPlan()
            .set_loss_model(
                0.0, GilbertElliott(p_good_to_bad=1.0, p_bad_to_good=0.0, loss_bad=1.0)
            )
            .clear_loss_model(500.0),
            config=SenseAidConfig(mode=ServerMode.COMPLETE, deadline_grace_s=60.0),
        )
        original_receive = server.receive_sensed_data

        def spy(message, receipt):
            seen.append(dict(message.payload))
            original_receive(message, receipt)

        server.receive_sensed_data = spy
        server.submit_task(
            make_spec(
                spatial_density=1, sampling_period_s=None, sampling_duration_s=None
            ),
            lambda p: None,
        )
        sim.run(until=2000.0)
        assert len(seen) >= 1
        assert clients[0].stats.uploads_retried >= 1
        first = seen[0]
        assert first["upload_id"] == f"d0:{first['request_id']}"
        assert first["attempt"] >= 2  # earlier attempts died in the network

    def test_deterministic_jitter_same_seed_same_schedule(self):
        def signature():
            reset_global_ids()  # task/message ids are process-global
            sim = Simulator(seed=77)
            server, _, _, _, _ = retry_setup(
                sim,
                n_devices=2,
                retry=RetryPolicy(
                    max_attempts=5,
                    ack_timeout_s=20.0,
                    backoff_base_s=15.0,
                    jitter_fraction=0.5,
                    tail_wait_max_s=30.0,
                ),
                loss_model=GilbertElliott(
                    p_good_to_bad=0.5, p_bad_to_good=0.3, loss_bad=1.0
                ),
            )
            server.submit_task(
                make_spec(
                    spatial_density=2,
                    sampling_period_s=600.0,
                    sampling_duration_s=1800.0,
                ),
                lambda p: None,
            )
            sim.run(until=2500.0)
            server.shutdown()
            return structured_log(sim).signature()

        assert signature() == signature()

    def test_tail_aware_retry_waits_for_connected_window(self):
        sim = Simulator(seed=1)
        server, _, _, devices, clients = retry_setup(
            sim,
            n_devices=1,
            plan=FaultPlan()
            .set_loss_model(
                0.0, GilbertElliott(p_good_to_bad=1.0, p_bad_to_good=0.0, loss_bad=1.0)
            )
            .clear_loss_model(400.0),
            retry=RetryPolicy(
                max_attempts=6,
                ack_timeout_s=20.0,
                backoff_base_s=30.0,
                jitter_fraction=0.0,
                tail_wait_max_s=600.0,  # patient: prefers a tail
            ),
            config=SenseAidConfig(mode=ServerMode.COMPLETE, deadline_grace_s=60.0),
        )
        server.submit_task(
            make_spec(
                spatial_density=1, sampling_period_s=None, sampling_duration_s=None
            ),
            lambda p: None,
        )
        # A user-traffic burst at t=450 opens a tail after the network
        # healed; the deferred retry should ride it.
        sim.schedule_at(
            450.0,
            lambda: devices[0].modem.transmit(5000, TrafficCategory.BACKGROUND),
        )
        sim.run(until=1200.0)
        assert clients[0].stats.retries_in_tail >= 1
        assert clients[0].stats.uploads_acked == 1
        assert server.stats.data_points == 1
