"""Tests for the self-healing sharded control plane."""

from __future__ import annotations

import logging
import os

import pytest

from repro.cellular.network import CellularNetwork
from repro.clientlib import SenseAidClient
from repro.core.config import (
    OverloadPolicy,
    RetryPolicy,
    SelectorWeights,
    SenseAidConfig,
    ServerMode,
)
from repro.core.overload import RequestClass
from repro.core.sharding import (
    ConsistentHashRing,
    NearestSite,
    PhiAccrualFailureDetector,
    ShardSpec,
    ShardedSenseAid,
)
from repro.core.tasks import TaskSpec
from repro.devices.sensors import SensorType
from repro.environment.campus import CS_DEPARTMENT, UNIVERSITY_GYM, default_campus
from repro.environment.geometry import Point
from repro.environment.population import PopulationConfig, build_population
from repro.sim.engine import Simulator
from tests.conftest import make_device

S1 = Point(500.0, 500.0)
S2 = Point(1500.0, 500.0)
S3 = Point(2500.0, 500.0)
CENTER = Point(1500.0, 500.0)

RETRY = RetryPolicy(
    max_attempts=5,
    ack_timeout_s=20.0,
    backoff_base_s=5.0,
    backoff_multiplier=2.0,
    jitter_fraction=0.0,
    tail_wait_max_s=20.0,
)

#: Fairness-dominant weights: selection depends only on the durable
#: times-selected counters, so recovered shards re-converge exactly.
FAIR = SelectorWeights(alpha=0.0, beta=1.0, gamma=0.0, phi=0.0)


def make_config(**kwargs) -> SenseAidConfig:
    kwargs.setdefault("mode", ServerMode.COMPLETE)
    kwargs.setdefault("weights", FAIR)
    return SenseAidConfig(**kwargs)


def make_fleet(
    sim,
    *,
    wal_root=None,
    detect=True,
    heartbeat_period_s=5.0,
    redirect_latency_s=0.05,
    config=None,
):
    network = CellularNetwork(sim)
    fleet = ShardedSenseAid(
        sim,
        network,
        [ShardSpec("s1", S1), ShardSpec("s2", S2), ShardSpec("s3", S3)],
        config if config is not None else make_config(),
        wal_root=wal_root,
        heartbeat_period_s=heartbeat_period_s,
        # phi never exceeds its cap: a test drives fail_over by hand.
        phi_threshold=8.0 if detect else PhiAccrualFailureDetector.PHI_CAP,
        min_std_s=heartbeat_period_s / 10.0,
        redirect_latency_s=redirect_latency_s,
    )
    return network, fleet


def add_client(sim, network, fleet, device_id, *, position=CENTER, retry=True):
    device = make_device(sim, device_id, position=position)
    client = SenseAidClient(
        sim,
        device,
        fleet.instance(fleet.shard_ids()[0]),
        network,
        retry_policy=RETRY if retry else None,
    )
    fleet.register(client)
    return client


def add_fleet_clients(sim, network, fleet, count=9):
    return {
        f"d{i:02d}": add_client(sim, network, fleet, f"d{i:02d}")
        for i in range(count)
    }


def make_task(**kwargs) -> TaskSpec:
    defaults = dict(
        sensor_type=SensorType.BAROMETER,
        center=CENTER,
        area_radius_m=2000.0,
        spatial_density=3,
        sampling_period_s=60.0,
        start_time=0.0,
        end_time=600.0,
    )
    defaults.update(kwargs)
    return TaskSpec(**defaults)


class TestRing:
    def test_owner_is_deterministic_across_instances(self):
        a = ConsistentHashRing(["s1", "s2", "s3"])
        b = ConsistentHashRing(["s1", "s2", "s3"])
        for key in (f"d{i}" for i in range(50)):
            assert a.owner(key) == b.owner(key)

    def test_every_shard_owns_something(self):
        ring = ConsistentHashRing(["s1", "s2", "s3"])
        owners = {ring.owner(f"d{i:03d}") for i in range(200)}
        assert owners == {"s1", "s2", "s3"}

    def test_preference_is_distinct_and_starts_at_owner(self):
        ring = ConsistentHashRing(["s1", "s2", "s3"])
        pref = ring.preference("d1")
        assert len(pref) == 3
        assert len(set(pref)) == 3
        assert pref[0] == ring.owner("d1")

    def test_removing_a_shard_only_moves_its_keys(self):
        full = ConsistentHashRing(["s1", "s2", "s3"])
        keys = [f"d{i:03d}" for i in range(300)]
        lost = [k for k in keys if full.owner(k) == "s2"]
        reduced = ConsistentHashRing(["s1", "s3"])
        for key in keys:
            if key not in lost:
                assert reduced.owner(key) == full.owner(key)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConsistentHashRing([])
        with pytest.raises(ValueError):
            ConsistentHashRing(["a", "a"])


class TestFailureDetector:
    def test_zero_before_first_heartbeat(self):
        det = PhiAccrualFailureDetector(5.0)
        assert det.phi(100.0) == 0.0

    def test_silence_since_start_is_suspected(self):
        det = PhiAccrualFailureDetector(5.0, min_std_s=0.5, started_at=40.0)
        assert det.silent_since == 40.0
        assert det.phi(45.0) < 8.0 < det.phi(50.0)
        det.heartbeat(44.0)
        # From the first heartbeat on, silence counts from it.
        assert det.silent_since == 44.0
        assert det.phi(49.0) < 1.0

    def test_low_while_beats_arrive(self):
        det = PhiAccrualFailureDetector(5.0, min_std_s=0.5)
        for t in (5.0, 10.0, 15.0, 20.0):
            det.heartbeat(t)
        assert det.phi(20.0) < 1.0

    def test_rises_with_missed_beats(self):
        det = PhiAccrualFailureDetector(5.0, min_std_s=0.5)
        for t in (5.0, 10.0, 15.0):
            det.heartbeat(t)
        assert det.phi(20.0) < 8.0 < det.phi(25.0)

    def test_phi_is_capped(self):
        det = PhiAccrualFailureDetector(5.0, min_std_s=0.5)
        det.heartbeat(5.0)
        det.heartbeat(10.0)
        assert det.phi(1e6) == PhiAccrualFailureDetector.PHI_CAP

    def test_validation(self):
        with pytest.raises(ValueError):
            PhiAccrualFailureDetector(0.0)
        with pytest.raises(ValueError):
            PhiAccrualFailureDetector(5.0, min_std_s=0.0)


class TestTopology:
    def test_needs_two_shards(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ShardedSenseAid(
                sim, CellularNetwork(sim), [ShardSpec("only", S1)], make_config()
            )

    def test_duplicate_shard_ids_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ShardedSenseAid(
                sim,
                CellularNetwork(sim),
                [ShardSpec("x", S1), ShardSpec("x", S2)],
                make_config(),
            )

    def test_unknown_shard(self):
        sim = Simulator()
        _, fleet = make_fleet(sim)
        with pytest.raises(KeyError):
            fleet.instance("nope")

    def test_devices_land_on_ring_owner(self):
        sim = Simulator()
        network, fleet = make_fleet(sim)
        clients = add_fleet_clients(sim, network, fleet)
        for device_id, client in clients.items():
            home = fleet.home_shard(device_id)
            assert home == fleet.ring.owner(device_id)
            assert client.server is fleet.instance(home)
            assert device_id in fleet.instance(home).devices
        counts = fleet.devices_per_shard()
        assert sum(counts.values()) == len(clients)

    def test_registration_avoids_crashed_owner(self):
        sim = Simulator()
        network, fleet = make_fleet(sim, detect=False)
        probe = "d00"
        owner = fleet.ring.owner(probe)
        fleet.crash_shard(owner)
        client = add_client(sim, network, fleet, probe)
        home = fleet.home_shard(probe)
        assert home != owner
        assert home == fleet.ring.preference(probe)[1]
        assert client.registered

    def test_fallback_home_is_kept_after_owner_recovers(self):
        sim = Simulator()
        network, fleet = make_fleet(sim, detect=False)
        owner = fleet.ring.owner("d00")
        fleet.crash_shard(owner)
        add_client(sim, network, fleet, "d00")
        fallback = fleet.home_shard("d00")
        fleet.recover_shard(owner)
        # A ring home never moves: rebalancing is NearestSite's.
        assert fleet.rebalance() == 0
        assert fleet.home_shard("d00") == fallback != owner
        assert "d00" not in fleet.instance(owner).devices

    def test_ring_fleet_pushes_no_extra_events(self):
        """Heartbeats are the ring fleet's only own events: a stray
        periodic process (say, a rebalancer) would move this count."""
        sim = Simulator(seed=3)
        network, fleet = make_fleet(sim)
        add_fleet_clients(sim, network, fleet)
        data = []
        fleet.submit_task(make_task(), data.append)
        sim.run(until=600.0)
        assert sim.events_processed == 437
        assert len(data) == 30
        assert fleet.handoffs == 0


class TestFailover:
    def test_crash_is_detected_and_failed_over(self, tmp_path):
        sim = Simulator()
        network, fleet = make_fleet(sim, wal_root=str(tmp_path))
        add_fleet_clients(sim, network, fleet)
        sim.run(until=30.0)
        victim = fleet.ring.owner("d00")
        old = fleet.instance(victim)
        fleet.crash_shard(victim)
        sim.run(until=60.0)
        assert fleet.failovers == 1
        record = fleet.failover_log[0]
        assert record.shard_id == victim
        assert record.standby_id != victim
        # Detection within a bounded number of heartbeat intervals.
        assert record.detection_intervals <= 3.0
        replacement = fleet.instance(victim)
        assert replacement is not old
        assert not replacement.crashed
        assert replacement.epoch == old.epoch + 1
        assert fleet.hosted_by(victim) == record.standby_id
        assert network.sense_aid_path_available
        fleet.shutdown()

    def test_fleet_without_app_server_opens_no_store(self, tmp_path, monkeypatch):
        """A server opens its storage backend on the first read of
        ``storage``, which only an app server makes: a WAL-backed fleet
        taken through a failover, a repair and a shutdown creates no
        sqlite file."""
        store = tmp_path / "store"
        store.mkdir()
        monkeypatch.setenv("REPRO_DATASTORE", "sqlite")
        monkeypatch.setenv("REPRO_DATASTORE_DIR", str(store))
        sim = Simulator()
        network, fleet = make_fleet(sim, wal_root=str(tmp_path / "wal"))
        add_fleet_clients(sim, network, fleet)
        handle = fleet.submit_task(make_task(), lambda point: None)
        sim.run(until=100.0)
        fleet.crash_shard(max(handle.subtasks, key=lambda sid: handle.allocations[sid]))
        sim.run(until=600.0)
        assert fleet.failovers == 1
        assert fleet.repair()["clean"]
        fleet.shutdown()
        assert os.listdir(store) == []

    def test_failover_logs_only_the_real_crash(self, tmp_path, caplog):
        """The successor is started, not restarted: it never ran, so
        it logs no crash of its own."""
        sim = Simulator()
        network, fleet = make_fleet(sim, wal_root=str(tmp_path))
        add_fleet_clients(sim, network, fleet)
        sim.run(until=30.0)
        with caplog.at_level(logging.WARNING, logger="repro.core.server"):
            fleet.crash_shard(fleet.ring.owner("d00"))
            sim.run(until=60.0)
        assert fleet.failovers == 1
        crashes = [r for r in caplog.records if "server crashed" in r.getMessage()]
        assert len(crashes) == 1
        fleet.shutdown()

    def test_clients_redirect_to_successor(self, tmp_path):
        sim = Simulator()
        network, fleet = make_fleet(sim, wal_root=str(tmp_path))
        clients = add_fleet_clients(sim, network, fleet)
        sim.run(until=30.0)
        victim = fleet.ring.owner("d00")
        fleet.crash_shard(victim)
        sim.run(until=60.0)
        replacement = fleet.instance(victim)
        for device_id, client in clients.items():
            if fleet.home_shard(device_id) == victim:
                assert client.server is replacement
                assert client.stats.shard_redirects == 1
                assert device_id in replacement.devices
            else:
                assert client.stats.shard_redirects == 0
        fleet.shutdown()

    def test_campaign_survives_crash(self, tmp_path):
        sim = Simulator()
        network, fleet = make_fleet(sim, wal_root=str(tmp_path))
        add_fleet_clients(sim, network, fleet)
        data = []
        handle = fleet.submit_task(make_task(spatial_density=3), data.append)
        sim.run(until=100.0)
        before = len(data)
        assert before > 0
        victim = max(handle.subtasks, key=lambda sid: handle.allocations[sid])
        fleet.crash_shard(victim)
        sim.run(until=600.0)
        assert fleet.failovers == 1
        assert len(data) > before
        # Every result carries the parent task id, whichever shard
        # served it.
        assert {p.task_id for p in data} == {handle.task.task_id}
        fleet.shutdown()

    def test_no_standby_leaves_outage(self, tmp_path):
        sim = Simulator()
        network, fleet = make_fleet(sim, wal_root=str(tmp_path))
        sim.run(until=20.0)
        for sid in fleet.shard_ids():
            fleet.crash_shard(sid)
        sim.run(until=60.0)
        assert fleet.failovers == 0
        fleet.shutdown()

    def test_failover_without_wal_resubmits_tasks(self):
        sim = Simulator()
        network, fleet = make_fleet(sim)
        add_fleet_clients(sim, network, fleet)
        data = []
        handle = fleet.submit_task(make_task(), data.append)
        sim.run(until=100.0)
        victim = max(handle.subtasks, key=lambda sid: handle.allocations[sid])
        old = fleet.instance(victim)
        fleet.crash_shard(victim)
        sim.run(until=600.0)
        assert fleet.failovers == 1
        assert fleet.instance(victim).epoch == old.epoch + 1
        assert len(data) > 0
        fleet.shutdown()

    def test_failover_without_wal_resumes_on_the_campaign_grid(self):
        """A WAL-less successor resumes the dead shard's subtask under
        its own id, on the instants the other shards still sample at,
        as a restart resumes its tasks."""
        sim = Simulator()
        network, fleet = make_fleet(sim, detect=False)
        add_fleet_clients(sim, network, fleet)
        data = []
        handle = fleet.submit_task(
            make_task(sampling_period_s=600.0, end_time=3600.0), data.append
        )
        subtasks = dict(handle.subtasks)
        assert set(subtasks) == {"s2", "s3"}
        sim.schedule_at(700.0, fleet.crash_shard, "s2")
        sim.schedule_at(1000.0, fleet.fail_over, "s2")
        sim.run(until=3600.0)
        assert fleet.failovers == 1
        assert handle.subtasks == subtasks
        successor = fleet.instance("s2").selection_log
        assert {e.task_id for e in successor} == {subtasks["s2"]}
        grid = {1200.0, 1800.0, 2400.0, 3000.0}
        assert {e.time for e in successor} == grid
        assert {
            e.time for e in fleet.instance("s3").selection_log if e.time > 1000.0
        } == grid
        assert len(data) == 16
        fleet.shutdown()

    def test_deregistered_client_not_resurrected_by_failover(self):
        sim = Simulator()
        network, fleet = make_fleet(sim)
        clients = add_fleet_clients(sim, network, fleet)
        sim.run(until=30.0)
        victim = fleet.home_shard("d00")
        clients["d00"].deregister()  # the user ended the session
        fleet.crash_shard(victim)
        sim.run(until=60.0)
        assert fleet.failovers == 1
        successor = fleet.instance(victim)
        assert not clients["d00"].registered
        assert "d00" not in successor.devices
        for device_id, client in clients.items():
            if device_id != "d00" and fleet.home_shard(device_id) == victim:
                assert device_id in successor.devices
        fleet.shutdown()

    def test_deferred_registration_lands_on_successor(self):
        """A registration that overload deferred at a shard that then
        fails over completes at the successor when its retry fires."""
        sim = Simulator()
        policy = OverloadPolicy(
            queue_capacity=4,
            service_rate_per_s=0.5,
            retry_after_base_s=40.0,
            breaker_threshold=10_000,
        )
        network, fleet = make_fleet(sim, config=make_config(overload=policy))
        sim.run(until=20.0)
        victim = fleet.ring.owner("late")
        old = fleet.instance(victim)
        for _ in range(4):
            old.admission.admit(RequestClass.REGISTRATION)  # fill the queue
        client = add_client(sim, network, fleet, "late")
        assert not client.registered
        assert client.stats.registrations_deferred == 1
        fleet.crash_shard(victim)
        sim.run(until=45.0)
        assert fleet.failovers == 1  # redirected before the retry fires
        successor = fleet.instance(victim)
        assert client.server is successor
        assert not client.registered
        sim.run(until=120.0)
        assert client.registered
        assert "late" in successor.devices
        assert "late" not in old.devices
        fleet.shutdown()

    def test_recover_shard_in_place(self, tmp_path):
        sim = Simulator()
        network, fleet = make_fleet(
            sim, wal_root=str(tmp_path), detect=False
        )
        clients = add_fleet_clients(sim, network, fleet)
        sim.run(until=30.0)
        victim = fleet.ring.owner("d00")
        fleet.crash_shard(victim)
        sim.run(until=60.0)
        assert fleet.failovers == 0
        fleet.recover_shard(victim)
        sim.run(until=90.0)
        server = fleet.instance(victim)
        assert not server.crashed
        assert server.epoch == 2
        for device_id, client in clients.items():
            if fleet.home_shard(device_id) == victim:
                assert client.server is server
        fleet.shutdown()


class TestEpochFencing:
    def _partition_setup(self, tmp_path, redirect_latency_s):
        sim = Simulator()
        network, fleet = make_fleet(
            sim,
            wal_root=str(tmp_path),
            redirect_latency_s=redirect_latency_s,
        )
        clients = add_fleet_clients(sim, network, fleet)
        return sim, network, fleet, clients

    def test_zombie_wal_writes_are_fenced(self, tmp_path):
        sim, network, fleet, clients = self._partition_setup(tmp_path, 0.05)
        data = []
        handle = fleet.submit_task(make_task(), data.append)
        sim.run(until=30.0)
        # Partition a shard that actually hosts a subtask, so its
        # zombie keeps trying to record assignments after the fence.
        victim = max(handle.subtasks, key=lambda sid: handle.allocations[sid])
        zombie = fleet.instance(victim)
        fleet.partition_shard(victim)
        sim.run(until=300.0)
        assert fleet.failovers == 1
        record = fleet.failover_log[0]
        assert record.was_partitioned
        # The zombie is alive (split brain) but its log is fenced: its
        # scheduled sampling instants keep trying to record state.
        assert not zombie.crashed
        assert zombie._wal.fenced
        assert fleet.writes_fenced() > 0
        fleet.shutdown()

    def test_divergence_detected_and_repaired(self, tmp_path):
        # Redirect latency longer than a sampling interval: clients
        # keep talking to the fenced zombie for a while, so uploads are
        # acknowledged by an incumbent the successor never heard of.
        sim, network, fleet, clients = self._partition_setup(tmp_path, 90.0)
        data = []
        handle = fleet.submit_task(make_task(end_time=1200.0), data.append)
        sim.run(until=30.0)
        victim = max(handle.subtasks, key=lambda sid: handle.allocations[sid])
        zombie = fleet.instance(victim)
        fleet.partition_shard(victim)
        sim.run(until=400.0)
        assert fleet.failovers == 1
        successor = fleet.instance(victim)
        assert successor.epoch == zombie.epoch + 1
        diff = fleet.anti_entropy_diff()
        assert diff, "expected divergence from the zombie window"
        assert set(diff) == {victim}
        fleet.heal_shard(victim)
        report = fleet.repair()
        assert report["repaired_keys"] >= len(diff[victim])
        assert report["clean"]
        assert fleet.anti_entropy_diff() == {}
        # The zombie was retired for good.
        assert fleet.deposed_instance(victim) is None
        assert zombie.crashed
        # Merged keys are burned at the successor: a replay of one of
        # those uploads must be deduplicated, not double-counted.
        for key in diff[victim]:
            assert key in successor._seen_upload_ids
        fleet.shutdown()

    def test_no_divergence_without_split_brain(self, tmp_path):
        sim, network, fleet, clients = self._partition_setup(tmp_path, 0.05)
        data = []
        fleet.submit_task(make_task(), data.append)
        sim.run(until=100.0)
        victim = fleet.ring.owner("d00")
        fleet.crash_shard(victim)
        sim.run(until=600.0)
        assert fleet.failovers == 1
        # A clean crash (no zombie) should reconcile to nothing: every
        # client-acked upload is burned at the owner after WAL replay.
        assert fleet.anti_entropy_diff() == {}
        report = fleet.repair()
        assert report["repaired_keys"] == 0
        assert report["clean"]
        fleet.shutdown()


class TestCrossShardPlanning:
    def test_allocation_follows_candidates(self):
        sim = Simulator()
        network, fleet = make_fleet(sim)
        add_fleet_clients(sim, network, fleet, count=12)
        task = make_task(spatial_density=6)
        handle = fleet.submit_task(task, lambda p: None)
        assert sum(handle.allocations.values()) == 6
        counts = fleet.devices_per_shard()
        for sid, share in handle.allocations.items():
            assert share <= counts[sid]
        fleet.shutdown()

    def test_all_density_to_owner_when_no_candidates(self):
        sim = Simulator()
        network, fleet = make_fleet(sim)
        task = make_task(spatial_density=2)
        handle = fleet.submit_task(task, lambda p: None)
        assert sum(handle.allocations.values()) == 2
        assert len(handle.allocations) == 1
        fleet.shutdown()

    def test_parked_task_skips_a_partitioned_standby(self):
        """A ring task nobody qualifies for parks on the ring owner of
        its id or, while that owner is down, on the owner's failover
        standby, which is never a partitioned shard."""
        sim = Simulator()
        network, fleet = make_fleet(sim, detect=False)
        task = make_task(spatial_density=2)
        owner, second, third = fleet.ring.preference(f"task:{task.task_id}")
        fleet.crash_shard(owner)
        fleet.partition_shard(second)
        handle = fleet.submit_task(task, lambda p: None)
        assert handle.allocations == {third: 2}
        fleet.shutdown()

    def test_demand_above_capacity_is_still_fully_allocated(self):
        sim = Simulator()
        network, fleet = make_fleet(sim)
        add_fleet_clients(sim, network, fleet, count=3)
        handle = fleet.submit_task(make_task(spatial_density=30), lambda p: None)
        assert sum(handle.allocations.values()) == 30
        fleet.shutdown()

    def test_degraded_window_is_flagged(self, tmp_path):
        sim = Simulator()
        network, fleet = make_fleet(
            sim, wal_root=str(tmp_path), detect=False
        )
        add_fleet_clients(sim, network, fleet)
        data = []
        handle = fleet.submit_task(make_task(end_time=1200.0), data.append)
        assert not handle.degraded
        sim.run(until=100.0)
        victim = max(handle.subtasks, key=lambda sid: handle.allocations[sid])
        fleet.crash_shard(victim)
        assert handle.degraded
        sim.run(until=400.0)
        degraded_during_outage = handle.degraded_points
        assert fleet.fail_over(victim)
        assert not handle.degraded
        sim.run(until=1200.0)
        # Degradation was a window, not a terminal state.
        assert handle.degraded_points == degraded_during_outage
        assert handle.points > 0
        fleet.shutdown()

    def test_points_tagged_by_serving_shard(self):
        sim = Simulator()
        network, fleet = make_fleet(sim)
        add_fleet_clients(sim, network, fleet, count=12)
        data = []
        handle = fleet.submit_task(make_task(spatial_density=6), data.append)
        sim.run(until=300.0)
        assert handle.points == len(data)
        assert sum(handle.points_by_shard.values()) == handle.points
        assert set(handle.points_by_shard) <= set(handle.subtasks)
        fleet.shutdown()


class TestZeroLoss:
    def test_acked_uploads_survive_failover(self, tmp_path):
        """The headline guarantee: every upload a client holds an ack
        for is burned at the current owner after failover + repair."""
        sim = Simulator()
        network, fleet = make_fleet(sim, wal_root=str(tmp_path))
        clients = add_fleet_clients(sim, network, fleet)
        data = []
        fleet.submit_task(make_task(end_time=1200.0), data.append)
        sim.run(until=130.0)
        victim = fleet.ring.owner("d00")
        fleet.crash_shard(victim)
        sim.run(until=1200.0)
        assert fleet.failovers == 1
        fleet.repair()
        for device_id, client in clients.items():
            owner = fleet.instance(fleet.home_shard(device_id))
            for upload_id in client.acked_uploads:
                assert upload_id in owner._seen_upload_ids
        fleet.shutdown()


# ----------------------------------------------------------------------
# NearestSite: the geographic deployment on the one fleet
# ----------------------------------------------------------------------

WORLD_S = 5400.0


def make_campus_fleet(sim, *, retry=None, **fleet_kwargs):
    """Two edge sites on the campus, 20 walking users (the
    ``examples/federated_edge.py`` world) and one barometer campaign
    centred on each site."""
    campus = default_campus()
    network = CellularNetwork(sim)
    devices = build_population(sim, campus, PopulationConfig(size=20))
    fleet = ShardedSenseAid(
        sim,
        network,
        [
            ShardSpec("core", campus.site(CS_DEPARTMENT).position),
            ShardSpec("north", campus.site(UNIVERSITY_GYM).position),
        ],
        SenseAidConfig(mode=ServerMode.COMPLETE),
        placement=NearestSite(rebalance_period_s=120.0),
        **fleet_kwargs,
    )
    clients = {}
    for device in devices:
        clients[device.device_id] = SenseAidClient(
            sim, device, fleet.instance("core"), network, retry_policy=retry
        )
        fleet.register(clients[device.device_id])
    placed = fleet.devices_per_shard()
    data = {"core": [], "north": []}
    for shard_id, site in (("core", CS_DEPARTMENT), ("north", UNIVERSITY_GYM)):
        fleet.submit_task(
            TaskSpec(
                sensor_type=SensorType.BAROMETER,
                center=campus.site(site).position,
                area_radius_m=800.0,
                spatial_density=2,
                sampling_period_s=300.0,
                sampling_duration_s=WORLD_S,
                origin=f"{shard_id}-weather",
            ),
            data[shard_id].append,
        )
    return fleet, devices, clients, placed, data


class TestNearestSite:
    def test_example_world_up_to_the_crash(self):
        """Up to its crash the example reproduces, number for number,
        the geographic deployment as it ran before failover became
        heartbeat-driven."""
        sim = Simulator(seed=31)
        fleet, devices, _, placed, data = make_campus_fleet(sim)
        assert placed == {"core": 15, "north": 5}
        sim.run(until=WORLD_S / 2)
        assert fleet.handoffs == 8
        assert (len(data["core"]), len(data["north"])) == (18, 18)
        assert sum(d.crowdsensing_energy_j() for d in devices) == 150.929592
        fleet.shutdown()

    def test_tasks_go_whole_to_the_nearest_live_site(self):
        sim = Simulator(seed=31)
        fleet, _, _, _, _ = make_campus_fleet(sim)
        gym = default_campus().site(UNIVERSITY_GYM).position
        task = make_task(center=gym, spatial_density=5)
        assert fleet.submit_task(task, lambda p: None).allocations == {"north": 5}
        fleet.crash_shard("north")
        task = make_task(center=gym, spatial_density=5)
        assert fleet.submit_task(task, lambda p: None).allocations == {"core": 5}
        fleet.shutdown()

    def test_geographic_durability(self, tmp_path):
        """WAL replay, fencing and repair hold under geographic
        placement with walking users: zero acknowledged uploads lost."""
        sim = Simulator(seed=31)
        fleet, _, clients, _, data = make_campus_fleet(
            sim, retry=RETRY, wal_root=str(tmp_path)
        )
        sim.run(until=WORLD_S / 2)
        north_before = len(data["north"])
        fleet.crash_shard("north")
        sim.run(until=WORLD_S + 120.0)
        # No split brain, so nothing to repair: every acknowledged
        # upload is held by the shard that acked it (handed-over
        # devices' earlier acks stay there) or, for the crashed shard,
        # by its successor after WAL replay.
        assert fleet.acked_upload_audit() == {}
        assert fleet.anti_entropy_diff() == {}
        report = fleet.repair()
        assert report["repaired_keys"] == 0
        assert report["clean"]
        # The mechanism ran: devices moved, one shard failed over, the
        # campaign went on at its successor, uploads rode radio tails
        # and were acknowledged.
        assert fleet.handoffs >= 1
        assert fleet.failovers == 1
        assert fleet.hosted_by("north") == "core"
        assert len(data["north"]) > north_before
        assert sum(c.stats.uploads_in_tail for c in clients.values()) > 0
        assert sum(len(c.acked_uploads) for c in clients.values()) > 0
        fleet.shutdown()

    def test_geographic_standby(self):
        """A failed shard's successor runs on its nearest live sibling."""
        sim = Simulator()
        network = CellularNetwork(sim)
        fleet = ShardedSenseAid(
            sim,
            network,
            [
                ShardSpec("W", Point(0.0, 0.0)),
                ShardSpec("E", Point(3000.0, 0.0)),
                ShardSpec("C", Point(1000.0, 0.0)),
            ],
            make_config(),
            placement=NearestSite(),
        )
        fleet.crash_shard("W")
        sim.run(until=60.0)
        assert fleet.failovers == 1
        assert fleet.hosted_by("W") == "C"
        fleet.shutdown()
