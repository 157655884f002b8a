"""Tests for edge-instance failover in the geographic deployment.

A crashed instance is detected by heartbeats and its successor is
hosted on the nearest live sibling; devices keep their home shard and
are redirected to the successor.  An instance that crashes before its
first heartbeat (at t = 0, or right after a takeover) is detected by
its silence since it started.
"""

from __future__ import annotations

from repro.sim.engine import Simulator
from tests.test_federation import (
    EAST,
    WEST,
    _Teleporter,
    make_client,
    make_fleet,
    make_task,
)


class TestBackupSelection:
    def test_nearest_healthy_sibling(self):
        for failed, backup in (("west", "east"), ("east", "west")):
            sim = Simulator()
            _, fleet = make_fleet(sim)
            fleet.crash_shard(failed)
            sim.run(until=100.0)
            assert fleet.failovers == 1
            assert fleet.hosted_by(failed) == backup

    def test_no_backup_when_all_down(self):
        sim = Simulator()
        _, fleet = make_fleet(sim, detect=False)
        fleet.crash_shard("east")
        assert fleet.fail_over("west") is False
        assert fleet.hosted_by("west") == "west"


class TestFailover:
    def _failing_setup(self, **kwargs):
        sim = Simulator()
        network, fleet = make_fleet(sim, rebalance_period_s=1e6, **kwargs)
        make_client(sim, network, fleet, "w1", WEST)
        make_client(sim, network, fleet, "w2", WEST)
        make_client(sim, network, fleet, "e1", EAST)
        return sim, network, fleet

    def test_devices_migrate_to_backup(self):
        """The devices move to the backup host: its successor of the
        failed shard holds them, and they keep their home shard."""
        sim, network, fleet = self._failing_setup()
        old = fleet.instance("west")
        fleet.crash_shard("west")
        sim.run(until=100.0)
        assert fleet.failovers == 1
        assert fleet.hosted_by("west") == "east"
        successor = fleet.instance("west")
        assert successor is not old
        for device_id in ("w1", "w2"):
            assert fleet.home_shard(device_id) == "west"
            assert device_id in successor.devices
        assert fleet.home_shard("e1") == "east"

    def test_tasks_resume_on_backup(self):
        sim, network, fleet = self._failing_setup()
        data = []
        fleet.submit_task(
            make_task(WEST, spatial_density=1, sampling_period_s=300.0,
                      sampling_duration_s=None, start_time=0.0, end_time=3600.0),
            data.append,
        )
        sim.run(until=350.0)
        collected_before = len(data)
        assert collected_before >= 1
        fleet.crash_shard("west")
        sim.run(until=3700.0)
        # The successor carried the campaign to its original end time.
        assert len(data) > collected_before
        assert fleet.instance("west").stats.requests_issued >= 5

    def test_sense_aid_path_restored_after_takeover(self):
        sim, network, fleet = self._failing_setup()
        fleet.submit_task(make_task(WEST, spatial_density=1), lambda p: None)
        fleet.crash_shard("west")
        assert not network.sense_aid_path_available
        sim.run(until=100.0)
        assert network.sense_aid_path_available

    def test_recovered_instance_does_not_double_schedule(self):
        sim, network, fleet = self._failing_setup()
        data = []
        fleet.submit_task(
            make_task(WEST, spatial_density=1, sampling_period_s=600.0,
                      sampling_duration_s=None, start_time=0.0, end_time=3600.0),
            data.append,
        )
        sim.run(until=50.0)
        fleet.crash_shard("west")
        sim.run(until=700.0)
        assert fleet.failovers == 1
        fleet.recover_shard("west")  # the successor is live: a no-op
        sim.run(until=3700.0)
        # Each sampling instant must produce at most one reading
        # (density 1): no duplicates from the deposed incumbent.
        times = sorted(round(p.sensed_at) for p in data)
        assert len(times) == len(set(times))
        assert len(times) >= 5

    def test_recover_then_rebalance_returns_devices_home(self):
        sim, network, fleet = self._failing_setup(detect=False)
        fleet.crash_shard("west")
        assert fleet.rebalance() == 2  # w1 and w2 leave the dead shard
        assert fleet.home_shard("w1") == "east"
        fleet.recover_shard("west")
        # recover_shard is a cold restart: new incarnation epoch.
        assert fleet.instance("west").epoch == 2
        assert not fleet.instance("west").crashed
        moved = fleet.rebalance()
        assert moved == 2  # w1 and w2 go home; e1 stays east
        for device_id in ("w1", "w2"):
            assert fleet.home_shard(device_id) == "west"
            assert device_id in fleet.instance("west").devices
            assert device_id not in fleet.instance("east").devices
        # The round-trip left no duplicate registrations behind: a
        # second rebalance finds everyone already home.
        assert fleet.rebalance() == 0

    def test_recovered_instance_can_fail_over_again(self):
        sim, network, fleet = self._failing_setup()
        fleet.crash_shard("west")
        sim.run(until=100.0)
        assert fleet.failovers == 1
        fleet.crash_shard("west")  # the successor dies too
        sim.run(until=200.0)
        assert fleet.failovers == 2
        assert fleet.instance("west").epoch == 3
        assert fleet.hosted_by("west") == "east"
        assert "w1" in fleet.instance("west").devices

    def test_successor_crash_within_a_heartbeat_fails_over_again(self):
        """A successor that dies before its first heartbeat is still
        suspected: silence counts from its takeover."""
        sim, network, fleet = self._failing_setup()
        fleet.crash_shard("west")
        # Heartbeats every 5 s: the silence since t = 0 trips the
        # detector at the second tick.
        sim.run(until=11.0)
        assert [r.completed_at for r in fleet.failover_log] == [10.0]
        fleet.crash_shard("west")  # one second into the takeover
        sim.run(until=100.0)
        assert fleet.failovers == 2
        assert fleet.failover_log[1].completed_at == 20.0
        assert not fleet.shard_down("west")
        assert fleet.instance("west").epoch == 3
        assert "w1" in fleet.instance("west").devices

    def test_failover_without_monitor_never_triggers(self):
        sim, network, fleet = self._failing_setup(detect=False)
        fleet.crash_shard("west")
        sim.run(until=500.0)
        assert fleet.failovers == 0

    def test_rebalancer_avoids_crashed_instances(self):
        """Periodic rebalancing must not hand a device back to a dead
        instance even if it is the nearest site to its position."""
        sim = Simulator()
        network, fleet = make_fleet(
            sim, rebalance_period_s=20.0, detect=False
        )
        fleet.crash_shard("west")
        make_client(sim, network, fleet, "w1", WEST)  # stays in west
        sim.run(until=200.0)
        assert fleet.home_shard("w1") == "east"
        assert "w1" not in fleet.instance("west").devices

    def test_registration_avoids_crashed_instance(self):
        sim = Simulator()
        network, fleet = make_fleet(sim)
        fleet.crash_shard("west")
        make_client(sim, network, fleet, "newbie", WEST)
        assert fleet.home_shard("newbie") == "east"


class TestChurnDuringHandoff:
    """Devices that deregister, die, or lose their server-side record
    while a takeover or rebalance is in flight must not be resurrected
    or crash the handover loop."""

    def _churn_setup(self, **kwargs):
        sim = Simulator()
        network, fleet = make_fleet(sim, rebalance_period_s=1e6, **kwargs)
        clients = {
            "w1": make_client(sim, network, fleet, "w1", WEST),
            "w2": make_client(sim, network, fleet, "w2", WEST),
            "e1": make_client(sim, network, fleet, "e1", EAST),
        }
        return sim, network, fleet, clients

    def test_deregistered_client_not_resurrected_by_takeover(self):
        sim, network, fleet, clients = self._churn_setup()
        clients["w1"].deregister()  # user ended the session client-side
        fleet.crash_shard("west")
        sim.run(until=100.0)
        assert fleet.failovers == 1
        successor = fleet.instance("west")
        # w2 followed the failover; w1's ended session stayed ended.
        assert clients["w2"].server is successor
        assert "w2" in successor.devices
        assert "w1" not in successor.devices
        assert not clients["w1"].registered

    def test_powered_off_client_not_dragged_to_backup(self):
        sim, network, fleet, clients = self._churn_setup()
        clients["w2"].power_off()  # battery death: no goodbye
        fleet.crash_shard("west")
        sim.run(until=100.0)
        assert fleet.failovers == 1
        successor = fleet.instance("west")
        assert clients["w1"].server is successor
        assert clients["w2"].server is not successor
        assert "w2" not in fleet.instance("east").devices

    def test_server_side_record_loss_then_crash_reestablishes(self):
        sim, network, fleet, clients = self._churn_setup()
        # The instance forgets w1 (fault injection) while the client
        # still believes it has a session.
        fleet.instance("west").deregister_device("w1")
        assert clients["w1"].registered
        fleet.crash_shard("west")
        sim.run(until=100.0)  # takeover must not KeyError on the orphan
        assert fleet.failovers == 1
        assert "w1" in fleet.instance("west").devices
        assert clients["w1"].registered

    def test_rebalance_skips_churned_clients_after_recovery(self):
        sim, network, fleet, clients = self._churn_setup(detect=False)
        fleet.crash_shard("west")
        # Churn while their shard is down; the nearest live shard is
        # east, so only the guard keeps them from being handed over.
        clients["w1"].deregister()
        clients["w2"].power_off()
        assert fleet.rebalance() == 0
        assert "w1" not in fleet.instance("east").devices
        assert "w2" not in fleet.instance("east").devices
        fleet.recover_shard("west")
        # Nobody eligible needs to move: w1 ended its session, w2 is
        # dead, e1 was east all along.
        assert fleet.rebalance() == 0
        assert not clients["w1"].registered
        assert fleet.handoffs == 0

    def test_campaign_survives_churn_during_takeover(self):
        sim, network, fleet, clients = self._churn_setup()
        data = []
        fleet.submit_task(
            make_task(WEST, spatial_density=1, sampling_period_s=300.0,
                      sampling_duration_s=None, start_time=0.0, end_time=3600.0),
            data.append,
        )
        sim.run(until=350.0)
        before = len(data)
        assert before >= 1
        clients["w1"].deregister()  # churn in the same instant window
        fleet.crash_shard("west")
        sim.run(until=3700.0)
        # w2 alone carries the campaign on the successor.
        assert len(data) > before
        assert fleet.failovers == 1

    def test_handoff_of_moving_device_after_failover(self):
        """A device homed on a failed-over shard still hands over when
        it walks nearer the other site."""
        sim = Simulator()
        network, fleet = make_fleet(sim, rebalance_period_s=30.0)
        make_client(
            sim, network, fleet, "walker", WEST,
            mobility=_Teleporter(WEST, EAST, switch_at=200.0),
        )
        fleet.crash_shard("west")
        sim.run(until=100.0)
        assert fleet.failovers == 1
        assert fleet.home_shard("walker") == "west"
        sim.run(until=300.0)
        assert fleet.home_shard("walker") == "east"
        assert "walker" in fleet.instance("east").devices
        assert "walker" not in fleet.instance("west").devices
