"""Tests for the durability subsystem: the write-ahead log, crash-safe
checkpoints, cold-restart recovery, and server incarnation epochs."""

from __future__ import annotations

import json
import os

import pytest

from repro.cellular.enodeb import ENodeB, TowerRegistry
from repro.cellular.network import CellularNetwork, DeliveryReceipt
from repro.cellular.packets import Message, MessageKind
from repro.clientlib.client import SenseAidClient
from repro.core.config import RetryPolicy, SenseAidConfig, ServerMode
from repro.core.server import SenseAidServer, ServerStats
from repro.core.wal import (
    CheckpointCorruptError,
    DurableLog,
    RecoveryViolation,
    WriteAheadLog,
    check_recovery_invariants,
    checkpoint_crc,
    checkpoint_server,
    durable_state,
)
from repro.faults import FaultInjector, FaultPlan
from repro.sim.engine import Simulator
from repro.storage import atomic_write
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


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)


def wal_setup(sim, wal_dir, n_devices=2, *, retry=RETRY, config=None, plan=None):
    """A one-tower deployment whose server journals to ``wal_dir``."""
    registry = TowerRegistry([ENodeB("t0", CENTER, coverage_radius_m=5000.0)])
    network = CellularNetwork(sim)
    server = SenseAidServer(
        sim,
        registry,
        network,
        config or SenseAidConfig(mode=ServerMode.COMPLETE, deadline_grace_s=60.0),
        wal=DurableLog(str(wal_dir)),
    )
    injector = None
    if plan is not None:
        injector = FaultInjector(sim, network, registry, server=server, plan=plan)
    clients = []
    for i in range(n_devices):
        device = make_device(sim, f"d{i}", position=CENTER)
        client = SenseAidClient(
            sim, device, server, network, retry_policy=retry
        )
        client.register()
        if injector is not None:
            injector.adopt_client(client)
        clients.append(client)
    return server, network, injector, clients


class TestWriteAheadLog:
    def test_append_and_read_back(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append("register", device_id="d0")
        wal.append("assign", request_id="task1-r0", device_id="d0")
        entries = wal.entries()
        assert [e["kind"] for e in entries] == ["register", "assign"]
        assert [e["seq"] for e in entries] == [1, 2]

    def test_sequence_resumes_after_reopen(self, tmp_path):
        WriteAheadLog(str(tmp_path)).append("register", device_id="d0")
        reopened = WriteAheadLog(str(tmp_path))
        entry = reopened.append("deregister", device_id="d0")
        assert entry["seq"] == 2
        assert len(reopened.entries()) == 2

    def test_torn_tail_is_dropped(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append("register", device_id="d0")
        wal.append("register", device_id="d1")
        with open(wal.log_path, "a", encoding="utf-8") as f:
            f.write('{"seq": 3, "kind": "regi')  # crash mid-append
        assert [e["seq"] for e in wal.entries()] == [1, 2]

    def test_nothing_after_a_torn_line_is_trusted(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append("register", device_id="d0")
        with open(wal.log_path, "a", encoding="utf-8") as f:
            f.write('{"torn\n')
            f.write(json.dumps({"seq": 3, "kind": "register"}) + "\n")
        assert [e["seq"] for e in wal.entries()] == [1]

    def test_compact_installs_checkpoint_and_truncates(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append("register", device_id="d0")
        wal.compact({"version": 2, "marker": 7})
        assert wal.entries() == []
        assert wal.load_checkpoint()["marker"] == 7
        assert wal.load_checkpoint()["last_seq"] == 1  # the seq it covers

    def test_reopen_after_two_compactions_numbers_above_the_stamp(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append("register", device_id="d0")
        wal.compact({"version": 2, "marker": 1})
        wal.compact({"version": 2, "marker": 2})
        # Both logs are empty now: only the checkpoints remember seq 1.
        reopened = WriteAheadLog(str(tmp_path))
        assert reopened.append("register", device_id="d1")["seq"] == 2
        snapshot, entries, degraded = reopened.recovery_base()
        assert snapshot["marker"] == 2
        assert [e["device_id"] for e in entries] == ["d1"]
        assert not degraded

    def test_unsupported_checkpoint_version_rejected(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.compact({"version": 99})
        with pytest.raises(ValueError, match="version"):
            wal.load_checkpoint()

    def test_missing_files_mean_empty_log(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        assert wal.entries() == []
        assert wal.load_checkpoint() is None


class TestAtomicCheckpointWrites:
    def test_save_checkpoint_round_trips(self, tmp_path):
        sim = Simulator(seed=5)
        server, _, _, _ = wal_setup(sim, tmp_path / "wal")
        server._wal.checkpoint(server)
        wal = server._wal.wal
        snapshot = wal.load_checkpoint()
        assert snapshot["version"] == 2
        assert snapshot["last_seq"] == wal._seq
        assert {d["device_id"] for d in snapshot["devices"]} == {"d0", "d1"}
        assert not [name for name in os.listdir(wal.directory) if name.endswith(".tmp")]

    def test_failed_write_leaves_previous_file_intact(self, tmp_path, monkeypatch):
        path = str(tmp_path / "ckpt.json")
        atomic_write(path, b"generation 1")

        def replace_fails(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", replace_fails)
        with pytest.raises(OSError, match="disk full"):
            atomic_write(path, b"generation 2")
        with open(path, "rb") as f:
            assert f.read() == b"generation 1"
        assert os.listdir(str(tmp_path)) == ["ckpt.json"]


class TestCheckpointV2:
    """Checkpoints carry stats, burned keys, and pending assignment
    bookkeeping; ``test_midrun_compaction_preserves_recovery`` shows
    they round-trip through a restart."""

    def test_checkpoint_carries_durable_accounting(self, tmp_path):
        sim = Simulator(seed=11)
        server, _, _, _ = wal_setup(sim, tmp_path / "wal")
        server.submit_task(
            make_spec(spatial_density=2, sampling_duration_s=1800.0),
            lambda p: None,
        )
        sim.run(until=650.0)
        assert server.stats.data_points > 0
        snapshot = checkpoint_server(server)
        assert snapshot["version"] == 2
        assert snapshot["epoch"] == server.epoch
        assert ServerStats(**snapshot["stats"]) == server.stats
        assert snapshot["seen_upload_ids"] == sorted(server._seen_upload_ids)
        by_id = {p["request_id"]: p for p in snapshot["pending"]}
        assert set(by_id) == set(server._tracking)
        for request_id, tracking in server._tracking.items():
            assert by_id[request_id]["assigned"] == sorted(tracking.assigned)
            assert by_id[request_id]["received"] == sorted(tracking.received)
            assert by_id[request_id]["satisfied"] == tracking.satisfied


def _sensor_data_message(payload):
    return Message(
        kind=MessageKind.SENSOR_DATA, sender=payload["device_id"], size_bytes=120,
        payload=payload,
    )


def _receipt(sim, message):
    return DeliveryReceipt(
        message_id=message.message_id,
        radio_complete_at=sim.now,
        delivered_at=sim.now,
        path="path2",
    )


class TestRestartRecovery:
    """Tentpole: checkpoint + WAL replay reaches the exact pre-crash
    durable state, and clients re-establish sessions via epoch resync."""

    def _crashed_scenario(self, tmp_path, *, crash_at=650.0, restart_at=700.0):
        sim = Simulator(seed=23)
        server, network, _, clients = wal_setup(sim, tmp_path / "wal")
        collected = []
        server.submit_task(
            make_spec(spatial_density=2, sampling_duration_s=1800.0),
            collected.append,
        )
        sim.run(until=crash_at)
        server.crash()
        sim.run(until=restart_at)
        return sim, server, clients, collected

    def test_restart_restores_exact_durable_state(self, tmp_path):
        sim, server, _, _ = self._crashed_scenario(tmp_path)
        pre = durable_state(server)
        assert pre["accepted_uploads"] > 0
        assert pre["assignments"]
        server.restart()
        post = durable_state(server)
        assert check_recovery_invariants(pre, post) == []
        assert server.epoch == 2

    def test_clients_resync_and_collection_resumes(self, tmp_path):
        sim, server, clients, collected = self._crashed_scenario(tmp_path)
        before = server.stats.data_points
        server.restart()
        for client in clients:
            assert client.stats.epoch_resyncs >= 1
            assert client._server_epoch == server.epoch
        sim.run(until=1400.0)
        assert server.stats.data_points > before
        assert all(p.task_id is not None for p in collected)

    def test_stale_epoch_upload_rejected(self, tmp_path):
        sim, server, _, _ = self._crashed_scenario(tmp_path)
        server.restart()
        before = server.stats.data_points
        message = _sensor_data_message(
            {
                "device_id": "d0",
                "request_id": "task999-r0",
                "value": 1013.0,
                "epoch": 1,  # previous incarnation
            }
        )
        ack = server.receive_sensed_data(message, _receipt(sim, message))
        assert ack is not None and not ack.accepted
        assert ack.reason == "stale_epoch"
        assert server.stats.stale_epoch_uploads == 1
        assert server.stats.data_points == before

    def test_burned_keys_stay_burned_across_restart(self, tmp_path):
        sim, server, _, _ = self._crashed_scenario(tmp_path)
        burned = sorted(server._seen_upload_ids)
        assert burned
        server.restart()
        assert set(burned) <= server._seen_upload_ids
        before = server.stats.data_points
        upload_id = burned[0]
        device_id, request_id = upload_id.split(":", 1)
        message = _sensor_data_message(
            {
                "device_id": device_id,
                "request_id": request_id,
                "upload_id": upload_id,
                "value": 1013.0,
                "epoch": server.epoch,
            }
        )
        ack = server.receive_sensed_data(message, _receipt(sim, message))
        assert ack is not None and ack.accepted and ack.reason == "duplicate"
        assert server.stats.data_points == before

    def test_upload_into_a_crash_stays_in_flight_until_the_restart(self, tmp_path):
        """A ``crashed`` verdict is no ack: the upload stays in flight,
        and the retry after the restart is accepted exactly once."""
        sim = Simulator(seed=23)
        server, _, _, clients = wal_setup(sim, tmp_path / "wal")
        verdicts = []
        receive = server.receive_sensed_data

        def spy(message, receipt):
            ack = receive(message, receipt)
            verdicts.append((message.payload["upload_id"], ack.reason))
            return ack

        server.receive_sensed_data = spy
        server.submit_task(make_spec(spatial_density=2), lambda p: None)
        # Round 0 ends at 600 s; the clients force-flush it 60 s (the
        # deadline grace) earlier, into the crash.
        sim.run(until=540.0)
        server.crash()
        sim.run(until=555.0)
        crashed = sorted(uid for uid, reason in verdicts if reason == "crashed")
        assert [uid.split(":", 1)[0] for uid in crashed] == ["d0", "d1"]
        for client, upload_id in zip(clients, crashed):
            assert list(client._inflight) == [upload_id.split(":", 1)[1]]
        server.restart()
        # The restored path makes each client resync and replay its
        # in-flight upload at once, well before any ack timeout.
        sim.run(until=556.0)
        for client, upload_id in zip(clients, crashed):
            assert client.stats.resync_uploads == 1
            assert upload_id in client.acked_uploads
        sim.run(until=1500.0)
        for client, upload_id in zip(clients, crashed):
            accepted = [uid for uid, reason in verdicts if reason == "accepted"]
            assert accepted.count(upload_id) == 1
            assert client._accepted_acks[upload_id] == 1
            assert upload_id in client.acked_uploads

    def test_midrun_compaction_preserves_recovery(self, tmp_path):
        sim = Simulator(seed=31)
        server, _, _, _ = wal_setup(sim, tmp_path / "wal")
        collected = []
        server.submit_task(
            make_spec(spatial_density=2, sampling_duration_s=1800.0),
            collected.append,
        )
        sim.run(until=300.0)
        server._wal.checkpoint(server)
        assert server._wal.wal.entries() == []  # log bounded
        sim.run(until=650.0)
        pre = durable_state(server)
        server.crash()
        sim.run(until=700.0)
        pre = durable_state(server)
        server.restart()
        assert check_recovery_invariants(pre, durable_state(server)) == []

    def test_interrupted_compaction_replays_nothing_twice(self, tmp_path):
        """A crash after compaction installs its checkpoint but before it
        truncates the log must not replay the covered entries on top of
        the snapshot: ``assign`` and ``upload_accept`` are not
        idempotent."""
        sim = Simulator(seed=31)
        server, _, _, _ = wal_setup(sim, tmp_path / "wal")
        server.submit_task(
            make_spec(spatial_density=2, sampling_duration_s=1800.0),
            lambda p: None,
        )
        sim.run(until=650.0)
        wal = server._wal.wal
        with open(wal.log_path, "rb") as f:
            covered = f.read()
        server._wal.checkpoint(server)
        with open(wal.log_path, "wb") as f:
            f.write(covered)  # the truncation never happened
        server.crash()
        sim.run(until=700.0)
        pre = durable_state(server)
        assert pre["accepted_uploads"] > 0
        server.restart()
        assert check_recovery_invariants(pre, durable_state(server)) == []

    def test_repeated_crash_restart_cycles(self, tmp_path):
        sim = Simulator(seed=47)
        server, _, _, clients = wal_setup(sim, tmp_path / "wal")
        server.submit_task(
            make_spec(spatial_density=2, sampling_duration_s=3600.0),
            lambda p: None,
        )
        expected_epoch = 1
        for crash_at, restart_at in ((400.0, 450.0), (900.0, 930.0), (1500.0, 1600.0)):
            sim.run(until=crash_at)
            server.crash()
            sim.run(until=restart_at)
            pre = durable_state(server)
            server.restart()
            expected_epoch += 1
            assert check_recovery_invariants(pre, durable_state(server)) == []
            assert server.epoch == expected_epoch
        sim.run(until=2200.0)
        assert server.stats.data_points > 0

    def test_fault_plan_drives_crash_and_restart(self, tmp_path):
        sim = Simulator(seed=59)
        plan = FaultPlan().server_crash(650.0).server_restart(700.0)
        server, _, injector, clients = wal_setup(
            sim, tmp_path / "wal", plan=plan
        )
        server.submit_task(
            make_spec(spatial_density=2, sampling_duration_s=1800.0),
            lambda p: None,
        )
        sim.run(until=1400.0)
        assert injector.stats.server_crashes == 1
        assert injector.stats.server_restarts == 1
        assert server.epoch == 2
        assert all(c.stats.epoch_resyncs >= 1 for c in clients)
        assert server.stats.data_points > 0


class TestEpochSemantics:
    def test_restart_without_wal_bumps_epoch_and_keeps_datastores(self):
        sim = Simulator(seed=7)
        registry = TowerRegistry([ENodeB("t0", CENTER, coverage_radius_m=5000.0)])
        network = CellularNetwork(sim)
        server = SenseAidServer(sim, registry, network)
        client = SenseAidClient(
            sim, make_device(sim, "d0", position=CENTER), server, network,
            retry_policy=RETRY,
        )
        client.register()
        data = []
        periodic = server.submit_task(
            make_spec(
                spatial_density=1, sampling_period_s=600.0, sampling_duration_s=3600.0
            ),
            data.append,
        )
        one_shot = make_spec(spatial_density=1, sampling_period_s=None)
        expired = make_spec(
            spatial_density=1, sampling_period_s=300.0, sampling_duration_s=600.0
        )
        server.submit_task(one_shot, data.append)
        server.submit_task(expired, data.append)
        sim.run(until=1000.0)
        issued = server.stats.requests_issued
        assert issued == 5  # 0 s and 600 s, the one-shot, the expired 0 s and 300 s
        server.restart()
        assert server.epoch == 2
        assert "d0" in server.devices  # datastore stands in for storage
        # One-shot and expired tasks stay on record as they were.
        assert server.tasks.get(one_shot.task_id) == one_shot
        assert server.tasks.get(expired.task_id) == expired
        sim.run(until=4000.0)
        assert client.stats.epoch_resyncs == 1
        assert client._server_epoch == 2
        # The periodic task resumed under the new epoch with its own id:
        # its 1200-3000 s instants were issued once each; the others
        # stayed down.
        assert server.stats.requests_issued == issued + 4
        resumed = sorted({p.request_id for p in data if p.sensed_at > 1000.0})
        assert resumed == [f"task{periodic}-r{i}" for i in range(2, 6)]
        server.shutdown()

    def test_invariant_checker_flags_divergence(self):
        pre = {
            "epoch": 1,
            "devices": {"d0": {"times_selected": 3}},
            "tasks": [1],
            "burned_upload_ids": ["d0:task1-r0"],
            "accepted_uploads": 4,
            "requests_satisfied": 2,
            "assignments": {"task1-r1": {"assigned": ["d0"]}},
        }
        post = {
            "epoch": 3,  # skipped an incarnation
            "devices": {"d0": {"times_selected": 2}},  # lost a selection
            "tasks": [],
            "burned_upload_ids": [],  # resurrected key
            "accepted_uploads": 5,  # double count
            "requests_satisfied": 2,
            "assignments": {},
        }
        violations = check_recovery_invariants(pre, post)
        text = "\n".join(violations)
        assert "accepted uploads" in text
        assert "resurrected" in text
        assert "d0" in text
        assert "open tasks" in text
        assert "epoch" in text
        assert check_recovery_invariants(pre, dict(pre, epoch=2)) == []


class TestCheckpointCorruption:
    """Satellite: CRC-footed checkpoints and the previous-generation
    fallback path when the current checkpoint is damaged on disk."""

    def _two_generations(self, tmp_path):
        """A WAL with two compactions behind it and a live tail."""
        wal = WriteAheadLog(str(tmp_path))
        wal.append("register", device_id="d0")
        wal.compact({"version": 2, "marker": 1, "devices": ["d0"]})
        wal.append("register", device_id="d1")
        wal.compact({"version": 2, "marker": 2, "devices": ["d0", "d1"]})
        wal.append("register", device_id="d2")
        return wal

    def test_compact_stamps_crc(self, tmp_path):
        wal = self._two_generations(tmp_path)
        with open(wal.checkpoint_path, encoding="utf-8") as f:
            raw = json.load(f)
        assert raw["crc32"] == checkpoint_crc(raw)
        assert wal.load_checkpoint()["marker"] == 2

    def test_tampered_field_fails_crc(self, tmp_path):
        wal = self._two_generations(tmp_path)
        with open(wal.checkpoint_path, encoding="utf-8") as f:
            raw = json.load(f)
        raw["marker"] = 99  # bit-rot / partial overwrite stand-in
        with open(wal.checkpoint_path, "w", encoding="utf-8") as f:
            json.dump(raw, f)
        with pytest.raises(CheckpointCorruptError, match="CRC"):
            wal.load_checkpoint()

    def test_garbage_checkpoint_detected(self, tmp_path):
        wal = self._two_generations(tmp_path)
        with open(wal.checkpoint_path, "w", encoding="utf-8") as f:
            f.write("\x00\x01not json at all")
        with pytest.raises(CheckpointCorruptError, match="unparseable"):
            wal.load_checkpoint()

    def test_truncated_checkpoint_detected(self, tmp_path):
        wal = self._two_generations(tmp_path)
        with open(wal.checkpoint_path, encoding="utf-8") as f:
            raw = f.read()
        with open(wal.checkpoint_path, "w", encoding="utf-8") as f:
            f.write(raw[: len(raw) // 2])  # torn write
        with pytest.raises(CheckpointCorruptError):
            wal.load_checkpoint()

    def test_checkpoint_without_crc_or_stamp_is_corrupt(self, tmp_path):
        """Every checkpoint ``compact`` writes carries both the CRC
        footer and the seq stamp; one missing either is corrupt, so
        recovery falls back to the previous generation."""
        for dropped in ("crc32", "last_seq"):
            wal = self._two_generations(tmp_path / dropped)
            with open(wal.checkpoint_path, encoding="utf-8") as f:
                raw = json.load(f)
            del raw[dropped]
            if dropped == "last_seq":
                raw["crc32"] = checkpoint_crc(raw)
            write_json(wal.checkpoint_path, raw)
            with pytest.raises(CheckpointCorruptError, match="lacks"):
                wal.load_checkpoint()
            snapshot, entries, degraded = wal.recovery_base()
            assert snapshot["marker"] == 1
            assert [e["device_id"] for e in entries] == ["d1", "d2"]
            assert degraded

    def test_recovery_base_clean_path(self, tmp_path):
        wal = self._two_generations(tmp_path)
        snapshot, entries, degraded = wal.recovery_base()
        assert snapshot["marker"] == 2
        assert [e["device_id"] for e in entries] == ["d2"]
        assert not degraded
        assert wal.fallbacks == 0

    def test_fallback_to_previous_generation(self, tmp_path):
        wal = self._two_generations(tmp_path)
        with open(wal.checkpoint_path, "w", encoding="utf-8") as f:
            f.write("garbage")
        snapshot, entries, degraded = wal.recovery_base()
        # Previous checkpoint + its log suffix + the live tail covers
        # the exact same history the damaged generation did.
        assert snapshot["marker"] == 1
        assert [e["device_id"] for e in entries] == ["d1", "d2"]
        assert degraded
        assert wal.fallbacks == 1

    def test_both_generations_corrupt_replays_logs_only(self, tmp_path):
        wal = self._two_generations(tmp_path)
        for path in (wal.checkpoint_path, wal.prev_checkpoint_path):
            with open(path, "w", encoding="utf-8") as f:
                f.write("garbage")
        snapshot, entries, degraded = wal.recovery_base()
        assert snapshot is None
        assert [e["device_id"] for e in entries] == ["d1", "d2"]
        assert degraded

    def test_server_recovery_survives_corrupt_checkpoint(self, tmp_path):
        sim = Simulator(seed=23)
        server, network, _, clients = wal_setup(sim, tmp_path / "wal")
        collected = []
        server.submit_task(
            make_spec(spatial_density=2, sampling_duration_s=1800.0),
            collected.append,
        )
        sim.run(until=300.0)
        server._wal.checkpoint(server)
        sim.run(until=500.0)
        server._wal.checkpoint(server)
        sim.run(until=650.0)
        server.crash()
        pre = durable_state(server)
        assert pre["accepted_uploads"] > 0
        # Damage the newest checkpoint between crash and restart.
        with open(server._wal.wal.checkpoint_path, "w", encoding="utf-8") as f:
            f.write("{corrupt")
        server.restart()
        post = durable_state(server)
        assert check_recovery_invariants(pre, post) == []
        assert server._wal.wal.fallbacks == 1
        assert server.epoch == 2
        # Collection resumes on the recovered incumbent.
        sim.run(until=1400.0)
        assert server.stats.data_points > pre["accepted_uploads"] - 1
        server.shutdown()

    def test_violations_are_structured_and_stringly(self):
        """check_recovery_invariants returns RecoveryViolation records:
        each is a str (backward compat — joins, substring asserts and
        ``== []`` all keep working) carrying a stable code and the
        offending keys for programmatic consumers."""
        base = {
            "accepted_uploads": 3,
            "requests_satisfied": 1,
            "burned_upload_ids": ["a", "b", "c"],
            "devices": {"d0": {"times_selected": 2}},
            "tasks": {},
            "assignments": {},
            "epoch": 1,
        }
        post = dict(base)
        post["burned_upload_ids"] = ["b", "c", "ghost"]
        post["epoch"] = 5
        violations = check_recovery_invariants(base, post)
        codes = {v.code for v in violations}
        assert codes == {"KEYS_RESURRECTED", "KEYS_CONJURED", "EPOCH_SKEW"}
        by_code = {v.code: v for v in violations}
        assert isinstance(by_code["KEYS_RESURRECTED"], RecoveryViolation)
        assert isinstance(by_code["KEYS_RESURRECTED"], str)
        assert by_code["KEYS_RESURRECTED"].keys == ("a",)
        assert by_code["KEYS_CONJURED"].keys == ("ghost",)
        assert "resurrected" in by_code["KEYS_RESURRECTED"]
        assert "\n".join(violations)  # string view survives joining
        record = by_code["EPOCH_SKEW"].as_dict()
        assert record["code"] == "EPOCH_SKEW"
        assert record["message"] == str(by_code["EPOCH_SKEW"])

    def test_violation_codes_cover_each_divergence(self):
        base = {
            "accepted_uploads": 3,
            "requests_satisfied": 1,
            "burned_upload_ids": [],
            "devices": {"d0": {"times_selected": 2}},
            "tasks": {"t1": "spec"},
            "assignments": {"r1": ["d0"]},
            "epoch": 1,
        }
        cases = {
            "UPLOADS_DIVERGED": {"accepted_uploads": 99},
            "SATISFIED_DIVERGED": {"requests_satisfied": 0},
            "DEVICE_SET_DIVERGED": {"devices": {}},
            "DEVICE_RECORD_DIVERGED": {
                "devices": {"d0": {"times_selected": 7}}
            },
            "TASKS_DIVERGED": {"tasks": {}},
            "ASSIGNMENT_ONE_SIDED": {"assignments": {}},
            "ASSIGNMENT_DIVERGED": {"assignments": {"r1": ["d9"]}},
        }
        for expected_code, mutation in cases.items():
            post = dict(base)
            post["epoch"] = 2  # correct advance; isolate the mutation
            post.update(mutation)
            codes = {v.code for v in check_recovery_invariants(base, post)}
            assert expected_code in codes, (expected_code, codes)

    def test_clean_recovery_is_empty_list(self):
        base = {
            "accepted_uploads": 0,
            "requests_satisfied": 0,
            "burned_upload_ids": [],
            "devices": {},
            "tasks": {},
            "assignments": {},
            "epoch": 1,
        }
        post = dict(base)
        post["epoch"] = 2
        assert check_recovery_invariants(base, post) == []

    def test_recovery_rewrites_a_good_checkpoint(self, tmp_path):
        sim = Simulator(seed=23)
        server, network, _, clients = wal_setup(sim, tmp_path / "wal")
        sim.run(until=100.0)
        server._wal.checkpoint(server)
        server.crash()
        with open(server._wal.wal.checkpoint_path, "w", encoding="utf-8") as f:
            f.write("garbage")
        server.restart()
        # The end-of-recovery compaction installed a fresh, valid,
        # CRC-stamped checkpoint over the damaged one.
        reread = server._wal.wal.load_checkpoint()
        assert reread["epoch"] == server.epoch
        server.shutdown()
