"""Tests for the pluggable storage layer: backend conformance, the
``REPRO_DATASTORE`` factory, datastore write-through/hydration, and
the ISSUE's edge cases (delete-then-reinsert, duplicate-upload
idempotency across checkpoint/restore, selector iteration order)."""

from __future__ import annotations

import pytest

from repro.cellular.enodeb import ENodeB, TowerRegistry
from repro.cellular.network import CellularNetwork, DeliveryReceipt
from repro.cellular.packets import Message, MessageKind
from repro.clientlib.client import SenseAidClient
from repro.core.config import SenseAidConfig, ServerMode
from repro.core.datastores import (
    DeviceDatastore,
    DeviceRecord,
    TaskDatastore,
    record_from_dict,
    record_to_dict,
)
from repro.core.server import SenseAidServer
from repro.core.wal import DurableLog
from repro.devices.sensors import SensorType
from repro.sim.engine import Simulator
from repro.storage import (
    DATASTORE_DIR_ENV,
    DATASTORE_ENV,
    MemoryBackend,
    SqliteBackend,
    check_backend_conformance,
    default_spec,
    resolve_backend,
)
from tests.conftest import make_device
from tests.test_core_server import CENTER, make_setup, make_spec


def _memory_factory():
    return MemoryBackend()


def _sqlite_factory(tmp_path, counter=[0]):
    counter[0] += 1
    return SqliteBackend(str(tmp_path / f"conf-{counter[0]}.sqlite3"))


BACKEND_PARAMS = ["memory", "sqlite"]


@pytest.fixture(params=BACKEND_PARAMS)
def backend_factory(request, tmp_path):
    """A zero-arg factory producing fresh, independent backends."""
    if request.param == "memory":
        return _memory_factory
    return lambda: _sqlite_factory(tmp_path)


@pytest.fixture(params=BACKEND_PARAMS)
def backend(request, tmp_path):
    if request.param == "memory":
        return MemoryBackend()
    return SqliteBackend(str(tmp_path / "store.sqlite3"))


class TestConformance:
    def test_backend_passes_conformance_kit(self, backend_factory):
        check_backend_conformance(backend_factory)


class TestFactory:
    def test_default_is_memory(self, monkeypatch):
        monkeypatch.delenv(DATASTORE_ENV, raising=False)
        assert default_spec() == "memory"
        assert resolve_backend().name == "memory"

    def test_env_selects_sqlite(self, monkeypatch, tmp_path):
        monkeypatch.setenv(DATASTORE_ENV, "sqlite")
        monkeypatch.setenv(DATASTORE_DIR_ENV, str(tmp_path))
        backend = resolve_backend()
        assert backend.name == "sqlite"
        assert backend.path.startswith(str(tmp_path))

    def test_each_resolution_is_independent(self, monkeypatch, tmp_path):
        monkeypatch.setenv(DATASTORE_ENV, "sqlite")
        monkeypatch.setenv(DATASTORE_DIR_ENV, str(tmp_path))
        a, b = resolve_backend(), resolve_backend()
        assert a.path != b.path
        a.put_doc("ns", "k", {"v": 1})
        assert b.get_doc("ns", "k") is None

    def test_explicit_sqlite_path(self, tmp_path):
        path = str(tmp_path / "pinned.sqlite3")
        backend = resolve_backend(f"sqlite:{path}")
        assert backend.path == path

    def test_unknown_spec_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(DATASTORE_ENV, "redis")
        with pytest.raises(ValueError, match="redis"):
            resolve_backend()
        with pytest.raises(ValueError):
            resolve_backend("sqlite:")


def _record(device_id: str, **overrides) -> DeviceRecord:
    defaults = dict(
        device_id=device_id,
        imei_hash=f"hash-{device_id}",
        device_model="pixel",
        energy_budget_j=50.0,
        critical_battery_pct=20.0,
        sensors=frozenset({SensorType.BAROMETER}),
    )
    defaults.update(overrides)
    return DeviceRecord(**defaults)


class TestDeviceDatastoreOnBackend:
    def test_write_through_and_hydration(self, backend):
        store = DeviceDatastore(backend=backend)
        store.register(_record("d0", battery_pct=73.0))
        store.register(_record("d1"))
        # A second datastore on the same backend sees the same world.
        rehydrated = DeviceDatastore(backend=backend)
        assert rehydrated.device_ids() == ["d0", "d1"]
        assert rehydrated.record("d0").battery_pct == 73.0

    def test_flush_captures_attribute_mutations(self, backend):
        store = DeviceDatastore(backend=backend)
        store.register(_record("d0"))
        store.record("d0").times_selected = 7
        # Mutation bypassed the datastore API: visible only after flush.
        assert backend.get_doc("devices", "d0")["times_selected"] == 0
        store.flush()
        assert backend.get_doc("devices", "d0")["times_selected"] == 7
        assert DeviceDatastore(backend=backend).record("d0").times_selected == 7

    def test_delete_then_reinsert_same_id(self, backend):
        """A device id freed by deregister is fully reusable, and the
        reinserted record does not inherit any old state."""
        store = DeviceDatastore(backend=backend)
        store.register(_record("d0", battery_pct=10.0))
        store.record("d0").times_selected = 9
        store.flush()
        store.deregister("d0")
        assert not backend.has_doc("devices", "d0")
        store.register(_record("d0", battery_pct=95.0))
        assert store.record("d0").times_selected == 0
        assert backend.get_doc("devices", "d0")["battery_pct"] == 95.0
        rehydrated = DeviceDatastore(backend=backend)
        assert rehydrated.record("d0").battery_pct == 95.0
        assert rehydrated.record("d0").times_selected == 0

    def test_fresh_clears_namespace(self, backend):
        store = DeviceDatastore(backend=backend)
        store.register(_record("d0"))
        fresh = DeviceDatastore(backend=backend, fresh=True)
        assert len(fresh) == 0
        assert backend.doc_count("devices") == 0

    def test_iteration_order_is_sorted_and_stable(self, backend):
        """The selector ranks ``records()``; insertion order must never
        leak into it — both the live store and a rehydrated one
        iterate in sorted device-id order."""
        store = DeviceDatastore(backend=backend)
        for device_id in ["d7", "d0", "d12", "d3"]:
            store.register(_record(device_id))
        expected = sorted(["d7", "d0", "d12", "d3"])
        assert [r.device_id for r in store.records()] == expected
        assert store.device_ids() == expected
        rehydrated = DeviceDatastore(backend=backend)
        assert [r.device_id for r in rehydrated.records()] == expected

    def test_record_codec_round_trips(self):
        record = _record("d0", battery_pct=42.5)
        record.missed_deliveries = 2
        assert record_from_dict(record_to_dict(record)) == record


class TestTaskDatastoreOnBackend:
    def test_write_through_and_hydration(self, backend):
        store = TaskDatastore(backend=backend)
        spec = make_spec(task_id=3)
        store.add(spec)
        rehydrated = TaskDatastore(backend=backend)
        assert rehydrated.get(3) == spec

    def test_numeric_order_survives_key_encoding(self, backend):
        """Task ids are zero-padded into backend keys so key order is
        numeric order — id 10 must sort after id 9, not before id 2."""
        store = TaskDatastore(backend=backend)
        for task_id in [10, 2, 9, 1]:
            store.add(make_spec(task_id=task_id))
        assert [t.task_id for t in store.all_tasks()] == [1, 2, 9, 10]
        rehydrated = TaskDatastore(backend=backend)
        assert [t.task_id for t in rehydrated.all_tasks()] == [1, 2, 9, 10]

    def test_remove_deletes_from_backend(self, backend):
        store = TaskDatastore(backend=backend)
        store.add(make_spec(task_id=5))
        store.remove(5)
        assert backend.doc_count("tasks") == 0
        assert len(TaskDatastore(backend=backend)) == 0


def _run_campaign(sim, server, until=700.0):
    server.submit_task(make_spec(sampling_duration_s=600.0), lambda p: None)
    sim.run(until=until)


class TestServerOnBackends:
    @pytest.mark.parametrize("spec", ["memory", "sqlite"])
    def test_selection_log_mirrored_to_backend(
        self, spec, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(DATASTORE_ENV, spec)
        monkeypatch.setenv(DATASTORE_DIR_ENV, str(tmp_path))
        sim = Simulator()
        server, _, _, _ = make_setup(sim, n_devices=4)
        _run_campaign(sim, server)
        assert server.storage.name == spec
        stored = list(server.storage.scan_log(server.SELECTION_LOG_NS))
        assert len(stored) == len(server.selection_log) > 0
        for doc, event in zip(stored, server.selection_log):
            assert doc["request_id"] == event.request_id
            assert tuple(doc["selected"]) == event.selected

    @pytest.mark.parametrize("spec", ["memory", "sqlite"])
    def test_shutdown_flushes_but_keeps_backend_readable(
        self, spec, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(DATASTORE_ENV, spec)
        monkeypatch.setenv(DATASTORE_DIR_ENV, str(tmp_path))
        sim = Simulator()
        server, _, _, _ = make_setup(sim, n_devices=4)
        _run_campaign(sim, server)
        server.shutdown()
        # Post-shutdown the backend serves the flushed working set.
        doc = server.storage.get_doc("devices", "d0")
        assert doc["times_selected"] == server.devices.record("d0").times_selected

    @pytest.mark.parametrize("spec_name", ["memory", "sqlite"])
    def test_duplicate_upload_idempotent_across_checkpoint_restore(
        self, spec_name, tmp_path
    ):
        """Replaying an already-accepted upload id — after a WAL
        checkpoint + cold restart — must not double-count data.

        The burned-idempotency-key set is part of durable state, so a
        client retrying a delivery into the restarted incarnation gets
        the duplicate verdict, on every backend.
        """
        spec = (
            "memory"
            if spec_name == "memory"
            else f"sqlite:{tmp_path}/idem.sqlite3"
        )
        storage = resolve_backend(spec)
        sim = Simulator()
        registry = TowerRegistry(
            [ENodeB("t0", CENTER, coverage_radius_m=5000.0)]
        )
        network = CellularNetwork(sim)
        server = SenseAidServer(
            sim,
            registry,
            network,
            SenseAidConfig(mode=ServerMode.COMPLETE),
            wal=DurableLog(str(tmp_path / f"wal-{spec_name}")),
            storage=storage,
        )
        device = make_device(sim, "d0", position=CENTER)
        client = SenseAidClient(sim, device, server, network)
        client.register()
        data = []
        server.submit_task(
            make_spec(spatial_density=1, sampling_duration_s=600.0),
            data.append,
        )
        sim.run(until=700.0)
        assert len(data) == 1  # 1 sampling instant × density 1
        request_id = server.selection_log[-1].request_id
        upload_id = f"d0:{request_id}"
        assert upload_id in server._seen_upload_ids
        before = server.stats.duplicate_uploads
        points_before = server.stats.data_points
        # Checkpoint, kill, recover — then replay the upload id.
        server._wal.checkpoint(server)
        server.restart()
        assert upload_id in server._seen_upload_ids
        replay = Message(
            kind=MessageKind.SENSOR_DATA,
            sender="d0",
            size_bytes=120,
            payload={
                "device_id": "d0",
                "request_id": request_id,
                "upload_id": upload_id,
                "epoch": server.epoch,
                "value": 1000.0,
            },
        )
        receipt = DeliveryReceipt(
            message_id=replay.message_id,
            radio_complete_at=sim.now,
            delivered_at=sim.now,
            path="path2",
        )
        ack = server.receive_sensed_data(replay, receipt)
        assert ack.accepted
        assert ack.reason == "duplicate"
        assert server.stats.duplicate_uploads == before + 1
        assert server.stats.data_points == points_before
        assert len(data) == 1  # no re-delivery to the application
