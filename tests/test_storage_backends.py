"""Tests for the pluggable storage layer: backend conformance, the
``REPRO_DATASTORE`` factory, datastore order across a WAL restore on
every backend, what a server leaves on its backend (app readings
only), and duplicate-upload idempotency across a WAL checkpoint and
restore on every backend."""

from __future__ import annotations

import pytest

from repro.cellular.enodeb import ENodeB, TowerRegistry
from repro.cellular.network import CellularNetwork, DeliveryReceipt
from repro.cellular.packets import Message, MessageKind
from repro.clientlib.client import SenseAidClient
from repro.core.config import SenseAidConfig, ServerMode
from repro.core.datastores import DeviceRecord, record_from_dict, record_to_dict
from repro.core.server import SenseAidServer
from repro.core.wal import DurableLog
from repro.devices.sensors import SensorType
from repro.serverlib.appserver import CrowdsensingAppServer
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
from tests.test_core_server import CENTER, make_spec


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


def _wal_server(storage, wal_dir):
    """A Complete-mode server over ``storage`` with a WAL in ``wal_dir``."""
    sim = Simulator()
    registry = TowerRegistry([ENodeB("t0", CENTER, coverage_radius_m=5000.0)])
    network = CellularNetwork(sim)
    server = SenseAidServer(
        sim,
        registry,
        network,
        SenseAidConfig(mode=ServerMode.COMPLETE),
        wal=DurableLog(str(wal_dir)),
        storage=storage,
    )
    return sim, network, server


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
    def test_iteration_order_is_sorted_and_stable(self, backend, tmp_path):
        """The selector ranks ``records()``; insertion order must never
        leak into it — both the live store and the one a restart
        rebuilds from the WAL iterate in sorted device-id order."""
        sim, network, server = _wal_server(backend, tmp_path / "wal")
        for device_id in ["d7", "d0", "d12", "d3"]:
            device = make_device(sim, device_id, position=CENTER)
            SenseAidClient(sim, device, server, network).register()
        expected = sorted(["d7", "d0", "d12", "d3"])
        assert [r.device_id for r in server.devices.records()] == expected
        assert server.devices.device_ids() == expected
        server._wal.checkpoint(server)
        server.restart()
        assert [r.device_id for r in server.devices.records()] == expected
        assert server.devices.device_ids() == expected

    def test_record_codec_round_trips(self):
        record = _record("d0", battery_pct=42.5)
        record.missed_deliveries = 2
        assert record_from_dict(record_to_dict(record)) == record


class TestTaskDatastoreOnBackend:
    def test_numeric_order_survives_key_encoding(self, backend, tmp_path):
        """The WAL keys callbacks by ``str(task_id)`` and writes ids
        through JSON; the restored store must still list tasks in
        numeric order — id 10 after id 9, not before id 2."""
        sim, _, server = _wal_server(backend, tmp_path / "wal")
        for task_id in [10, 2, 9, 1]:
            server.submit_task(make_spec(task_id=task_id), lambda p: None)
        assert [t.task_id for t in server.tasks.all_tasks()] == [1, 2, 9, 10]
        sim.run(until=100.0)
        server._wal.checkpoint(server)
        server.restart()
        assert [t.task_id for t in server.tasks.all_tasks()] == [1, 2, 9, 10]


def _app_campaign(storage, wal_dir):
    """Two clients and an app server over ``storage``, a WAL in
    ``wal_dir``, and a 600 s campaign run to t = 700 s."""
    sim, network, server = _wal_server(storage, wal_dir)
    for i in range(2):
        device = make_device(sim, f"d{i}", position=CENTER)
        SenseAidClient(sim, device, server, network).register()
    cas = CrowdsensingAppServer(server, "cas")
    cas.task(
        SensorType.BAROMETER,
        CENTER,
        1000.0,
        2,
        sampling_period_s=300.0,
        sampling_duration_s=600.0,
    )
    sim.run(until=700.0)
    return server, cas


class TestServerOnBackends:
    def test_backend_holds_only_app_readings(self, backend, tmp_path):
        """The WAL is the server's durable copy: after a campaign, a
        checkpoint and a cold restart, the backend holds the app's
        readings log and nothing of the server's own state."""
        server, cas = _app_campaign(backend, tmp_path / "wal")
        assert cas.reading_count() > 0
        server._wal.checkpoint(server)
        server.restart()
        assert backend.namespaces() == {"docs": [], "logs": [cas.readings_ns]}

    @pytest.mark.parametrize("spec", ["memory", "sqlite"])
    def test_shutdown_flushes_but_keeps_backend_readable(
        self, spec, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(DATASTORE_ENV, spec)
        monkeypatch.setenv(DATASTORE_DIR_ENV, str(tmp_path))
        server, cas = _app_campaign(None, tmp_path / "wal")
        assert server.storage.name == spec
        server.shutdown()
        # Post-shutdown the backend still serves every flushed reading.
        assert server.storage.log_count(cas.readings_ns) == cas.reading_count() > 0

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
