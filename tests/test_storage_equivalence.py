"""Property-based proof that the storage backends are interchangeable.

Each example draws a random campaign (devices, tasks, densities,
periods, an optional mid-run kill-and-recover point) and runs it twice
— once on the in-memory backend, once on sqlite — then asserts the two
worlds are **bit-identical**: the selection log, every stored reading,
the device and task datastores (through their codecs), server stats,
and the derived analysis outputs.  Floats are compared exactly, not
approximately: both backends must perform the same arithmetic in the
same order, or they are not the same system.

The fingerprint also counts the clients' tail, piggyback and forced
uploads, and one pinned campaign asserts that each kind happened: a
proof over campaigns that never time an upload to a radio tail would
say nothing about Sense-Aid.
"""

from __future__ import annotations

import dataclasses
import math
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cellular.enodeb import ENodeB, TowerRegistry
from repro.cellular.network import CellularNetwork
from repro.cellular.packets import reset_message_ids
from repro.clientlib.client import SenseAidClient
from repro.core.config import SenseAidConfig, ServerMode
from repro.core.datastores import record_to_dict, task_to_dict
from repro.core.server import SenseAidServer
from repro.core.tasks import reset_task_ids
from repro.core.wal import DurableLog
from repro.environment.geometry import Point
from repro.serverlib.appserver import CrowdsensingAppServer
from repro.sim.engine import Simulator
from repro.storage import MemoryBackend, SqliteBackend
from repro.devices.sensors import SensorType
from tests.conftest import make_device

CENTER = Point(500.0, 500.0)

campaign_strategy = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=10_000),
        "n_devices": st.integers(min_value=2, max_value=6),
        "n_tasks": st.integers(min_value=1, max_value=3),
        "density": st.integers(min_value=1, max_value=3),
        "period_s": st.sampled_from([120.0, 300.0, 600.0]),
        "ticks": st.integers(min_value=1, max_value=3),
        "spread_m": st.floats(min_value=0.0, max_value=1200.0),
        "restart_tick": st.one_of(
            st.none(), st.floats(min_value=0.3, max_value=0.9)
        ),
    }
)

#: Upload kinds the fingerprint counts, summed over clients.
UPLOAD_KINDS = ("uploads_in_tail", "uploads_piggybacked", "uploads_forced")


def _make_backend(kind: str):
    if kind == "memory":
        return MemoryBackend()
    root = tempfile.mkdtemp(prefix="repro-equiv-")
    return SqliteBackend(f"{root}/campaign.sqlite3")


def run_campaign(params, backend_kind: str) -> dict:
    """Run one campaign on a backend; return its full fingerprint."""
    reset_task_ids()
    reset_message_ids()
    storage = _make_backend(backend_kind)
    wal = None
    if params["restart_tick"] is not None:
        wal = DurableLog(tempfile.mkdtemp(prefix="repro-equiv-wal-"))
    sim = Simulator(seed=params["seed"])
    registry = TowerRegistry([ENodeB("t0", CENTER, coverage_radius_m=10_000.0)])
    network = CellularNetwork(sim)
    server = SenseAidServer(
        sim,
        registry,
        network,
        SenseAidConfig(mode=ServerMode.COMPLETE),
        wal=wal,
        storage=storage,
    )
    cas = CrowdsensingAppServer(server, "equiv")
    rng = sim.rng.stream("scenario")
    clients = []
    for i in range(params["n_devices"]):
        offset = params["spread_m"] * rng.random()
        angle = rng.random() * 6.283185
        position = Point(
            CENTER.x + offset * math.cos(angle),
            CENTER.y + offset * math.sin(angle),
        )
        device = make_device(sim, f"d{i}", position=position)
        client = SenseAidClient(sim, device, server, network)
        client.register()
        clients.append(client)
    duration = params["period_s"] * params["ticks"]
    for _ in range(params["n_tasks"]):
        cas.task(
            SensorType.BAROMETER,
            CENTER,
            2000.0,
            params["density"],
            sampling_period_s=params["period_s"],
            sampling_duration_s=duration,
        )
    if params["restart_tick"] is not None:
        # Kill-and-recover mid-campaign: checkpoint, cold restart,
        # WAL replay — at the same instant on both backends.
        def kill_and_recover():
            wal.checkpoint(server)
            server.restart()

        sim.schedule_at(duration * params["restart_tick"], kill_and_recover)
    sim.run(until=duration + 120.0)
    server.shutdown()
    return fingerprint(server, cas, clients)


def fingerprint(
    server: SenseAidServer, cas: CrowdsensingAppServer, clients: list
) -> dict:
    """Everything two equivalent worlds must agree on, bit for bit."""
    return {
        "selection_log": [dataclasses.asdict(e) for e in server.selection_log],
        "readings_stored": list(server.storage.scan_log(cas.readings_ns)),
        "devices": [record_to_dict(r) for r in server.devices.records()],
        "tasks": [task_to_dict(t) for t in server.tasks.all_tasks()],
        "stats": vars(server.stats).copy(),
        "epoch": server.epoch,
        "selections_per_device": server.selections_per_device(),
        "mean_value": cas.mean_value(),
        "per_task_means": {
            task_id: cas.mean_value(task_id) for task_id in cas.task_ids
        },
        "distinct_devices": cas.distinct_devices(),
        "reading_count": cas.reading_count(),
        "uploads": {
            kind: sum(getattr(c.stats, kind) for c in clients)
            for kind in UPLOAD_KINDS
        },
    }


@settings(max_examples=15, deadline=None)
@given(campaign_strategy)
def test_backends_are_bit_identical(params):
    memory_world = run_campaign(params, "memory")
    sqlite_world = run_campaign(params, "sqlite")
    # Key-by-key comparison so a failure names the diverging facet.
    assert memory_world.keys() == sqlite_world.keys()
    for facet in memory_world:
        assert memory_world[facet] == sqlite_world[facet], facet


def test_pinned_campaign_exercises_the_mechanism():
    """One campaign that makes every kind of upload and restarts the
    server mid-run, and still agrees bit for bit across backends."""
    params = {
        "seed": 7,
        "n_devices": 5,
        "n_tasks": 3,
        "density": 2,
        "period_s": 120.0,
        "ticks": 2,
        "spread_m": 600.0,
        "restart_tick": 0.5,
    }
    memory_world = run_campaign(params, "memory")
    sqlite_world = run_campaign(params, "sqlite")
    for kind in UPLOAD_KINDS:
        assert memory_world["uploads"][kind] > 0, kind
    assert memory_world["epoch"] >= 2
    assert memory_world == sqlite_world


@settings(max_examples=5, deadline=None)
@given(campaign_strategy)
def test_memory_backend_matches_itself(params):
    """Determinism control: the comparison machinery itself is sound
    (a flaky campaign would false-positive the cross-backend test)."""
    first = run_campaign(params, "memory")
    second = run_campaign(params, "memory")
    assert first == second
