"""Benchmark: the pluggable storage layer's scorecard (BENCH_storage).

Three tiers, three gates:

1. **Overhead** — the same campaign runs on the in-memory backend and
   on sqlite; the sqlite wall-clock must stay within 5× of memory
   (the on-disk backend is allowed to cost something, not to change
   the system's complexity class).
2. **Identity** — the two campaigns must produce bit-identical worlds
   (selection log, stored readings, device records, stats).  The
   hypothesis suite proves this over random campaigns; the scorecard
   pins one deterministic witness.
3. **Bounded-memory streaming** — writing and then folding 10× the
   readings through the streaming mean on sqlite must keep
   the traced Python heap peak flat (≤1.5× growth): readings live on
   disk, never as a materialised list.

Measured wall-clock numbers and machine-dependent ratios are recorded
for observability but skipped by ``repro bench compare``; the
``gates.*`` constants are compared at zero tolerance so a gate change
is always a reviewed, deliberate act.
"""

from __future__ import annotations

import dataclasses
import time
import tracemalloc

from benchmarks.conftest import run_once, write_artifact
from repro.analysis.streaming import StreamingMean
from repro.cellular.enodeb import ENodeB, TowerRegistry
from repro.cellular.network import CellularNetwork
from repro.cellular.packets import reset_message_ids
from repro.clientlib import SenseAidClient
from repro.core.config import SenseAidConfig, ServerMode
from repro.core.datastores import record_to_dict
from repro.core.server import SenseAidServer
from repro.core.tasks import reset_task_ids
from repro.devices.sensors import SensorType
from repro.environment.geometry import Point
from repro.serverlib.appserver import CrowdsensingAppServer, point_from_dict
from repro.sim.engine import Simulator
from repro.storage import MemoryBackend, SqliteBackend

CENTER = Point(500.0, 500.0)
SEED = 23
N_DEVICES = 16
N_TASKS = 3
PERIOD_S = 120.0
ROUNDS = 40

#: The sqlite backend may cost at most this multiple of memory.
MAX_SQLITE_OVERHEAD = 5.0
#: Traced-heap peak growth allowed when the reading volume grows 10×.
MAX_STREAM_PEAK_GROWTH = 1.5

BASE_READINGS = 10_000
SCALE = 10


def _make_backend(kind: str, tmp_dir):
    if kind == "memory":
        return MemoryBackend()
    return SqliteBackend(str(tmp_dir / f"{kind}-{time.monotonic_ns()}.sqlite3"))


def run_campaign(backend):
    """One deterministic campaign; returns (wall_s, fingerprint)."""
    reset_task_ids()
    reset_message_ids()
    started = time.perf_counter()
    sim = Simulator(seed=SEED)
    registry = TowerRegistry([ENodeB("t0", CENTER, coverage_radius_m=5000.0)])
    network = CellularNetwork(sim)
    server = SenseAidServer(
        sim,
        registry,
        network,
        SenseAidConfig(mode=ServerMode.COMPLETE),
        storage=backend,
    )
    cas = CrowdsensingAppServer(server, "bench")
    for i in range(N_DEVICES):
        from tests.conftest import make_device

        device = make_device(sim, f"d{i}", position=CENTER)
        SenseAidClient(sim, device, server, network).register()
    duration = PERIOD_S * ROUNDS
    for _ in range(N_TASKS):
        cas.task(
            SensorType.BAROMETER,
            CENTER,
            2000.0,
            2,
            sampling_period_s=PERIOD_S,
            sampling_duration_s=duration,
        )
    sim.run(until=duration + 120.0)
    server.shutdown()
    wall_s = time.perf_counter() - started
    fingerprint = {
        "selection_log": [dataclasses.asdict(e) for e in server.selection_log],
        "readings": list(backend.scan_log(cas.readings_ns)),
        "devices": [record_to_dict(r) for r in server.devices.records()],
        "stats": vars(server.stats).copy(),
    }
    summary = {
        "readings": cas.reading_count(),
        "selections": len(server.selection_log),
        "mean_value": cas.mean_value(),
    }
    return wall_s, fingerprint, summary


def _stream_tier(tmp_dir, n_readings: int) -> dict:
    """Write ``n_readings`` to a sqlite log, fold them streamingly, and
    report the traced Python heap peak over the whole pipeline.

    Folds only constant-space state (the mean and the distinct devices
    — the device population is bounded by construction), so a peak
    that grows with n can only come from materialising the log.
    """
    backend = SqliteBackend(
        str(tmp_dir / f"stream-{n_readings}.sqlite3")
    )
    tracemalloc.start()
    for i in range(n_readings):
        backend.append_log(
            "readings:stream",
            {
                "request_id": f"task1-r{i}",
                "task_id": 1,
                "sensor_type": "BAROMETER",
                "value": 1000.0 + (i % 40) * 0.25,
                "sensed_at": float(i),
                "delivered_at": float(i) + 0.4,
                "device_hash": f"h{i % 50}",
            },
            tag="1",
        )
    backend.flush()
    mean = StreamingMean()
    devices = set()
    for doc in backend.scan_log("readings:stream"):
        point = point_from_dict(doc)
        mean.add(point.value)
        devices.add(point.device_hash)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    backend.close()
    assert mean.count == n_readings
    return {
        "readings": n_readings,
        "peak_kb": peak / 1024.0,
        "mean_value": mean.mean,
        "distinct_devices": len(devices),
    }


def _run_suite(tmp_dir) -> dict:
    memory_wall, memory_world, memory_summary = run_campaign(
        _make_backend("memory", tmp_dir)
    )
    sqlite_wall, sqlite_world, sqlite_summary = run_campaign(
        _make_backend("sqlite", tmp_dir)
    )
    identical = memory_world == sqlite_world
    overhead = sqlite_wall / memory_wall
    base = _stream_tier(tmp_dir, BASE_READINGS)
    big = _stream_tier(tmp_dir, BASE_READINGS * SCALE)
    growth = big["peak_kb"] / base["peak_kb"]
    return {
        "campaign": {
            **memory_summary,
            "memory_wall_s": memory_wall,
            "sqlite_wall_s": sqlite_wall,
        },
        "sqlite_overhead_ratio": overhead,
        "identity": {"cross_backend_identical": int(identical)},
        "streaming": {
            "base": base,
            "big": big,
            "peak_growth_ratio": growth,
        },
        "gates": {
            "max_sqlite_overhead_ratio": MAX_SQLITE_OVERHEAD,
            "max_stream_peak_growth": MAX_STREAM_PEAK_GROWTH,
            "cross_backend_identical": int(identical),
        },
    }


def test_storage(benchmark, tmp_path):
    metrics = run_once(benchmark, _run_suite, tmp_path)
    benchmark.extra_info.update(
        {
            "sqlite_overhead_ratio": metrics["sqlite_overhead_ratio"],
            "identical": metrics["identity"]["cross_backend_identical"],
        }
    )
    write_artifact("BENCH_storage", metrics)

    # Gate 1: sqlite pays at most 5× the in-memory wall clock.
    assert metrics["sqlite_overhead_ratio"] <= MAX_SQLITE_OVERHEAD, (
        f"sqlite overhead {metrics['sqlite_overhead_ratio']:.2f}× exceeds "
        f"{MAX_SQLITE_OVERHEAD}× the memory backend"
    )
    # Gate 2: the two backends produced bit-identical worlds.
    assert metrics["identity"]["cross_backend_identical"] == 1
    # Gate 3: 10× the readings, flat streaming memory.
    growth = metrics["streaming"]["peak_growth_ratio"]
    assert growth <= MAX_STREAM_PEAK_GROWTH, (
        f"streaming peak grew {growth:.2f}× on {SCALE}× readings "
        f"(limit {MAX_STREAM_PEAK_GROWTH}×) — something materialises"
    )
    # The aggregates themselves must agree across scales' shared prefix
    # construction (sanity that the fold actually ran).
    assert metrics["streaming"]["big"]["readings"] == BASE_READINGS * SCALE
