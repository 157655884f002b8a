"""The four end-to-end workloads.

Each workload is a function ``(seed, tmp_dir, observer) -> run`` that
builds its inputs and world from the seed (the *set-up*, which the
harness times as ``setup_s``) and returns ``run(watch)``, which drives the
program through its public API with the timed section inside ``watch``
and returns an :class:`Outcome`.  The shapes live here and nowhere else,
so editing the pytest benchmarks under ``benchmarks/`` cannot move them.

Why these four (see README.md for the full table):

- ``figbook`` — the paper's figure book (Exp 1-3, all four arms), what
  users actually run: RRC, device traffic and event dispatch dominate.
- ``city2k`` — 2,000 devices over a 9 km region: fleet maintenance
  (position/attachment refresh, edge sync) dominates.
- ``durable`` — a 3-shard fleet with a WAL per shard on sqlite, one shard
  hard-killed: WAL appends, failover and selection over hundreds of
  candidates dominate.
- ``svc`` — the asyncio service front over the app server: no simulator
  events at all, so simulator gains must show no change here.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List

from benchmarks.e2e.harness import percentile
from repro.cellular.enodeb import TowerRegistry, grid_towers
from repro.cellular.network import CellularNetwork
from repro.clientlib import SenseAidClient
from repro.core.config import (
    OverloadPolicy,
    RetryPolicy,
    SelectorWeights,
    SenseAidConfig,
    ServerMode,
)
from repro.core.server import SenseAidServer
from repro.core.sharding import ShardedSenseAid, ShardSpec
from repro.core.tasks import TaskSpec
from repro.devices.device import SimDevice
from repro.devices.sensors import SensorType
from repro.environment.campus import STUDY_SITES, Campus
from repro.environment.geometry import Point
from repro.environment.mobility import StaticMobility
from repro.environment.population import PopulationConfig, build_population
from repro.experiments import exp1_radius, exp2_period, exp3_tasks
from repro.experiments.common import ScenarioConfig
from repro.faults import FaultInjector, FaultPlan, reset_global_ids
from repro.runner import ExperimentEngine
from repro.serverlib import CrowdsensingAppServer
from repro.service import (
    AppServerBackend,
    LoadSpec,
    SenseAidService,
    ServiceConfig,
    ServiceRequest,
    build_schedule,
    build_world,
    trace_signature,
)
from repro.sim.engine import Simulator

#: Default ``--seed`` per workload; ``expected.json`` holds the output
#: digests of exactly these seeds.
DEFAULT_SEEDS = {"figbook": 7, "city2k": 13, "durable": 17, "svc": 7}

#: Storage backend each workload runs on, pinned whatever the caller's
#: ``REPRO_DATASTORE`` says.  ``durable`` runs the full sqlite code path on
#: in-memory databases, so disk latency stays out of its wall time.
DATASTORES = {
    "figbook": "memory",
    "city2k": "memory",
    "durable": "sqlite::memory:",
    "svc": "memory",
}

#: On the simulator workloads an operation is one ``Simulator.run`` call:
#: one arm's whole simulation in ``figbook``, one simulated minute of the
#: fleet in ``city2k`` and ``durable``.
SIM_STEP_S = 60.0


@dataclass
class Outcome:
    """What one timed run of a workload produced."""

    #: Wall time of the timed section.
    wall_s: float
    #: Wall time of every operation inside the timed section.
    op_latencies_s: List[float]
    attempted: int
    failed: int
    #: Hex digests of the deterministic outputs, checked against
    #: ``expected.json`` on the default seed and across repeats.
    digests: Dict[str, str]
    #: Counters that repeat exactly for a seed.
    counters: Dict[str, int]
    #: Invariants that must hold on every seed.
    checks: Dict[str, bool]
    #: Diagnostics that vary between runs (svc open-loop numbers).
    diagnostics: Dict[str, float] = field(default_factory=dict)


class Stopwatch:
    """Brackets the timed section; the tracer hooks its start and stop."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.on_start: Callable[[], None] = lambda: None
        self.on_stop: Callable[[], None] = lambda: None
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        self.on_start()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall_s += time.perf_counter() - self._start
        self.on_stop()


def digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _selection_rows(log) -> list:
    return [[e.time, e.request_id, e.task_id, list(e.qualified), list(e.selected)] for e in log]


def _client_totals(stats_list) -> Dict[str, int]:
    names = ("uploads_in_tail", "uploads_piggybacked", "uploads_forced", "uploads_retried")
    return {f"clientlib.{n}": sum(getattr(s, n) for s in stats_list) for n in names}


def _step_until(sim: Simulator, end: float) -> None:
    """Advance ``sim`` to ``end`` one simulated minute (one operation) at a time."""
    t = sim.now
    while t < end:
        t = min(t + SIM_STEP_S, end)
        sim.run(until=t)


# ----------------------------------------------------------------------
# figbook: Exp 1-3 (Figs 7-13), all four arms, five scenario seeds
# ----------------------------------------------------------------------

FIGBOOK_SCENARIOS = 5
#: Arm simulations per scenario: 4 arms x (6 radii + 3 periods + 4 task counts).
FIGBOOK_ARMS = 4 * 13


def figbook(seed: int, tmp_dir: str, observer) -> Callable[[Stopwatch], Outcome]:
    configs = [ScenarioConfig(seed=seed + i) for i in range(FIGBOOK_SCENARIOS)]

    def run(watch: Stopwatch) -> Outcome:
        engine = ExperimentEngine(workers=1)
        rows = []
        with watch:
            for config in configs:
                reset_global_ids()
                r1 = exp1_radius.run(config, engine=engine)
                r2 = exp2_period.run(config, engine=engine)
                r3 = exp3_tasks.run(config, engine=engine)
                rows.append(
                    [r1.fig7_rows(), r1.fig8_rows(), r1.fig9_matrix(), r2.fig10_rows(),
                     r2.fig11_rows(), r3.fig12_rows(), r3.fig13_rows()]
                )
        counters = {**observer.counters(), **_client_totals(observer.client_stats)}
        issued = counters["core.server.requests_issued"]
        return Outcome(
            wall_s=watch.wall_s,
            op_latencies_s=observer.run_latencies,
            attempted=len(observer.run_latencies),
            failed=0,
            digests={"fig7_13_rows": digest(rows)},
            counters=counters,
            checks={
                "uploads_in_tail > 0": counters["clientlib.uploads_in_tail"] > 0,
                "sensing requests issued": issued > 0,
                "every arm ran": len(observer.run_latencies) == FIGBOOK_SCENARIOS * FIGBOOK_ARMS,
            },
        )

    return run


# ----------------------------------------------------------------------
# city2k: 2,000 devices, 5x5 towers, 9 km region
# ----------------------------------------------------------------------

CITY_DEVICES = 2000
CITY_TOWER_ROWS = 5
CITY_SIDE_M = 9000.0
CITY_DURATION_S = 2 * 3600.0


def city_campus() -> Campus:
    """A 9 km x 9 km region: four district centres and a 5x5 waypoint grid."""
    city = Campus(width_m=CITY_SIDE_M, height_m=CITY_SIDE_M)
    quarter, three_quarters = CITY_SIDE_M * 0.25, CITY_SIDE_M * 0.75
    centres = (
        Point(quarter, quarter),
        Point(three_quarters, quarter),
        Point(quarter, three_quarters),
        Point(three_quarters, three_quarters),
    )
    for name, position in zip(STUDY_SITES, centres):
        city.add_site(name, position)
    step = CITY_SIDE_M / 6.0
    for row in range(1, 6):
        for col in range(1, 6):
            city.add_waypoint(Point(col * step, row * step))
    return city


def city2k(seed: int, tmp_dir: str, observer) -> Callable[[Stopwatch], Outcome]:
    reset_global_ids()
    sim = Simulator(seed=seed)
    campus = city_campus()
    registry = TowerRegistry(
        grid_towers(campus.width_m, campus.height_m, rows=CITY_TOWER_ROWS, cols=CITY_TOWER_ROWS)
    )
    network = CellularNetwork(sim)
    fleet = build_population(
        sim, campus, PopulationConfig(size=CITY_DEVICES, site_home_fraction=0.2)
    )
    server = SenseAidServer(sim, registry, network, SenseAidConfig(mode=ServerMode.COMPLETE))
    for device in fleet:
        SenseAidClient(sim, device, server, network).register()
    app = CrowdsensingAppServer(server, "city-scale")
    for site in STUDY_SITES:
        app.task(
            SensorType.BAROMETER,
            campus.site(site).position,
            area_radius_m=800.0,
            spatial_density=5,
            sampling_period_s=300.0,
            sampling_duration_s=CITY_DURATION_S,
        )

    def run(watch: Stopwatch) -> Outcome:
        with watch:
            _step_until(sim, CITY_DURATION_S + 60.0)
            server.shutdown()
        counters = {**observer.counters(), **_client_totals(observer.client_stats)}
        stats = server.stats
        return Outcome(
            wall_s=watch.wall_s,
            op_latencies_s=observer.run_latencies,
            attempted=len(observer.run_latencies),
            failed=0,
            digests={
                "selection_log+stats": digest(
                    [_selection_rows(server.selection_log), asdict(stats)]
                )
            },
            counters=counters,
            checks={
                "uploads_in_tail > 0": counters["clientlib.uploads_in_tail"] > 0,
                "every request scheduled": stats.requests_scheduled == stats.requests_issued > 0,
                "data delivered": stats.data_points > 0,
            },
        )

    return run


# ----------------------------------------------------------------------
# durable: 3 WAL-backed shards on sqlite, one hard-killed mid-campaign
# ----------------------------------------------------------------------

DURABLE_SITES = (
    ("s1", Point(500.0, 500.0)),
    ("s2", Point(1500.0, 500.0)),
    ("s3", Point(2500.0, 500.0)),
)
DURABLE_DEVICES = 600
DURABLE_DENSITY = 20
DURABLE_PERIOD_S = 30.0
DURABLE_DURATION_S = 2 * 3600.0
DURABLE_CRASH_AT = 1040.0
DURABLE_VICTIM = "s2"
#: Fairness-dominant selection, so WAL replay restores the selector exactly.
DURABLE_WEIGHTS = SelectorWeights(alpha=0.0, beta=1.0, gamma=0.0, phi=0.0)
DURABLE_RETRY = RetryPolicy(
    max_attempts=6,
    ack_timeout_s=20.0,
    backoff_base_s=15.0,
    backoff_multiplier=2.0,
    jitter_fraction=0.0,
    tail_wait_max_s=30.0,
)


def durable(seed: int, tmp_dir: str, observer) -> Callable[[Stopwatch], Outcome]:
    reset_global_ids()
    sim = Simulator(seed=seed)
    network = CellularNetwork(sim)
    fleet = ShardedSenseAid(
        sim,
        network,
        [ShardSpec(sid, site) for sid, site in DURABLE_SITES],
        SenseAidConfig(mode=ServerMode.COMPLETE, weights=DURABLE_WEIGHTS),
        wal_root=os.path.join(tmp_dir, "wal"),
        heartbeat_period_s=5.0,
        phi_threshold=8.0,
        min_std_s=0.5,
        redirect_latency_s=0.05,
    )
    rng = random.Random(seed)
    clients = []
    for i in range(DURABLE_DEVICES):
        _, site = DURABLE_SITES[i % len(DURABLE_SITES)]
        position = Point(site.x + rng.uniform(-300.0, 300.0), site.y + rng.uniform(-300.0, 300.0))
        device = SimDevice(sim, f"d{i:04d}", mobility=StaticMobility(position))
        device.traffic.start()
        client = SenseAidClient(
            sim, device, fleet.instance(DURABLE_SITES[0][0]), network, retry_policy=DURABLE_RETRY
        )
        fleet.register(client)
        clients.append(client)
    delivered: list = []
    handles = [
        fleet.submit_task(
            TaskSpec(
                sensor_type=SensorType.BAROMETER,
                center=site,
                area_radius_m=500.0,
                spatial_density=DURABLE_DENSITY,
                sampling_period_s=DURABLE_PERIOD_S,
                start_time=0.0,
                end_time=DURABLE_DURATION_S,
            ),
            delivered.append,
        )
        for _, site in DURABLE_SITES
    ]
    FaultInjector(
        sim, network, fleet=fleet, plan=FaultPlan().shard_crash(DURABLE_CRASH_AT, DURABLE_VICTIM)
    )

    def run(watch: Stopwatch) -> Outcome:
        with watch:
            _step_until(sim, DURABLE_DURATION_S + 600.0)
            repair = fleet.repair()
            fleet.shutdown()
        lost = fleet.acked_upload_audit()
        acked = sum(len(c.acked_uploads) for c in clients)
        counters = {
            **observer.counters(),
            **_client_totals([c.stats for c in clients]),
            "core.sharding.failovers": fleet.failovers,
            "durable.acked_uploads": acked,
        }
        selections = {
            sid: _selection_rows(fleet.instance(sid).selection_log) for sid in fleet.shard_ids()
        }
        return Outcome(
            wall_s=watch.wall_s,
            op_latencies_s=observer.run_latencies,
            attempted=len(observer.run_latencies),
            failed=0,
            digests={
                "selection_log": digest(selections),
                "delivered": digest([[h.points, h.degraded_points] for h in handles]),
            },
            counters=counters,
            checks={
                "uploads_in_tail > 0": counters["clientlib.uploads_in_tail"] > 0,
                "failovers == 1": fleet.failovers == 1,
                "repair clean": bool(repair["clean"]),
                "0 lost acked uploads": not lost and acked > 0,
            },
        )

    return run


# ----------------------------------------------------------------------
# svc: the asyncio service front, closed loop then open loop
# ----------------------------------------------------------------------

SVC_CLOSED_REQUESTS = 50_000
SVC_CLIENTS = 2
SVC_OPEN_REQUESTS = 4_000
SVC_OPEN_RATE_RPS = 4000.0
#: An open-loop request meets its SLO when answered OK this soon after
#: it was due.
SVC_SLO_S = 0.010
SVC_CONFIG = ServiceConfig(
    queue_capacity=10_000,
    consumers=2,
    concurrency_slots=2,
    service_time_s=0.0,
    overload=OverloadPolicy(queue_capacity=10_000, service_rate_per_s=100_000.0),
)


def _request(tag: str, planned) -> ServiceRequest:
    return ServiceRequest(
        request_id=f"{tag}{planned.index:08d}", kind=planned.kind, app="e2e",
        payload=dict(planned.payload),
    )


async def closed_loop(service: SenseAidService, schedule, clients: int):
    """``clients`` callers, each sending its next request when the last returns.

    Returns ``(responses, latencies_s)``; latency is timed from send.
    """
    responses, latencies = [], []
    pending = iter(schedule)

    async def client() -> None:
        for planned in pending:
            sent = time.perf_counter()
            response = await service.submit(planned.kind, request=_request("a", planned))
            latencies.append(time.perf_counter() - sent)
            responses.append(response)

    await asyncio.gather(*(client() for _ in range(clients)))
    return responses, latencies


async def open_loop(service: SenseAidService, schedule, slo_s: float) -> Dict[str, float]:
    """Send each request when due, whether or not earlier ones finished.

    Every request is timed from its *due* time, so a stall charges the
    requests queued behind it; a shed or failed request misses the SLO.
    """
    loop = asyncio.get_running_loop()
    start = time.perf_counter()
    met = 0
    not_ok = 0
    max_late = 0.0

    async def send(planned, due: float) -> None:
        nonlocal met, not_ok
        response = await service.submit(planned.kind, request=_request("b", planned))
        if not response.ok:
            not_ok += 1
        elif time.perf_counter() - due <= slo_s:
            met += 1

    tasks = []
    for planned in schedule:
        due = start + planned.offset_s
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        max_late = max(max_late, time.perf_counter() - due)
        tasks.append(loop.create_task(send(planned, due)))
    await asyncio.gather(*tasks)
    return {
        "sent": len(tasks),
        "not_ok": not_ok,
        "slo_frac": met / len(tasks),
        "max_late_ms": max_late * 1e3,
    }


def svc(seed: int, tmp_dir: str, observer) -> Callable[[Stopwatch], Outcome]:
    closed_schedule = build_schedule(
        LoadSpec(seed=seed, n_requests=SVC_CLOSED_REQUESTS, mode="closed", concurrency=SVC_CLIENTS)
    )
    open_schedule = build_schedule(
        LoadSpec(
            seed=seed + 1, n_requests=SVC_OPEN_REQUESTS, mode="open", rate_rps=SVC_OPEN_RATE_RPS
        )
    )
    sim, _, cas = build_world(seed=seed)
    service = SenseAidService(AppServerBackend(sim, cas).handle, SVC_CONFIG)

    async def drive(watch: Stopwatch):
        async with service:
            with watch:
                responses, latencies = await closed_loop(service, closed_schedule, SVC_CLIENTS)
            open_stats = await open_loop(service, open_schedule, SVC_SLO_S)
        return responses, latencies, open_stats

    def run(watch: Stopwatch) -> Outcome:
        responses, latencies, open_stats = asyncio.run(drive(watch))
        ok = sum(1 for r in responses if r.ok)
        waits = [r.queue_delay_s for r in responses if r.ok]
        accounted = True
        try:
            service.ledger.assert_accounted()
        except AssertionError:
            accounted = False
        return Outcome(
            wall_s=watch.wall_s,
            op_latencies_s=latencies,
            attempted=len(responses) + int(open_stats["sent"]),
            failed=(len(responses) - ok) + int(open_stats["not_ok"]),
            digests={
                "schedules": digest(
                    [trace_signature(closed_schedule), trace_signature(open_schedule)]
                )
            },
            counters={
                **observer.counters(),
                "service.ledger.records": len(service.ledger.records),
            },
            checks={
                "ledger accounted": accounted,
                "ok == attempted in closed loop": ok == len(closed_schedule),
                "open loop all answered": open_stats["sent"] == len(open_schedule),
            },
            diagnostics={
                "service.queue_wait_us.p50": percentile(waits, 50.0) * 1e6,
                "service.queue_wait_us.p99": percentile(waits, 99.0) * 1e6,
                "service.loadgen.max_late_ms": open_stats["max_late_ms"],
                "service.slo_frac": open_stats["slo_frac"],
            },
        )

    return run


WORKLOADS = {"figbook": figbook, "city2k": city2k, "durable": durable, "svc": svc}
