"""Service-front benchmark — latency, sustained throughput, overload.

The paper frames Sense-Aid as *network as a service*; this benchmark
measures the asyncio service loop that framing implies.  Four tiers
merge into one ``BENCH_service.json`` scorecard:

- **latency** — open-loop arrivals at a rate the admission controller
  and consumers comfortably sustain, so every request is served and
  p50/p99 response latency is the headline.  Gate: p99 under a
  conservative CI ceiling.
- **throughput** — closed-loop workers (send → wait → send) measure
  max sustained RPS through the full submit → admit → queue → execute
  path.  Gate: a conservative floor local runs clear by >10×.
- **overload** — an arrival burst far past the fluid drain rate; the
  point is the backpressure path: sheds carry Retry-After hints sized
  by the admission controller, the generator's
  :class:`~repro.core.config.RetryPolicy` honours them, and the
  lifecycle ledger stays total (nothing skips SHED/FAILED accounting).
- **determinism** — the same seed must produce the same request trace
  (schedule fingerprint) at *any* consumer count, and serial (1
  consumer) vs parallel (8 consumers) execution must produce identical
  per-request outcomes.  The trace signature is committed in the
  baseline and compared exactly.

Wall-clock figures (latencies, achieved RPS) are machine-dependent and
skipped by ``tolerances.json``; the gate constants and determinism
fingerprints are compared exactly.
"""

from __future__ import annotations

import asyncio

from benchmarks.conftest import run_once, write_artifact
from repro.core.config import OverloadPolicy, RetryPolicy
from repro.service import (
    AppServerBackend,
    LoadGenerator,
    LoadSpec,
    SenseAidService,
    ServiceConfig,
    build_schedule,
    build_world,
    trace_signature,
)

#: Admission wide open for the tiers that measure the happy path.
OPEN_ADMISSION = OverloadPolicy(queue_capacity=10_000, service_rate_per_s=100_000.0)

#: Conservative CI gates — local runs clear these by an order of
#: magnitude; they exist to catch gross regressions (an accidental
#: serialization point, a busy-wait, a lost consumer), not to measure.
P99_LATENCY_LIMIT_MS = 250.0
MIN_CLOSED_LOOP_RPS = 300.0

#: The determinism tier's canonical spec (its trace signature is part
#: of the committed baseline, compared exactly).
DETERMINISM_SPEC = LoadSpec(seed=7, n_requests=200, mode="open", rate_rps=4000.0)

#: All tiers merge their metrics here and rewrite the single
#: BENCH_service scorecard, so the artifact is complete whichever test
#: finishes last (write_artifact is atomic).
_PAYLOAD: dict = {"tiers": {}, "gates": {}}


def _write_merged(extra: dict) -> str:
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(_PAYLOAD.get(key), dict):
            _PAYLOAD[key].update(value)
        else:
            _PAYLOAD[key] = value
    return write_artifact("BENCH_service", _PAYLOAD)


def _service(config: ServiceConfig, *, seed: int = 7):
    sim, _, cas = build_world(seed=seed)
    backend = AppServerBackend(sim, cas)
    return SenseAidService(backend.handle, config)


def echo_handler(request):
    """Pure handler for the determinism tier: the response is a
    function of the request alone, so outcomes cannot depend on
    consumer interleaving."""
    return {"kind": request.kind.value, "index": request.payload.get("index")}


# ----------------------------------------------------------------------
# Tier 1: latency under sustainable open-loop load
# ----------------------------------------------------------------------


def test_service_latency(benchmark):
    spec = LoadSpec(seed=7, n_requests=400, mode="open", rate_rps=400.0)
    config = ServiceConfig(
        consumers=4, concurrency_slots=8, service_time_s=0.002, overload=OPEN_ADMISSION
    )

    def tier():
        generator = LoadGenerator(spec, time_scale=0.25)
        service = _service(config)

        async def drive():
            async with service:
                return await generator.run(service)

        return asyncio.run(drive()), service

    report, service = run_once(benchmark, tier)
    # Sustainable load: every request served, none shed or failed.
    assert report.ok == spec.n_requests
    assert report.shed == 0 and report.failed == 0
    service.ledger.assert_accounted()
    assert service.ledger.done == spec.n_requests

    p50_ms = report.latency_percentile_s(50.0) * 1e3
    p99_ms = report.latency_percentile_s(99.0) * 1e3
    assert p99_ms < P99_LATENCY_LIMIT_MS, (
        f"service p99 latency {p99_ms:.1f} ms exceeds the "
        f"{P99_LATENCY_LIMIT_MS:.0f} ms ceiling"
    )

    path = _write_merged(
        {
            "tiers": {
                "latency": {
                    "n_requests": spec.n_requests,
                    "ok": report.ok,
                    "shed": report.shed,
                    "failed": report.failed,
                    "p50_latency_ms": round(p50_ms, 3),
                    "p99_latency_ms": round(p99_ms, 3),
                    "wall_s": round(report.wall_s, 3),
                }
            },
            "gates": {
                "p99_latency_limit_ms": P99_LATENCY_LIMIT_MS,
                "latency_tier_all_served": bool(report.ok == spec.n_requests),
            },
        }
    )
    benchmark.extra_info["p99_latency_ms"] = round(p99_ms, 3)
    benchmark.extra_info["artifact"] = path


# ----------------------------------------------------------------------
# Tier 2: max sustained throughput (closed loop)
# ----------------------------------------------------------------------


def test_service_throughput(benchmark):
    spec = LoadSpec(seed=11, n_requests=600, mode="closed", concurrency=8)
    config = ServiceConfig(
        consumers=4, concurrency_slots=8, service_time_s=0.001, overload=OPEN_ADMISSION
    )

    def tier():
        generator = LoadGenerator(spec)
        service = _service(config)

        async def drive():
            async with service:
                return await generator.run(service)

        return asyncio.run(drive()), service

    report, service = run_once(benchmark, tier)
    assert report.ok == spec.n_requests
    assert report.failed == 0
    service.ledger.assert_accounted()

    rps = report.achieved_rps
    assert rps >= MIN_CLOSED_LOOP_RPS, (
        f"closed-loop sustained {rps:,.0f} rps, below the "
        f"{MIN_CLOSED_LOOP_RPS:,.0f} rps floor"
    )

    path = _write_merged(
        {
            "tiers": {
                "throughput": {
                    "n_requests": spec.n_requests,
                    "concurrency": spec.concurrency,
                    "ok": report.ok,
                    "max_sustained_rps": round(rps, 1),
                    "p50_latency_ms": round(report.latency_percentile_s(50.0) * 1e3, 3),
                    "p99_latency_ms": round(report.latency_percentile_s(99.0) * 1e3, 3),
                    "wall_s": round(report.wall_s, 3),
                }
            },
            "gates": {
                "min_closed_loop_rps": MIN_CLOSED_LOOP_RPS,
                "throughput_tier_all_served": bool(report.ok == spec.n_requests),
            },
        }
    )
    benchmark.extra_info["max_sustained_rps"] = round(rps, 1)
    benchmark.extra_info["artifact"] = path


# ----------------------------------------------------------------------
# Tier 3: overload — shedding, Retry-After round trip, ledger totality
# ----------------------------------------------------------------------


def test_service_overload(benchmark):
    policy = OverloadPolicy(
        queue_capacity=32, service_rate_per_s=200.0, retry_after_base_s=2.0
    )
    retry_policy = RetryPolicy()
    spec = LoadSpec(seed=13, n_requests=500, mode="open", rate_rps=4000.0)
    config = ServiceConfig(consumers=4, concurrency_slots=8, overload=policy)

    def tier():
        generator = LoadGenerator(spec, retry_policy=retry_policy, time_scale=0.01)
        service = _service(config)

        async def drive():
            async with service:
                return await generator.run(service)

        return asyncio.run(drive()), service

    report, service = run_once(benchmark, tier)
    service.ledger.assert_accounted()
    # Every planned request terminated in exactly one outcome.
    assert report.ok + report.shed + report.failed == spec.n_requests
    assert report.failed == 0
    # The burst genuinely overloaded the gate.
    assert service.stats.shed_admission > 0
    assert report.retries > 0

    # The Retry-After round trip: every shed response carried a hint of
    # at least the base pause, and every retry wait the generator took
    # equals shed_delay_s(attempt, hint) for that hint.
    waits = [
        (attempt, hint, delay)
        for outcome in report.outcomes
        for attempt, (hint, delay) in enumerate(outcome.retry_waits, start=1)
    ]
    hints_ok = bool(waits) and all(
        hint >= policy.retry_after_base_s for _, hint, _ in waits
    )
    round_trip_ok = all(
        abs(delay - retry_policy.shed_delay_s(attempt, hint)) < 1e-9
        for attempt, hint, delay in waits
    )
    assert hints_ok and round_trip_ok

    scorecard = service.scorecard()
    path = _write_merged(
        {
            "tiers": {
                "overload": {
                    "n_requests": spec.n_requests,
                    "ok": report.ok,
                    "shed": report.shed,
                    "retries": report.retries,
                    "shed_admission": scorecard["shed_admission"],
                    "shed_queue_full": scorecard["shed_queue_full"],
                    "breaker_opens": scorecard["admission"]["breaker_opens"],
                    "wall_s": round(report.wall_s, 3),
                }
            },
            "gates": {
                "overload_every_request_accounted": bool(
                    report.ok + report.shed + report.failed == spec.n_requests
                ),
                "overload_retry_hints_honoured": bool(hints_ok and round_trip_ok),
                "overload_ledger_balanced": True,  # assert_accounted passed
            },
        }
    )
    benchmark.extra_info["shed"] = report.shed
    benchmark.extra_info["retries"] = report.retries
    benchmark.extra_info["artifact"] = path


# ----------------------------------------------------------------------
# Tier 4: determinism — one seed, one trace, any consumer count
# ----------------------------------------------------------------------


def test_service_determinism(benchmark):
    def run_with_consumers(consumers: int):
        config = ServiceConfig(consumers=consumers, overload=OPEN_ADMISSION)
        generator = LoadGenerator(DETERMINISM_SPEC, time_scale=0.01)
        service = SenseAidService(echo_handler, config)

        async def drive():
            async with service:
                return await generator.run(service)

        report = asyncio.run(drive())
        service.ledger.assert_accounted()
        return report

    def tier():
        return run_with_consumers(1), run_with_consumers(8)

    serial, parallel = run_once(benchmark, tier)
    expected_sig = trace_signature(build_schedule(DETERMINISM_SPEC))
    assert serial.trace_sig == parallel.trace_sig == expected_sig
    assert serial.ok == parallel.ok == DETERMINISM_SPEC.n_requests

    def outcome_key(report):
        return [
            (o.index, o.kind.value, o.response.status.value, repr(o.response.result))
            for o in report.outcomes
        ]

    identical = outcome_key(serial) == outcome_key(parallel)
    assert identical, "serial and parallel outcomes diverged under one seed"

    path = _write_merged(
        {
            "tiers": {
                "determinism": {
                    "n_requests": DETERMINISM_SPEC.n_requests,
                    "seed": DETERMINISM_SPEC.seed,
                    "serial_ok": serial.ok,
                    "parallel_ok": parallel.ok,
                }
            },
            "gates": {
                "trace_sig": expected_sig,
                "parallel_equals_serial": bool(identical),
            },
        }
    )
    benchmark.extra_info["trace_sig"] = expected_sig
    benchmark.extra_info["artifact"] = path
