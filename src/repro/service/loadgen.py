"""Deterministic closed- and open-loop load generation.

The generator separates *planning* from *execution*:

- :func:`build_schedule` expands a :class:`LoadSpec` into a fully
  materialised arrival schedule — request kinds, payloads, and
  inter-arrival offsets — using one seeded ``random.Random``.  The
  schedule is a pure function of the spec, so the request trace is
  identical at any number of run slots, on any machine, in either
  loop mode (:func:`trace_signature` fingerprints it for the
  determinism gate).
- :class:`LoadGenerator` replays a schedule against a running
  :class:`~repro.service.server.SenseAidService`:

  - **open loop**: requests fire at their scheduled offsets whether or
    not earlier ones finished — arrival pressure is independent of
    service speed, the shape that exposes queue growth and shedding;
  - **closed loop**: ``concurrency`` workers each wait for the
    previous response before sending the next request — the shape
    that measures max sustained throughput.

  With a :class:`~repro.core.config.RetryPolicy`, shed responses are
  retried after ``shed_delay_s(attempt, retry_after_s)`` — the exact
  client-side contract the simulated device fleet honours, so the
  server's Retry-After hints round-trip end to end.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.config import RetryPolicy
from repro.core.overload import RequestClass
from repro.service.api import (
    KINDS_BY_CLASS,
    RequestKind,
    ResponseStatus,
    ServiceRequest,
    ServiceResponse,
)
from repro.service.backend import AppServerBackend
from repro.service.server import SenseAidService

#: Distinguishes the request ids of concurrent/successive generator
#: runs against one service (the ledger requires unique ids).
_RUN_COUNTER = itertools.count()

#: Deterministic draw order for the three admission classes.
_CLASS_ORDER: Tuple[RequestClass, ...] = (
    RequestClass.REGISTRATION,
    RequestClass.UPLOAD,
    RequestClass.QUERY,
)

#: The request mix: mostly data delivery, some control-plane
#: mutations, some queries — a participatory-sensing workload shape.
MIX: Mapping[str, float] = {
    RequestClass.REGISTRATION.value: 0.2,
    RequestClass.UPLOAD.value: 0.6,
    RequestClass.QUERY.value: 0.2,
}

#: Simulated device population for delivery payloads.
DEVICES = 64


@dataclass(frozen=True)
class LoadSpec:
    """One load-generation run, fully described (and hashable into a trace)."""

    seed: int = 7
    n_requests: int = 200
    mode: str = "open"  # "open" | "closed"
    rate_rps: float = 200.0
    concurrency: int = 4

    def __post_init__(self) -> None:
        if self.mode not in ("open", "closed"):
            raise ValueError(f"mode must be 'open' or 'closed', got {self.mode!r}")
        if self.n_requests < 1:
            raise ValueError("n_requests must be at least 1")
        if self.rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if self.concurrency < 1:
            raise ValueError("concurrency must be at least 1")


@dataclass(frozen=True, slots=True)
class PlannedRequest:
    """One scheduled arrival: when, what, and with which payload."""

    index: int
    offset_s: float
    kind: RequestKind
    payload: Mapping[str, Any]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "offset_s": round(self.offset_s, 9),
            "kind": self.kind.value,
            "payload": dict(sorted(self.payload.items())),
        }


def build_schedule(spec: LoadSpec) -> List[PlannedRequest]:
    """Materialise the full arrival schedule for ``spec`` (pure/seeded).

    Requests are drawn from :data:`MIX`, address one of the backend's
    :attr:`~repro.service.backend.AppServerBackend.SLOTS` task slots, and
    deliveries come from one of :data:`DEVICES` devices.
    """
    rng = random.Random(spec.seed)
    weights = [MIX[c.value] for c in _CLASS_ORDER]
    schedule: List[PlannedRequest] = []
    offset = 0.0
    for index in range(spec.n_requests):
        offset += rng.expovariate(spec.rate_rps)
        request_class = rng.choices(_CLASS_ORDER, weights=weights, k=1)[0]
        kinds = KINDS_BY_CLASS[request_class]
        kind = kinds[rng.randrange(len(kinds))]
        payload: Dict[str, Any] = {
            "index": index,
            "slot": rng.randrange(AppServerBackend.SLOTS),
        }
        if kind is RequestKind.DELIVER_DATA:
            payload["value"] = round(rng.uniform(980.0, 1040.0), 6)
            payload["device_hash"] = f"dev{rng.randrange(DEVICES):03d}"
        elif kind in (RequestKind.CREATE_TASK, RequestKind.UPDATE_TASK):
            payload["density"] = rng.randrange(1, 4)
        schedule.append(
            PlannedRequest(index=index, offset_s=offset, kind=kind, payload=payload)
        )
    return schedule


def trace_signature(schedule: List[PlannedRequest]) -> str:
    """SHA-256 fingerprint of a schedule — the determinism gate's unit.

    Two runs with the same spec must produce the same signature; the
    signature is also independent of how many run slots later execute
    the schedule, because it is computed before execution starts.
    """
    payload = json.dumps(
        [planned.as_dict() for planned in schedule],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for empty input."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be within [0, 100]")
    ordered = sorted(values)
    rank = max(1, int(-(-q / 100.0 * len(ordered) // 1)))  # ceil
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class RequestOutcome:
    """Final outcome of one planned request (after any shed retries)."""

    index: int
    kind: RequestKind
    attempts: int
    response: ServiceResponse
    #: (retry_after_s hint, delay the policy computed) per shed retry.
    retry_waits: List[Tuple[float, float]] = field(default_factory=list)


@dataclass
class LoadReport:
    """What one load-generation run measured."""

    spec: LoadSpec
    trace_sig: str
    outcomes: List[RequestOutcome]
    wall_s: float

    @property
    def responses(self) -> List[ServiceResponse]:
        return [outcome.response for outcome in self.outcomes]

    def count(self, status: ResponseStatus) -> int:
        return sum(1 for r in self.responses if r.status is status)

    @property
    def ok(self) -> int:
        return self.count(ResponseStatus.OK)

    @property
    def shed(self) -> int:
        return self.count(ResponseStatus.SHED)

    @property
    def failed(self) -> int:
        return self.count(ResponseStatus.FAILED)

    @property
    def retries(self) -> int:
        return sum(outcome.attempts - 1 for outcome in self.outcomes)

    @property
    def ok_latencies(self) -> List[float]:
        return [r.latency_s for r in self.responses if r.ok]

    def latency_percentile_s(self, q: float) -> float:
        return percentile(self.ok_latencies, q)

    @property
    def achieved_rps(self) -> float:
        return self.ok / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.spec.mode,
            "seed": self.spec.seed,
            "n_requests": self.spec.n_requests,
            "trace_sig": self.trace_sig,
            "ok": self.ok,
            "shed": self.shed,
            "failed": self.failed,
            "retries": self.retries,
            "wall_s": round(self.wall_s, 6),
            "achieved_rps": round(self.achieved_rps, 3),
            "p50_latency_ms": round(self.latency_percentile_s(50.0) * 1e3, 3),
            "p99_latency_ms": round(self.latency_percentile_s(99.0) * 1e3, 3),
        }


class LoadGenerator:
    """Replays a seeded schedule against a running service."""

    def __init__(
        self,
        spec: LoadSpec,
        *,
        retry_policy: Optional[RetryPolicy] = None,
        time_scale: float = 1.0,
    ) -> None:
        self.spec = spec
        self.retry_policy = retry_policy
        self._max_attempts = (
            retry_policy.max_attempts if retry_policy is not None else 1
        )
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        #: Compresses scheduled offsets and retry waits (tests use a
        #: small scale so Retry-After honouring doesn't sleep for real).
        self.time_scale = time_scale
        self.schedule = build_schedule(spec)
        self.trace_sig = trace_signature(self.schedule)
        self.run_tag = f"g{next(_RUN_COUNTER)}"

    async def run(self, service: SenseAidService) -> LoadReport:
        started = time.perf_counter()
        if self.spec.mode == "open":
            outcomes = await self._run_open(service)
        else:
            outcomes = await self._run_closed(service)
        wall_s = time.perf_counter() - started
        outcomes.sort(key=lambda outcome: outcome.index)
        return LoadReport(
            spec=self.spec,
            trace_sig=self.trace_sig,
            outcomes=outcomes,
            wall_s=wall_s,
        )

    async def _run_open(self, service: SenseAidService) -> List[RequestOutcome]:
        loop_started = time.perf_counter()

        async def fire(planned: PlannedRequest) -> RequestOutcome:
            due = planned.offset_s * self.time_scale
            delay = due - (time.perf_counter() - loop_started)
            if delay > 0:
                await asyncio.sleep(delay)
            return await self._submit_with_retry(service, planned)

        tasks = [asyncio.ensure_future(fire(p)) for p in self.schedule]
        return list(await asyncio.gather(*tasks))

    async def _run_closed(self, service: SenseAidService) -> List[RequestOutcome]:
        iterator = iter(self.schedule)
        outcomes: List[RequestOutcome] = []

        async def worker() -> None:
            while True:
                try:
                    planned = next(iterator)
                except StopIteration:
                    return
                outcomes.append(await self._submit_with_retry(service, planned))

        await asyncio.gather(
            *(worker() for _ in range(self.spec.concurrency))
        )
        return outcomes

    async def _submit_with_retry(
        self, service: SenseAidService, planned: PlannedRequest
    ) -> RequestOutcome:
        attempts = 0
        retry_waits: List[Tuple[float, float]] = []
        while True:
            attempts += 1
            # Run- and attempt-unique id so the ledger sees every
            # transmission distinctly (a retry is a new request).
            request = ServiceRequest(
                request_id=f"{self.run_tag}-r{planned.index:08d}a{attempts}",
                kind=planned.kind,
                app="loadgen",
                payload=dict(planned.payload),
            )
            response = await service.submit(planned.kind, request=request)
            # Without a retry policy the cap is one attempt.
            if not response.shed or attempts >= self._max_attempts:
                return RequestOutcome(
                    index=planned.index,
                    kind=planned.kind,
                    attempts=attempts,
                    response=response,
                    retry_waits=retry_waits,
                )
            delay = self.retry_policy.shed_delay_s(attempts, response.retry_after_s)
            retry_waits.append((response.retry_after_s, delay))
            await asyncio.sleep(delay * self.time_scale)
