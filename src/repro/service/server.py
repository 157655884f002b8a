"""The asyncio network-as-a-service front for Sense-Aid.

:class:`repro.serverlib.CrowdsensingAppServer` stays the synchronous
library facade, and :class:`SenseAidService` puts an actual *service
loop* in front of it —

- every API call arrives as a typed :class:`~repro.service.api.ServiceRequest`;
- the front door runs it through the existing
  :class:`~repro.core.overload.AdmissionController` (priority
  shedding, circuit breaker, Retry-After hints) driven by a wall-clock
  adapter;
- an admitted request runs in its caller's own coroutine under one of
  ``min(consumers, concurrency_slots)`` run slots.  While a slot is
  free it runs at once and, with no modelled service time, never
  suspends; while every slot is busy it waits in a **bounded** FIFO,
  and each finishing request hands its slot straight to the oldest
  waiter;
- every request moves through the explicit lifecycle state machine of
  :mod:`repro.service.lifecycle` (QUEUED → ADMITTED → RUNNING →
  DONE/SHED/FAILED), and the :class:`LifecycleLedger` proves no
  request ever skips its terminal accounting.

Shed responses carry the controller's ``retry_after_s`` hint, which
clients feed straight into
:meth:`repro.core.config.RetryPolicy.shed_delay_s` — the same
backpressure loop the simulated device clients already honour.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Optional

from repro.core.config import OverloadPolicy
from repro.core.overload import AdmissionController
from repro.service.api import (
    RequestKind,
    ResponseStatus,
    ServiceClosedError,
    ServiceRequest,
    ServiceResponse,
    make_request,
)
from repro.service.lifecycle import LifecycleLedger, RequestState

#: A backend handler: executes one request synchronously and returns
#: the result payload (exceptions mark the request FAILED).
Handler = Callable[[ServiceRequest], Any]


class ServiceClock:
    """Monotonic wall clock with a ``.now`` property.

    Duck-types the slice of :class:`repro.sim.engine.Simulator` the
    :class:`AdmissionController` and :class:`SimLogger` need (``now``
    plus a writable attribute slot for the structured event log), so
    the fluid admission queue drains against real elapsed time when
    the service runs under asyncio instead of the discrete-event sim.
    """

    def __init__(self) -> None:
        self._origin = time.monotonic()

    @property
    def now(self) -> float:
        return time.monotonic() - self._origin


class ManualClock:
    """A hand-cranked clock for deterministic tests, starting at 0."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("time cannot run backwards")
        self.now += dt


@dataclass(frozen=True)
class ServiceConfig:
    """Shape of the service loop.

    ``consumers`` and ``concurrency_slots`` are two caps on how many
    requests run at once: the service has ``min(consumers,
    concurrency_slots)`` run slots, and a request holds one from RUNNING
    to its terminal state.  ``queue_capacity`` bounds how many admitted
    requests may wait for a slot; past it a request is shed.

    ``service_time_s`` models the per-request work a real deployment
    would spend (parameter validation, datastore writes, downstream
    fan-out) as a wait held under the run slot — zero keeps unit tests
    instant, a couple of milliseconds gives the benchmark a realistic
    saturation point.
    """

    queue_capacity: int = 256
    consumers: int = 4
    concurrency_slots: int = 8
    service_time_s: float = 0.0
    overload: OverloadPolicy = field(default_factory=OverloadPolicy)

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if self.consumers < 1:
            raise ValueError("consumers must be at least 1")
        if self.concurrency_slots < 1:
            raise ValueError("concurrency_slots must be at least 1")
        if self.service_time_s < 0:
            raise ValueError("service_time_s must be non-negative")


@dataclass
class ServiceStats:
    """Aggregate service-side accounting (the ledger holds lifecycles)."""

    submitted: int = 0
    ok: int = 0
    shed_admission: int = 0
    shed_queue_full: int = 0
    failed: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)

    def note_kind(self, kind: RequestKind) -> None:
        self.by_kind[kind.value] = self.by_kind.get(kind.value, 0) + 1


class SenseAidService:
    """Asyncio request front over a synchronous Sense-Aid backend.

    Use as an async context manager, or call :meth:`start` /
    :meth:`stop` explicitly::

        service = SenseAidService(backend.handle, ServiceConfig())
        async with service:
            response = await service.submit(RequestKind.QUERY_DATA)
    """

    def __init__(
        self,
        handler: Handler,
        config: Optional[ServiceConfig] = None,
        *,
        clock: Optional[Any] = None,
    ) -> None:
        self._handler = handler
        self.config = config if config is not None else ServiceConfig()
        self.clock = clock if clock is not None else ServiceClock()
        self.admission = AdmissionController(self.clock, self.config.overload)
        self.ledger = LifecycleLedger()
        self.stats = ServiceStats()
        self._run_slots = min(self.config.consumers, self.config.concurrency_slots)
        self._free_slots = self._run_slots
        #: Callers waiting for a run slot, oldest first.  Each sleeps on
        #: its future until a finishing request hands it a slot.
        self._waiters: Deque["asyncio.Future[None]"] = deque()
        #: Resolved when the last slot comes back while :meth:`stop` waits.
        self._idle: Optional["asyncio.Future[None]"] = None
        self._next_id = 0
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle of the service itself
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    async def start(self) -> None:
        if self._running:
            raise RuntimeError("service already running")
        self._running = True

    async def stop(self) -> None:
        """Stop the service loop: refuse new submissions at once, then
        wait until no request runs or waits."""
        if not self._running:
            return
        self._running = False  # refuse new submissions immediately
        if self._free_slots < self._run_slots:
            self._idle = asyncio.get_running_loop().create_future()
            try:
                await self._idle
            finally:
                self._idle = None

    async def __aenter__(self) -> "SenseAidService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # The front door
    # ------------------------------------------------------------------

    async def submit(
        self,
        kind: RequestKind,
        payload: Optional[Dict[str, Any]] = None,
        *,
        request: Optional[ServiceRequest] = None,
    ) -> ServiceResponse:
        """Submit one request and await its response.

        The request runs in the caller's coroutine.  With a run slot
        free it runs at once and suspends only for ``service_time_s``;
        with every slot busy it first waits its turn in the FIFO.

        Never raises for shed/failed requests — the outcome is always
        a :class:`ServiceResponse` (``ServiceClosedError`` only when
        the service is not running).  A caller cancelled while its
        request waits or runs has the request recorded FAILED, passes
        its slot on, and gets the ``CancelledError``.
        """
        if not self._running:
            raise ServiceClosedError("service is not running")
        if request is None:
            request = make_request(self._next_id, kind, payload)
        self._next_id += 1
        clock, ledger, stats = self.clock, self.ledger, self.stats
        request_id = request.request_id
        created_at = clock.now
        stats.submitted += 1
        stats.note_kind(request.kind)
        ledger.create(request_id, created_at)

        decision = self.admission.admit(request.request_class)
        if not decision.admitted:
            stats.shed_admission += 1
            return self._shed_response(request, created_at, decision.retry_after_s)

        if self._free_slots:
            # A finishing request hands its slot to the oldest waiter, so
            # a free slot means nobody waits: take it without suspending.
            self._free_slots -= 1
            admitted_at = started = clock.now
            ledger.advance(request_id, RequestState.ADMITTED, admitted_at)
        else:
            if len(self._waiters) >= self.config.queue_capacity:
                # Admission said yes but the wait list is full: shed
                # with a hint sized to draining one full queue.
                stats.shed_queue_full += 1
                hint = (
                    self.config.overload.retry_after_base_s
                    + self.config.queue_capacity / self.config.overload.service_rate_per_s
                )
                return self._shed_response(request, created_at, hint)
            admitted_at = clock.now
            ledger.advance(request_id, RequestState.ADMITTED, admitted_at)
            try:
                await self._wait_for_slot()
            except asyncio.CancelledError:
                self._fail(request, created_at, "cancelled")
                raise
            started = clock.now

        ledger.advance(request_id, RequestState.RUNNING, started)
        queue_delay = started - admitted_at
        try:
            if self.config.service_time_s > 0:
                await asyncio.sleep(self.config.service_time_s)
            result = self._handler(request)
        except asyncio.CancelledError:
            self._fail(request, created_at, "cancelled", queue_delay)
            raise
        except Exception as exc:  # noqa: BLE001 — failures become responses
            return self._fail(request, created_at, f"{type(exc).__name__}: {exc}", queue_delay)
        else:
            finished = clock.now
            ledger.advance(request_id, RequestState.DONE, finished)
            stats.ok += 1
            return ServiceResponse(
                request_id=request_id,
                kind=request.kind,
                status=ResponseStatus.OK,
                result=result,
                latency_s=finished - created_at,
                queue_delay_s=queue_delay,
            )
        finally:
            self._release()

    def _shed_response(
        self, request: ServiceRequest, created_at: float, retry_after_s: float
    ) -> ServiceResponse:
        now = self.clock.now
        self.ledger.advance(request.request_id, RequestState.SHED, now)
        return ServiceResponse(
            request_id=request.request_id,
            kind=request.kind,
            status=ResponseStatus.SHED,
            error="overloaded",
            retry_after_s=retry_after_s,
            latency_s=now - created_at,
        )

    def _fail(
        self,
        request: ServiceRequest,
        created_at: float,
        error: str,
        queue_delay_s: float = 0.0,
    ) -> ServiceResponse:
        now = self.clock.now
        self.ledger.advance(request.request_id, RequestState.FAILED, now)
        self.stats.failed += 1
        return ServiceResponse(
            request_id=request.request_id,
            kind=request.kind,
            status=ResponseStatus.FAILED,
            error=error,
            latency_s=now - created_at,
            queue_delay_s=queue_delay_s,
        )

    # ------------------------------------------------------------------
    # Run slots
    # ------------------------------------------------------------------

    async def _wait_for_slot(self) -> None:
        """Wait in the FIFO until handed a slot.

        A cancelled caller leaves the FIFO, or passes on the slot it was
        handed just before the cancellation landed.
        """
        wake: "asyncio.Future[None]" = asyncio.get_running_loop().create_future()
        self._waiters.append(wake)
        try:
            await wake
        except asyncio.CancelledError:
            if wake.cancelled():
                try:
                    self._waiters.remove(wake)
                except ValueError:  # already skipped by a release
                    pass
            else:
                self._release()
            raise

    def _release(self) -> None:
        """Hand the caller's slot to the oldest waiter, or free it."""
        waiters = self._waiters
        while waiters:
            wake = waiters.popleft()
            if not wake.done():  # a cancelled waiter's future is done
                wake.set_result(None)
                return
        self._free_slots += 1
        idle = self._idle
        if idle is not None and self._free_slots == self._run_slots and not idle.done():
            idle.set_result(None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def scorecard(self) -> Dict[str, Any]:
        """Service-side accounting snapshot (ledger + admission stats)."""
        admission = self.admission.stats
        return {
            "lifecycle": self.ledger.as_dict(),
            "submitted": self.stats.submitted,
            "ok": self.stats.ok,
            "failed": self.stats.failed,
            "shed_admission": self.stats.shed_admission,
            "shed_queue_full": self.stats.shed_queue_full,
            "by_kind": dict(sorted(self.stats.by_kind.items())),
            "admission": {
                "admitted": dict(admission.admitted),
                "shed": dict(admission.shed),
                "breaker_opens": admission.breaker_opens,
                "max_queue_depth": admission.max_queue_depth,
            },
        }
