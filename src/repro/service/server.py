"""The asyncio network-as-a-service front for Sense-Aid.

:class:`repro.serverlib.CrowdsensingAppServer` stays the synchronous
library facade, and :class:`SenseAidService` puts an actual *service
loop* in front of it —

- every API call arrives as a typed :class:`~repro.service.api.ServiceRequest`;
- the front door runs it through the existing
  :class:`~repro.core.overload.AdmissionController` (priority
  shedding, circuit breaker, Retry-After hints) driven by a wall-clock
  adapter;
- admitted requests enter a **bounded** ``asyncio.Queue`` and are
  drained by N consumer coroutines, each executing under a
  concurrency-slot semaphore;
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
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.config import OverloadPolicy
from repro.core.overload import AdmissionController, RequestClass
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

    def __init__(self, time_fn: Optional[Callable[[], float]] = None) -> None:
        self._time_fn = time_fn if time_fn is not None else time.monotonic
        self._origin = self._time_fn()

    @property
    def now(self) -> float:
        return self._time_fn() - self._origin


class ManualClock:
    """A hand-cranked clock for deterministic tests."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("time cannot run backwards")
        self.now += dt


@dataclass(frozen=True)
class ServiceConfig:
    """Shape of the service loop.

    ``service_time_s`` models the per-request work a real deployment
    would spend (parameter validation, datastore writes, downstream
    fan-out) as an ``asyncio.sleep`` held under a concurrency slot —
    zero keeps unit tests instant, a couple of milliseconds gives the
    benchmark a realistic saturation point.
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


@dataclass(slots=True)
class _InFlight:
    """Queue entry: the request plus its response future and timestamps."""

    request: ServiceRequest
    future: "asyncio.Future[ServiceResponse]"
    created_at: float
    admitted_at: float = 0.0


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
        self._queue: Optional["asyncio.Queue[_InFlight]"] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._consumers: List["asyncio.Task[None]"] = []
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
        self._queue = asyncio.Queue(maxsize=self.config.queue_capacity)
        self._slots = asyncio.Semaphore(self.config.concurrency_slots)
        self._consumers = [
            asyncio.get_running_loop().create_task(
                self._consume(i), name=f"senseaid-consumer-{i}"
            )
            for i in range(self.config.consumers)
        ]
        self._running = True

    async def stop(self, *, drain: bool = True) -> None:
        """Stop the service loop.

        ``drain=True`` waits for every queued request to finish first;
        ``drain=False`` fails queued-but-unstarted requests with a
        ``shutdown`` error (their futures resolve, nothing hangs).
        """
        if not self._running:
            return
        self._running = False  # refuse new submissions immediately
        if drain and self._queue is not None:
            await self._queue.join()
        for task in self._consumers:
            task.cancel()
        for task in self._consumers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._consumers = []
        # Anything still queued never reached a consumer: fail it out
        # so the ledger stays total and callers unblock.
        if self._queue is not None:
            while not self._queue.empty():
                item = self._queue.get_nowait()
                self._queue.task_done()
                self._finish(
                    item,
                    RequestState.FAILED,
                    ServiceResponse(
                        request_id=item.request.request_id,
                        kind=item.request.kind,
                        status=ResponseStatus.FAILED,
                        error="shutdown",
                        latency_s=self.clock.now - item.created_at,
                    ),
                )
        self._queue = None
        self._slots = None

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
        app: str = "default",
        request: Optional[ServiceRequest] = None,
    ) -> ServiceResponse:
        """Submit one request and await its response.

        Never raises for shed/failed requests — the outcome is always
        a :class:`ServiceResponse` (``ServiceClosedError`` only when
        the service is not running).
        """
        if not self._running or self._queue is None:
            raise ServiceClosedError("service is not running")
        if request is None:
            request = make_request(self._next_id, kind, payload, app=app)
        self._next_id += 1
        now = self.clock.now
        self.stats.submitted += 1
        self.stats.note_kind(request.kind)
        self.ledger.create(request.request_id, now)

        decision = self.admission.admit(request.request_class)
        if not decision.admitted:
            self.stats.shed_admission += 1
            return self._shed_response(request, now, decision.retry_after_s)

        item = _InFlight(request=request, future=self._new_future(), created_at=now)
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            # Admission said yes but the physical queue is at capacity:
            # shed with a hint sized to draining one full queue.
            self.stats.shed_queue_full += 1
            hint = (
                self.config.overload.retry_after_base_s
                + self.config.queue_capacity / self.config.overload.service_rate_per_s
            )
            return self._shed_response(request, now, hint)
        item.admitted_at = self.clock.now
        self.ledger.advance(request.request_id, RequestState.ADMITTED, item.admitted_at)
        return await item.future

    def _new_future(self) -> "asyncio.Future[ServiceResponse]":
        return asyncio.get_running_loop().create_future()

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

    # ------------------------------------------------------------------
    # Consumer coroutines
    # ------------------------------------------------------------------

    async def _consume(self, index: int) -> None:
        assert self._queue is not None and self._slots is not None
        queue, slots = self._queue, self._slots
        while True:
            item = await queue.get()
            try:
                async with slots:
                    await self._execute(item)
            except asyncio.CancelledError:
                # Cancelled before _execute finished the request (e.g.
                # while waiting for a slot): resolve it as FAILED so the
                # ledger stays total and the submitter unblocks.
                if not item.future.done():
                    self._finish(
                        item,
                        RequestState.FAILED,
                        ServiceResponse(
                            request_id=item.request.request_id,
                            kind=item.request.kind,
                            status=ResponseStatus.FAILED,
                            error="cancelled",
                            latency_s=self.clock.now - item.created_at,
                        ),
                    )
                raise
            finally:
                queue.task_done()

    async def _execute(self, item: _InFlight) -> None:
        request = item.request
        started = self.clock.now
        self.ledger.advance(request.request_id, RequestState.RUNNING, started)
        queue_delay = started - item.admitted_at
        try:
            if self.config.service_time_s > 0:
                await asyncio.sleep(self.config.service_time_s)
            result = self._handler(request)
        except asyncio.CancelledError:
            # Shutdown mid-request: account it as FAILED, then let the
            # cancellation unwind the consumer.
            self._finish(
                item,
                RequestState.FAILED,
                ServiceResponse(
                    request_id=request.request_id,
                    kind=request.kind,
                    status=ResponseStatus.FAILED,
                    error="cancelled",
                    latency_s=self.clock.now - item.created_at,
                    queue_delay_s=queue_delay,
                ),
            )
            raise
        except Exception as exc:  # noqa: BLE001 — failures become responses
            self._finish(
                item,
                RequestState.FAILED,
                ServiceResponse(
                    request_id=request.request_id,
                    kind=request.kind,
                    status=ResponseStatus.FAILED,
                    error=f"{type(exc).__name__}: {exc}",
                    latency_s=self.clock.now - item.created_at,
                    queue_delay_s=queue_delay,
                ),
            )
            return
        self._finish(
            item,
            RequestState.DONE,
            ServiceResponse(
                request_id=request.request_id,
                kind=request.kind,
                status=ResponseStatus.OK,
                result=result,
                latency_s=self.clock.now - item.created_at,
                queue_delay_s=queue_delay,
            ),
        )

    def _finish(
        self, item: _InFlight, state: RequestState, response: ServiceResponse
    ) -> None:
        self.ledger.advance(item.request.request_id, state, self.clock.now)
        if state is RequestState.DONE:
            self.stats.ok += 1
        elif state is RequestState.FAILED:
            self.stats.failed += 1
        if not item.future.done():
            item.future.set_result(response)

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
