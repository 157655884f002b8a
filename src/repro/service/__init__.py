"""Sense-Aid as an actual service: asyncio API front + load generator.

The paper's framing is *network as a service for participatory
sensing*; this package provides the service loop that framing implies
(see ``docs/service.md``):

- :mod:`repro.service.api` — the four-call application API as typed
  requests/responses, each mapped to an admission priority class;
- :mod:`repro.service.lifecycle` — the explicit per-request state
  machine (QUEUED → ADMITTED → RUNNING → DONE/SHED/FAILED) and the
  totality-checked accounting ledger;
- :mod:`repro.service.server` — :class:`SenseAidService`: each
  admitted request runs in its caller's coroutine under one of a few
  run slots, waiting in a bounded FIFO only while every slot is busy,
  behind the :class:`~repro.core.overload.AdmissionController` as the
  front-door backpressure gate (Retry-After hints included);
- :mod:`repro.service.backend` — adapters executing requests against
  a real :class:`~repro.serverlib.appserver.CrowdsensingAppServer`;
- :mod:`repro.service.loadgen` — the seed-deterministic open-/closed-
  loop load generator and its latency/RPS report.
"""

from repro.service.api import (
    KINDS_BY_CLASS,
    REQUEST_CLASS_OF,
    RequestKind,
    ResponseStatus,
    ServiceClosedError,
    ServiceRequest,
    ServiceResponse,
    make_request,
)
from repro.service.backend import AppServerBackend, build_world
from repro.service.lifecycle import (
    LEGAL_TRANSITIONS,
    TERMINAL_STATES,
    IllegalTransitionError,
    LifecycleLedger,
    RequestState,
)
from repro.service.loadgen import (
    MIX,
    LoadGenerator,
    LoadReport,
    LoadSpec,
    PlannedRequest,
    build_schedule,
    percentile,
    trace_signature,
)
from repro.service.server import (
    ManualClock,
    SenseAidService,
    ServiceClock,
    ServiceConfig,
    ServiceStats,
)

__all__ = [
    "AppServerBackend",
    "IllegalTransitionError",
    "KINDS_BY_CLASS",
    "LEGAL_TRANSITIONS",
    "LifecycleLedger",
    "LoadGenerator",
    "LoadReport",
    "LoadSpec",
    "MIX",
    "ManualClock",
    "PlannedRequest",
    "REQUEST_CLASS_OF",
    "RequestKind",
    "RequestState",
    "ResponseStatus",
    "SenseAidService",
    "ServiceClock",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceRequest",
    "ServiceResponse",
    "ServiceStats",
    "TERMINAL_STATES",
    "build_schedule",
    "build_world",
    "make_request",
    "percentile",
    "trace_signature",
]
