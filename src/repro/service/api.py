"""Typed requests and responses for the Sense-Aid service front.

The paper presents Sense-Aid as *network as a service*: a
crowdsensing application talks to the middleware through a four-call
API (``task`` / ``update_task_param`` / ``delete_task`` and data
delivery).  :mod:`repro.service` promotes that API from a library
facade to an actual request/response service — every call becomes a
:class:`ServiceRequest` envelope that travels through a bounded
``asyncio.Queue``, and every caller gets a :class:`ServiceResponse`
carrying the outcome, the admission verdict, and timing.

Each request kind maps onto one of the three
:class:`~repro.core.overload.RequestClass` priorities the admission
controller sheds by:

- task mutations (create/update/delete) are *control-plane
  registrations* — shed last;
- data delivery is an *upload* — shed under sustained backlog;
- data queries are *queries* — shed first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional, Tuple

from repro.core.overload import RequestClass


class RequestKind(Enum):
    """The service's request vocabulary (the paper's four-call API).

    ``CREATE_TASK``/``UPDATE_TASK``/``DELETE_TASK`` are the three task
    mutations; ``DELIVER_DATA`` is the data-delivery path (a sensed
    data point entering the application's store); ``QUERY_DATA`` reads
    aggregates back out.
    """

    CREATE_TASK = "create_task"
    UPDATE_TASK = "update_task"
    DELETE_TASK = "delete_task"
    DELIVER_DATA = "deliver_data"
    QUERY_DATA = "query_data"


#: Admission priority of each request kind (see module docstring).
REQUEST_CLASS_OF: Dict[RequestKind, RequestClass] = {
    RequestKind.CREATE_TASK: RequestClass.REGISTRATION,
    RequestKind.UPDATE_TASK: RequestClass.REGISTRATION,
    RequestKind.DELETE_TASK: RequestClass.REGISTRATION,
    RequestKind.DELIVER_DATA: RequestClass.UPLOAD,
    RequestKind.QUERY_DATA: RequestClass.QUERY,
}

#: Kinds grouped by admission class, in a deterministic order — the
#: load generator's mix weights address these buckets.
KINDS_BY_CLASS: Dict[RequestClass, Tuple[RequestKind, ...]] = {
    RequestClass.REGISTRATION: (
        RequestKind.CREATE_TASK,
        RequestKind.UPDATE_TASK,
        RequestKind.DELETE_TASK,
    ),
    RequestClass.UPLOAD: (RequestKind.DELIVER_DATA,),
    RequestClass.QUERY: (RequestKind.QUERY_DATA,),
}


class ResponseStatus(Enum):
    """Terminal outcome of one service request."""

    OK = "ok"
    SHED = "shed"
    FAILED = "failed"


@dataclass(slots=True)
class ServiceRequest:
    """One typed request travelling through the service queue."""

    request_id: str
    kind: RequestKind
    app: str = "default"
    payload: Dict[str, Any] = field(default_factory=dict)

    @property
    def request_class(self) -> RequestClass:
        return REQUEST_CLASS_OF[self.kind]


@dataclass(frozen=True, slots=True)
class ServiceResponse:
    """What the caller gets back for one :class:`ServiceRequest`.

    ``retry_after_s`` is only meaningful when ``status`` is ``SHED``:
    it is the server's ``Retry-After`` hint, sized by the admission
    controller to the backlog overshoot, and it round-trips into
    :meth:`repro.core.config.RetryPolicy.shed_delay_s` on the client
    side.
    """

    request_id: str
    kind: RequestKind
    status: ResponseStatus
    result: Any = None
    error: str = ""
    #: Server backoff hint for shed requests (seconds; 0 otherwise).
    retry_after_s: float = 0.0
    #: Wall time from submit to response resolution.
    latency_s: float = 0.0
    #: Portion of ``latency_s`` spent waiting in the request queue.
    queue_delay_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status is ResponseStatus.OK

    @property
    def shed(self) -> bool:
        return self.status is ResponseStatus.SHED

    def as_dict(self) -> Dict[str, Any]:
        return {
            "request_id": self.request_id,
            "kind": self.kind.value,
            "status": self.status.value,
            "error": self.error,
            "retry_after_s": self.retry_after_s,
            "latency_s": self.latency_s,
            "queue_delay_s": self.queue_delay_s,
        }


class ServiceClosedError(RuntimeError):
    """Submitting to a service that is not running."""


def make_request(
    index: int,
    kind: RequestKind,
    payload: Optional[Dict[str, Any]] = None,
    *,
    app: str = "default",
) -> ServiceRequest:
    """Build a request with the service's canonical id scheme."""
    return ServiceRequest(
        request_id=f"r{index:08d}",
        kind=kind,
        app=app,
        payload=dict(payload or {}),
    )
