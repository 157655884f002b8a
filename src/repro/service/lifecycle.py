"""Request lifecycle state machine for the service front.

Every request the service touches moves through an explicit state
machine::

    QUEUED ──► ADMITTED ──► RUNNING ──► DONE
      │            │            └─────► FAILED
      └──► SHED    └──────────────────► FAILED   (shutdown drain)

- ``QUEUED``: the request arrived at the front door and is being
  admission-checked;
- ``ADMITTED``: the admission controller accepted it and it sits in
  the bounded request queue;
- ``RUNNING``: a consumer coroutine holds a concurrency slot and is
  executing the handler;
- ``DONE`` / ``SHED`` / ``FAILED``: terminal.  ``SHED`` only ever
  happens at the front door (admission refusal or queue full) — once
  admitted, a request is either served or failed, never silently
  dropped.

The :class:`LifecycleLedger` records every transition, rejects illegal
ones loudly (a state-machine bug must never be absorbed into a
latency histogram), and proves *totality*: every request that was ever
created ends in exactly one terminal state, so no request can skip
SHED/FAILED accounting.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, List, Tuple


class RequestState(Enum):
    """Where one request is in its service lifecycle."""

    QUEUED = "queued"
    ADMITTED = "admitted"
    RUNNING = "running"
    DONE = "done"
    SHED = "shed"
    FAILED = "failed"


#: Every legal transition; anything else raises IllegalTransitionError.
LEGAL_TRANSITIONS: Mapping[RequestState, FrozenSet[RequestState]] = {
    RequestState.QUEUED: frozenset(
        {RequestState.ADMITTED, RequestState.SHED, RequestState.FAILED}
    ),
    RequestState.ADMITTED: frozenset({RequestState.RUNNING, RequestState.FAILED}),
    RequestState.RUNNING: frozenset({RequestState.DONE, RequestState.FAILED}),
    RequestState.DONE: frozenset(),
    RequestState.SHED: frozenset(),
    RequestState.FAILED: frozenset(),
}

TERMINAL_STATES: FrozenSet[RequestState] = frozenset(
    {RequestState.DONE, RequestState.SHED, RequestState.FAILED}
)


class IllegalTransitionError(RuntimeError):
    """A request tried to move along an edge the state machine forbids."""

    def __init__(self, request_id: str, current: RequestState, target: RequestState):
        super().__init__(
            f"request {request_id}: illegal transition "
            f"{current.value} -> {target.value}"
        )
        self.request_id = request_id
        self.current = current
        self.target = target


@dataclass
class RequestRecord:
    """One request's transition history: (state, timestamp) pairs."""

    request_id: str
    history: List[Tuple[RequestState, float]] = field(default_factory=list)

    @property
    def state(self) -> RequestState:
        return self.history[-1][0]

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def at(self, state: RequestState) -> float:
        """Timestamp of the first entry into ``state`` (KeyError if never)."""
        for seen, when in self.history:
            if seen is state:
                return when
        raise KeyError(f"{self.request_id} never reached {state.value}")


#: The log stores a state as one byte: its index in this tuple.
_STATES: Tuple[RequestState, ...] = tuple(RequestState)
_QUEUED = _STATES.index(RequestState.QUEUED)
_TERMINAL: Tuple[bool, ...] = tuple(state in TERMINAL_STATES for state in _STATES)
#: Per current code: target value -> (target code, edge name).  Keyed by
#: the value strings so a transition never hashes an enum member.
_EDGES: Tuple[Dict[str, Tuple[int, str]], ...] = tuple(
    {
        target.value: (_STATES.index(target), f"{state.value}->{target.value}")
        for target in LEGAL_TRANSITIONS[state]
    }
    for state in _STATES
)


class LifecycleLedger:
    """Tracks every request's state machine and the aggregate accounting.

    The ledger is the service's source of truth for shed/failure
    accounting: benchmarks and invariant checks read it rather than
    counting ad-hoc.

    With ``keep_records`` it also appends every transition to a log of
    three flat columns: the request id (a list), the state code (a
    ``bytearray``) and the timestamp (an ``array('d')``).  A transition
    costs about 17 bytes and no object the garbage collector tracks, so
    a long-running service does not make every full collection walk its
    whole request history.  :attr:`records` rebuilds a request's
    :class:`RequestRecord` from the log when it is looked up.
    """

    def __init__(self, *, keep_records: bool = True) -> None:
        #: Per-request transition history (optional — a long soak can
        #: run with counters only).
        self.keep_records = keep_records
        self.created = 0
        self.transitions: Dict[str, int] = {}
        self.terminal_counts: Dict[str, int] = {s.value: 0 for s in TERMINAL_STATES}
        #: Open request id -> its current state code.
        self._open: Dict[str, int] = {}
        #: The transition log, one row per create or advance.
        self._ids: List[str] = []
        self._codes = bytearray()
        self._times = array("d")
        #: Request id -> the log row that created it, in creation order.
        self._created_rows: Dict[str, int] = {}

    @property
    def records(self) -> Mapping[str, RequestRecord]:
        """Read-only view of every logged request, in creation order."""
        return _RecordsView(self)

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------

    def create(self, request_id: str, now: float) -> None:
        """Register a new request in its initial QUEUED state."""
        if request_id in self._open or request_id in self._created_rows:
            raise ValueError(f"duplicate request id {request_id!r}")
        self.created += 1
        self._open[request_id] = _QUEUED
        if self.keep_records:
            self._created_rows[request_id] = len(self._ids)
            self._log(request_id, _QUEUED, now)

    def advance(self, request_id: str, target: RequestState, now: float) -> None:
        """Move one request along a legal edge (raises otherwise)."""
        current = self._open.get(request_id)
        if current is None:
            raise IllegalTransitionError(
                request_id, RequestState.DONE, target
            )  # already terminal (or never created)
        value = target.value
        step = _EDGES[current].get(value)
        if step is None or _STATES[step[0]] is not target:
            raise IllegalTransitionError(request_id, _STATES[current], target)
        code, edge = step
        self.transitions[edge] = self.transitions.get(edge, 0) + 1
        if self.keep_records:
            self._log(request_id, code, now)
        if _TERMINAL[code]:
            self.terminal_counts[value] += 1
            del self._open[request_id]
        else:
            self._open[request_id] = code

    def _log(self, request_id: str, code: int, now: float) -> None:
        self._ids.append(request_id)
        self._codes.append(code)
        self._times.append(now)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def open_requests(self) -> int:
        """Requests created but not yet terminal."""
        return len(self._open)

    @property
    def done(self) -> int:
        return self.terminal_counts[RequestState.DONE.value]

    @property
    def shed(self) -> int:
        return self.terminal_counts[RequestState.SHED.value]

    @property
    def failed(self) -> int:
        return self.terminal_counts[RequestState.FAILED.value]

    def assert_accounted(self) -> None:
        """Totality check: created == done + shed + failed + open.

        Because ``advance`` only moves along legal edges and terminal
        states remove the request from the open set, any imbalance
        means a request skipped its terminal accounting.
        """
        accounted = self.done + self.shed + self.failed + self.open_requests
        if accounted != self.created:
            raise AssertionError(
                f"lifecycle ledger unbalanced: created={self.created} "
                f"done={self.done} shed={self.shed} failed={self.failed} "
                f"open={self.open_requests}"
            )

    def as_dict(self) -> Dict[str, object]:
        return {
            "created": self.created,
            "done": self.done,
            "shed": self.shed,
            "failed": self.failed,
            "open": self.open_requests,
            "transitions": dict(sorted(self.transitions.items())),
        }


class _RecordsView(Mapping):
    """``request id -> RequestRecord`` over a ledger's transition log.

    A lookup walks the request's rows from its creation row and returns
    a new record, a snapshot of its history so far.
    """

    __slots__ = ("_ledger",)

    def __init__(self, ledger: LifecycleLedger) -> None:
        self._ledger = ledger

    def __len__(self) -> int:
        return len(self._ledger._created_rows)

    def __iter__(self) -> Iterator[str]:
        return iter(self._ledger._created_rows)

    def __contains__(self, request_id: object) -> bool:
        return request_id in self._ledger._created_rows

    def __getitem__(self, request_id: str) -> RequestRecord:
        ledger = self._ledger
        ids, codes, times = ledger._ids, ledger._codes, ledger._times
        row = ledger._created_rows[request_id]
        history: List[Tuple[RequestState, float]] = []
        while True:
            code = codes[row]
            history.append((_STATES[code], times[row]))
            if _TERMINAL[code]:
                break
            try:
                row = ids.index(request_id, row + 1)
            except ValueError:  # still open: no later row yet
                break
        return RequestRecord(request_id, history)
