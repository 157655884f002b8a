"""Overload control for the Sense-Aid control plane.

A carrier-grade edge service must survive traffic spikes without
collapsing: when more control-plane requests arrive than the instance
can process, the right behaviour is to *shed load by priority* and
tell the refused clients when to come back — not to queue unboundedly
or fail randomly.  This module provides that layer:

- a **virtual admission queue** bounded by
  :class:`~repro.core.config.OverloadPolicy.queue_capacity`, drained
  at ``service_rate_per_s`` (a fluid model: depth decays continuously
  with simulation time, so no per-request events are needed);
- **priority-aware shedding** — registrations outrank uploads outrank
  queries.  Each class has its own depth threshold, ordered so a
  registration is only refused when the queue is completely full, by
  which point every lower class is already being shed;
- a **circuit breaker** — after ``breaker_threshold`` consecutive
  sheds the controller stops admitting uploads/queries outright for
  :data:`BREAKER_COOLDOWN_S`, returning the remaining cooldown as the
  backoff hint so clients stay away while the queue drains;
- **Retry-After hints** — every shed decision carries a
  ``retry_after_s`` sized to the backlog, which
  :class:`~repro.core.config.RetryPolicy` honours on the client side
  (``shed_delay_s``).

Everything is deterministic: depth and breaker state are pure
functions of the simulation clock and the admission sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional

from repro.core.config import OverloadPolicy
from repro.sim.engine import Simulator
from repro.sim.simlog import SimLogger

#: Fraction of ``queue_capacity`` past which each request class is
#: shed.  Registrations are refused only when the queue is full.
REGISTRATION_SHED_FRACTION = 1.0
UPLOAD_SHED_FRACTION = 0.75
QUERY_SHED_FRACTION = 0.5
#: Seconds a tripped circuit breaker stays open.
BREAKER_COOLDOWN_S = 30.0


class RequestClass(Enum):
    """Control-plane request priority classes (lower rank = higher
    priority; registrations are shed last)."""

    REGISTRATION = "registration"
    UPLOAD = "upload"
    QUERY = "query"


@dataclass
class OverloadStats:
    """Everything the admission controller did to a run."""

    admitted: Dict[str, int] = field(
        default_factory=lambda: {c.value: 0 for c in RequestClass}
    )
    shed: Dict[str, int] = field(
        default_factory=lambda: {c.value: 0 for c in RequestClass}
    )
    breaker_opens: int = 0
    breaker_rejects: int = 0
    max_queue_depth: float = 0.0

    @property
    def total_admitted(self) -> int:
        return sum(self.admitted.values())

    @property
    def total_shed(self) -> int:
        return sum(self.shed.values())


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check."""

    admitted: bool
    request_class: RequestClass
    reason: str = ""
    #: Client-visible backoff hint (seconds); 0 when admitted.
    retry_after_s: float = 0.0
    #: Queue depth observed at decision time (diagnostics/tests).
    queue_depth: float = 0.0


class ServerOverloadedError(RuntimeError):
    """Raised when a synchronous control-plane call is shed.

    Carries the ``Retry-After``-style hint so the caller can schedule
    a compliant retry.
    """

    def __init__(self, decision: AdmissionDecision) -> None:
        super().__init__(
            f"server overloaded ({decision.reason}); "
            f"retry after {decision.retry_after_s:.1f}s"
        )
        self.decision = decision

    @property
    def retry_after_s(self) -> float:
        return self.decision.retry_after_s


class AdmissionController:
    """Bounded-queue admission control with priority shedding.

    The queue is *fluid*: ``depth`` rises by one per admitted request
    and decays at the policy's service rate as simulation time passes.
    ``admit`` is the only entry point; it never blocks — the caller
    gets an immediate admit/shed decision and, when shed, a backoff
    hint.
    """

    def __init__(self, sim: Simulator, policy: OverloadPolicy) -> None:
        self._sim = sim
        self.policy = policy
        self.stats = OverloadStats()
        self._depth = 0.0
        self._last_drain = sim.now
        self._consecutive_sheds = 0
        self._breaker_open_until: Optional[float] = None
        self._log = SimLogger(sim, "repro.core.overload")

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def queue_depth(self) -> float:
        """Current backlog (requests admitted but not yet serviced)."""
        self._drain()
        return self._depth

    @property
    def breaker_open(self) -> bool:
        return (
            self._breaker_open_until is not None
            and self._sim.now < self._breaker_open_until
        )

    def _drain(self) -> None:
        now = self._sim.now
        elapsed = now - self._last_drain
        if elapsed > 0:
            self._depth = max(
                0.0, self._depth - elapsed * self.policy.service_rate_per_s
            )
            self._last_drain = now

    def _threshold(self, request_class: RequestClass) -> float:
        # Identity tests, not a dict keyed by the enum: admission runs
        # once per request, and hashing an enum member is a Python call.
        if request_class is RequestClass.REGISTRATION:
            fraction = REGISTRATION_SHED_FRACTION
        elif request_class is RequestClass.UPLOAD:
            fraction = UPLOAD_SHED_FRACTION
        else:
            fraction = QUERY_SHED_FRACTION
        return self.policy.queue_capacity * fraction

    def _retry_after(self, overshoot: float) -> float:
        """Hint: base pause plus the time to drain the overshoot."""
        return self.policy.retry_after_base_s + max(0.0, overshoot) / (
            self.policy.service_rate_per_s
        )

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def admit(self, request_class: RequestClass) -> AdmissionDecision:
        """Decide one request; updates depth/breaker/stat state."""
        self._drain()
        depth = self._depth
        # Open breaker: refuse everything below registration priority
        # immediately, hinting the remaining cooldown.
        if self.breaker_open and request_class is not RequestClass.REGISTRATION:
            self.stats.breaker_rejects += 1
            self.stats.shed[request_class.value] += 1
            remaining = self._breaker_open_until - self._sim.now
            return self._shed(
                request_class, depth, "breaker_open", retry_after_s=remaining
            )
        threshold = self._threshold(request_class)
        if depth + 1.0 > threshold:
            self.stats.shed[request_class.value] += 1
            self._consecutive_sheds += 1
            if (
                self._consecutive_sheds >= self.policy.breaker_threshold
                and not self.breaker_open
            ):
                self._breaker_open_until = self._sim.now + BREAKER_COOLDOWN_S
                self.stats.breaker_opens += 1
                self._log.event(
                    "overload.breaker_open",
                    until=round(self._breaker_open_until, 6),
                    queue_depth=round(depth, 3),
                )
            return self._shed(
                request_class,
                depth,
                "queue_full",
                retry_after_s=self._retry_after(depth + 1.0 - threshold),
            )
        self._depth = depth + 1.0
        self.stats.max_queue_depth = max(self.stats.max_queue_depth, self._depth)
        self.stats.admitted[request_class.value] += 1
        self._consecutive_sheds = 0
        return AdmissionDecision(
            admitted=True, request_class=request_class, queue_depth=self._depth
        )

    def _shed(
        self,
        request_class: RequestClass,
        depth: float,
        reason: str,
        *,
        retry_after_s: float,
    ) -> AdmissionDecision:
        self._log.event(
            "overload.shed",
            request_class=request_class.value,
            reason=reason,
            queue_depth=round(depth, 3),
            retry_after_s=round(retry_after_s, 6),
        )
        return AdmissionDecision(
            admitted=False,
            request_class=request_class,
            reason=reason,
            retry_after_s=retry_after_s,
            queue_depth=depth,
        )
