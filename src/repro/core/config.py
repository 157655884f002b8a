"""Configuration of the Sense-Aid server.

The selector weights are the paper's α, β, γ, φ coefficients; the
defaults make the *times-selected* term dominate so that selection
rotates fairly through qualified devices (the behaviour Fig. 9 shows),
with the TTL term breaking ties in favour of devices whose radio
communicated recently (and is therefore likely still in its tail).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.cellular.rrc import TailPolicy


class ControlPlane(Enum):
    """How task assignments reach devices.

    ``PULL`` — the paper's design: the client's service thread contacts
    the server during radio tails, so assignment delivery rides
    existing connectivity and (per the paper's accounting) costs no
    measurable device energy.  ``PUSH_PAGED`` — the naive alternative:
    the server pages the device over the downlink, waking an idle radio
    and paying promotion + tail per assignment; exists to quantify why
    the pull design matters.
    """

    PULL = "pull"
    PUSH_PAGED = "push_paged"


class ServerMode(Enum):
    """The paper's two implementation variants.

    ``BASIC`` — crowdsensing uploads reset the tail timer (stock RRC;
    no carrier cooperation needed).  ``COMPLETE`` — uploads during the
    tail do not reset it, so the radio idles exactly when it would have
    anyway.
    """

    BASIC = "basic"
    COMPLETE = "complete"

    @property
    def tail_policy(self) -> TailPolicy:
        if self is ServerMode.BASIC:
            return TailPolicy.RESET
        return TailPolicy.NO_RESET


@dataclass(frozen=True)
class SelectorWeights:
    """Coefficients of ``Score(i) = α·E + β·U + γ·(100−CBL) + φ·TTL``.

    Lower score wins.
    """

    alpha: float = 0.01    # per Joule of crowdsensing energy used
    beta: float = 1.0      # per previous selection
    gamma: float = 0.005   # per percentage point of battery depleted
    phi: float = 0.0015    # per second since last radio communication

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "phi"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


#: Ceiling of the client's retry backoff, in seconds.
BACKOFF_MAX_S = 300.0
#: Ceiling of a server's ``Retry-After`` hint, in seconds: the hint
#: arrives over the network, so one absurd value must not park an
#: upload forever.
RETRY_AFTER_CAP_S = 900.0


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side upload retry policy (exponential backoff).

    An upload is considered acknowledged when the server's ack comes
    back within ``ack_timeout_s``; otherwise the client retries with
    backoff ``backoff_base_s · backoff_multiplier^(attempt−1)`` capped
    at :data:`BACKOFF_MAX_S`, jittered by ±``jitter_fraction`` (drawn from
    the client's own deterministic ``retry:<device>`` stream), up to
    ``max_attempts`` total transmissions.  Retries are tail-aware: a
    due retry waits up to ``tail_wait_max_s`` for the radio's next
    CONNECTED window before forcing a cold transmission, so retry
    traffic keeps the energy discipline of first-try uploads.
    """

    max_attempts: int = 4
    ack_timeout_s: float = 30.0
    backoff_base_s: float = 10.0
    backoff_multiplier: float = 2.0
    jitter_fraction: float = 0.2
    tail_wait_max_s: float = 60.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        for name in ("ack_timeout_s", "backoff_base_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ValueError("jitter_fraction must be in [0, 1)")
        if self.tail_wait_max_s < 0:
            raise ValueError("tail_wait_max_s must be non-negative")

    def backoff_s(self, attempt: int) -> float:
        """Nominal (un-jittered) backoff after the given attempt number.

        Saturates at :data:`BACKOFF_MAX_S` without evaluating the raw
        exponential, so pathological attempt numbers (a client stuck in
        a shed loop for days) cannot overflow ``float`` arithmetic.
        """
        if attempt < 1:
            raise ValueError("attempt numbers start at 1")
        if self.backoff_base_s >= BACKOFF_MAX_S:
            return BACKOFF_MAX_S
        if self.backoff_multiplier <= 1.0:
            return self.backoff_base_s
        saturation = math.log(
            BACKOFF_MAX_S / self.backoff_base_s, self.backoff_multiplier
        )
        if attempt - 1 >= saturation:
            return BACKOFF_MAX_S
        raw = self.backoff_base_s * self.backoff_multiplier ** (attempt - 1)
        return min(BACKOFF_MAX_S, raw)

    def shed_delay_s(self, attempt: int, retry_after_s: float) -> float:
        """Delay before retrying an upload the server *shed*.

        An overloaded server returns a ``Retry-After``-style hint with
        the rejection; honouring it means waiting at least that long —
        retrying earlier would land in the same overload window.  The
        client still keeps its own exponential-backoff floor so repeated
        sheds of the same upload back off progressively.

        The hint crossed an unreliable network from a struggling
        server, so it is sanitised rather than trusted: zero, negative,
        NaN, or non-finite hints collapse to "no hint" (the backoff
        floor alone), and absurdly large hints are clamped to
        :data:`RETRY_AFTER_CAP_S` so one bad ack cannot park an upload
        forever.
        """
        hint = retry_after_s
        if not isinstance(hint, (int, float)) or not math.isfinite(hint) or hint <= 0:
            hint = 0.0
        hint = min(float(hint), RETRY_AFTER_CAP_S)
        return max(hint, self.backoff_s(attempt))


@dataclass(frozen=True)
class OverloadPolicy:
    """Server-side overload-control parameters (admission + shedding).

    The control plane processes ``service_rate_per_s`` requests per
    second; arrivals beyond that accumulate in a virtual admission
    queue whose depth is capped at ``queue_capacity``.  Shedding is
    priority-aware — each request class is refused once the queue
    passes its own fraction of capacity (the ``*_SHED_FRACTION``
    constants of :mod:`repro.core.overload`), ordered so
    *registrations outrank uploads outrank queries*: a registration is
    only ever dropped when the queue is completely full, by which point
    every upload and query is already being shed.

    Shed requests receive a ``Retry-After``-style hint sized to the
    current backlog (``retry_after_base_s`` + time to drain back under
    the class threshold).  ``breaker_threshold`` consecutive sheds open
    a client-visible circuit breaker for
    :data:`~repro.core.overload.BREAKER_COOLDOWN_S`: while open,
    uploads and queries are refused immediately with the remaining
    cooldown as the hint, letting the queue drain instead of churning.
    """

    queue_capacity: int = 64
    service_rate_per_s: float = 50.0
    retry_after_base_s: float = 2.0
    breaker_threshold: int = 20

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if self.service_rate_per_s <= 0:
            raise ValueError("service_rate_per_s must be positive")
        if self.retry_after_base_s < 0:
            raise ValueError("retry_after_base_s must be non-negative")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be at least 1")


@dataclass(frozen=True)
class SenseAidConfig:
    """Tunable parameters of one server instance."""

    mode: ServerMode = ServerMode.COMPLETE
    weights: SelectorWeights = field(default_factory=SelectorWeights)
    #: Seconds before a request deadline at which a selected device
    #: gives up waiting for a tail and force-uploads.
    deadline_grace_s: float = 5.0
    #: When True the server selects *every* qualified device (the
    #: paper's no-orchestration ablation); spatial density still gates
    #: satisfiability.
    select_all_qualified: bool = False
    #: Assignment delivery mechanism (see :class:`ControlPlane`).
    control_plane: ControlPlane = ControlPlane.PULL
    #: Deadline reassignment is an explicit two-mode setting:
    #:
    #: - ``None`` — reassignment **off** (the paper's stock behaviour):
    #:   a request whose readings never arrive simply misses its
    #:   density; ``reassignment_enabled`` is False.
    #: - a positive float — reassignment **on**: the server re-checks
    #:   each request this many seconds before its deadline and assigns
    #:   substitute devices for any readings that have not arrived
    #:   (lost uploads, vanished devices — the §8 data-collection-
    #:   failure handling).  Must be strictly smaller than
    #:   ``deadline_grace_s`` so originals get their forced-upload
    #:   chance first.
    #:
    #: Any other value (zero, negative, bool, non-number) is rejected
    #: in ``__post_init__`` — "off" is only ever spelled ``None``.
    reassign_margin_s: Optional[float] = None
    #: Deployment model (paper §6).  True: the cellular provider runs
    #: Sense-Aid and the eNodeBs' live RRC view (last-communication
    #: age) feeds the selector's TTL factor.  False: a third-party
    #: provider without carrier integration — it only learns about a
    #: device's radio from the device's own uploads and control pings,
    #: so the TTL factor goes stale between contacts.
    carrier_integrated: bool = True
    #: Overload control (admission queue, priority shedding, circuit
    #: breaker).  None — the default — disables admission control
    #: entirely: every request is processed, as in the original design.
    overload: Optional[OverloadPolicy] = None

    def __post_init__(self) -> None:
        if self.deadline_grace_s < 0:
            raise ValueError("deadline_grace_s must be non-negative")
        if self.reassign_margin_s is not None:
            if isinstance(self.reassign_margin_s, bool) or not isinstance(
                self.reassign_margin_s, (int, float)
            ):
                raise TypeError(
                    "reassign_margin_s must be None (reassignment off) or a "
                    f"positive number, got {self.reassign_margin_s!r}"
                )
            if self.reassign_margin_s <= 0:
                raise ValueError(
                    "reassign_margin_s must be positive; to disable "
                    "reassignment, pass None explicitly"
                )
            if self.reassign_margin_s >= self.deadline_grace_s:
                raise ValueError(
                    "reassign_margin_s must be smaller than deadline_grace_s: "
                    "the original device's forced upload must have had its "
                    "chance before the server drafts substitutes"
                )

    @property
    def reassignment_enabled(self) -> bool:
        """True when the deadline-reassignment mode is on (see
        ``reassign_margin_s``)."""
        return self.reassign_margin_s is not None
