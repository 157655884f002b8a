"""The LTE Radio Resource Control (RRC) state machine, per device.

States modelled (following Huang et al., MobiSys'12, which the paper
cites):

- ``IDLE`` — RRC_IDLE, ~11 mW.
- ``PROMOTING`` — the IDLE→CONNECTED control-plane exchange (~0.26 s at
  ~1,210 mW).
- ``ACTIVE`` — RRC_CONNECTED with user data in flight.
- ``TAIL`` — RRC_CONNECTED after the last packet (short + long DRX,
  ~11.5 s at ~1,060 mW average).  By default *any* transfer resets the
  tail timer; Sense-Aid Complete's defining feature is that a
  crowdsensing upload during the tail does **not** reset it
  (:class:`TailPolicy`).

Besides simulating state transitions, the modem performs **marginal
energy attribution**: every transfer is charged, in closed form, the
energy the radio spends *because of that transfer* relative to the
counterfactual where it never happened.  This is exactly the accounting
the paper uses to compare frameworks:

- upload from IDLE → promotion + transfer + a full tail;
- upload during TAIL with reset (Sense-Aid Basic) → transfer increment
  over tail power + the tail *extension*;
- upload during TAIL without reset (Sense-Aid Complete) → transfer
  increment only;
- upload while ACTIVE (a PCS piggyback hit) → just the transfer-time
  extension.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, List, Optional, Tuple

from repro.cellular.packets import TrafficCategory
from repro.cellular.power import RadioPowerProfile
from repro.sim.engine import PRIORITY_RADIO, Simulator
from repro.sim.events import Event


class RRCState(Enum):
    IDLE = "idle"
    PROMOTING = "promoting"
    ACTIVE = "active"
    TAIL = "tail"


class TailPolicy(Enum):
    """How crowdsensing/control transfers interact with the tail timer.

    ``RESET`` is stock RRC behaviour (Sense-Aid Basic): every transfer
    restarts the tail.  ``NO_RESET`` is the carrier-cooperative mode
    (Sense-Aid Complete): crowdsensing and control transfers leave the
    tail deadline untouched, so the radio drops to IDLE exactly when it
    would have anyway.  Background (regular app) traffic always resets.
    """

    RESET = "reset"
    NO_RESET = "no_reset"


StateListener = Callable[[RRCState, RRCState], None]
EnergyListener = Callable[[TrafficCategory, float, str], None]


class RadioModem:
    """Simulated cellular radio for one device."""

    def __init__(
        self,
        sim: Simulator,
        profile: RadioPowerProfile,
        owner_id: str,
        tail_policy: TailPolicy = TailPolicy.RESET,
    ) -> None:
        self._sim = sim
        self.profile = profile
        self.owner_id = owner_id
        self.tail_policy = tail_policy
        self._state = RRCState.IDLE
        # Residency: seconds per state, closed at each exit, plus the
        # open occupancy since ``_entered_at`` (see ``state_residency``).
        self._entered_at = sim.now
        self._seconds_idle = 0.0
        self._seconds_promoting = 0.0
        self._seconds_active = 0.0
        self._seconds_tail = 0.0
        #: States left at least once, in the order first left.
        self._left: Tuple[RRCState, ...] = ()
        self._active_until = 0.0
        self._tail_deadline = 0.0
        self._tail_entered_at = 0.0
        self._tail_offset_base = 0.0
        self._resume_tail_deadline: Optional[float] = None
        self._burst_resets_tail = False
        self._pending_transition: Optional[Event] = None
        self._last_comm_end: Optional[float] = None
        self._state_listeners: List[StateListener] = []
        self._energy_listeners: List[EnergyListener] = []
        self._transfers = 0
        self._promotions = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def state(self) -> RRCState:
        return self._state

    @property
    def in_tail(self) -> bool:
        return self._state is RRCState.TAIL

    @property
    def is_connected(self) -> bool:
        """True in any RRC_CONNECTED sub-state (active or tail)."""
        return self._state in (RRCState.ACTIVE, RRCState.TAIL)

    @property
    def promotions(self) -> int:
        return self._promotions

    @property
    def transfers(self) -> int:
        return self._transfers

    def tail_remaining(self) -> float:
        """Seconds of tail left, or 0.0 when not in the tail."""
        if self._state is not RRCState.TAIL:
            return 0.0
        return max(0.0, self._tail_deadline - self._sim.now)

    def seconds_since_last_comm(self) -> Optional[float]:
        """The paper's TTL factor: now minus last transfer completion.

        None if the radio has never communicated.
        """
        if self._last_comm_end is None:
            return None
        return self._sim.now - self._last_comm_end

    def total_energy_j(self) -> float:
        """Total radio energy so far, integrated over state residency."""
        power_mw = {
            RRCState.IDLE: self.profile.idle_mw,
            RRCState.PROMOTING: self.profile.promotion_mw,
            RRCState.ACTIVE: self.profile.active_mw,
            RRCState.TAIL: self.profile.tail_mw,
        }
        residency = self.state_residency()
        return sum(
            power_mw[state] / 1000.0 * seconds for state, seconds in residency.items()
        )

    def state_residency(self) -> dict:
        """Seconds spent in each RRC state so far.

        Keys are the states the radio has left, in the order it first
        left them (always a prefix of IDLE, PROMOTING, ACTIVE, TAIL),
        then the current state if it is not already listed; the
        current state's entry includes the open occupancy.
        """
        residency = {state: self._seconds_in(state) for state in self._left}
        current = self._state
        residency[current] = residency.get(current, 0.0) + (self._sim.now - self._entered_at)
        return residency

    def _seconds_in(self, state: RRCState) -> float:
        """Closed residency of ``state``, excluding any open occupancy."""
        if state is RRCState.IDLE:
            return self._seconds_idle
        if state is RRCState.PROMOTING:
            return self._seconds_promoting
        if state is RRCState.ACTIVE:
            return self._seconds_active
        return self._seconds_tail

    # ------------------------------------------------------------------
    # Listeners
    # ------------------------------------------------------------------

    def add_state_listener(self, listener: StateListener) -> None:
        """Observe transitions; e.g. clients trigger uploads on TAIL entry."""
        self._state_listeners.append(listener)

    def add_energy_listener(self, listener: EnergyListener) -> None:
        """Observe marginal energy charges ``(category, joules, reason)``."""
        self._energy_listeners.append(listener)

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------

    def transmit(
        self,
        size_bytes: int,
        category: TrafficCategory,
        *,
        uplink: bool = True,
        resets_tail: Optional[bool] = None,
        on_complete: Optional[Callable[[], None]] = None,
    ) -> float:
        """Send/receive ``size_bytes`` of data; returns the completion time.

        ``resets_tail`` defaults from the modem's :class:`TailPolicy`:
        background traffic always resets; crowdsensing/control traffic
        resets only under ``TailPolicy.RESET``.
        """
        if resets_tail is None:
            resets_tail = self._default_resets_tail(category)
        transfer_s = self.profile.transfer_time(size_bytes, uplink=uplink)
        now = self._sim.now
        self._transfers += 1

        if self._state is RRCState.IDLE:
            completion = self._start_from_idle(transfer_s, category)
            self._burst_resets_tail = True  # cold bursts always get a fresh tail
            self._resume_tail_deadline = None
        elif self._state is RRCState.PROMOTING:
            completion = self._extend_active(transfer_s, category)
        elif self._state is RRCState.ACTIVE:
            completion = self._extend_active(transfer_s, category)
            if resets_tail:
                self._burst_resets_tail = True
        else:  # TAIL
            completion = self._start_from_tail(transfer_s, category, resets_tail)

        self._schedule_completion(completion, on_complete)
        return completion

    def receive(
        self,
        size_bytes: int,
        category: TrafficCategory,
        *,
        resets_tail: Optional[bool] = None,
        on_complete: Optional[Callable[[], None]] = None,
    ) -> float:
        """Downlink transfer; a page from IDLE still pays the promotion."""
        return self.transmit(
            size_bytes,
            category,
            uplink=False,
            resets_tail=resets_tail,
            on_complete=on_complete,
        )

    # ------------------------------------------------------------------
    # Internal state machinery
    # ------------------------------------------------------------------

    def _default_resets_tail(self, category: TrafficCategory) -> bool:
        if category is TrafficCategory.BACKGROUND:
            return True
        return self.tail_policy is TailPolicy.RESET

    def _start_from_idle(self, transfer_s: float, category: TrafficCategory) -> float:
        now = self._sim.now
        profile = self.profile
        self._promotions += 1
        self._charge(
            category,
            profile.promotion_energy_j()
            + profile.active_energy_j(transfer_s)
            + profile.tail_energy_j(),
            "cold_upload",
        )
        self._enter(RRCState.PROMOTING)
        self._active_until = now + profile.promotion_s + transfer_s
        self._cancel_pending()
        self._pending_transition = self._sim.schedule(
            profile.promotion_s, self._promotion_done, priority=PRIORITY_RADIO
        )
        return self._active_until

    def _extend_active(self, transfer_s: float, category: TrafficCategory) -> float:
        # The active phase (and everything after it) shifts later by the
        # transfer time, so the marginal cost is active-over-idle time.
        self._charge(
            category, self.profile.active_energy_j(transfer_s), "piggyback"
        )
        self._active_until += transfer_s
        if self._state is RRCState.ACTIVE:
            self._cancel_pending()
            self._pending_transition = self._sim.schedule_at(
                self._active_until, self._active_done, priority=PRIORITY_RADIO
            )
        return self._active_until

    def _start_from_tail(
        self, transfer_s: float, category: TrafficCategory, resets_tail: bool
    ) -> float:
        now = self._sim.now
        profile = self.profile
        old_deadline = self._tail_deadline
        offset_now = self._tail_offset(now)

        # Marginal energy, stage-exact (see power.tail_energy_between):
        # the transfer itself costs active-over-idle; what it changes
        # about the tail depends on whether the timer resets.
        marginal = profile.active_energy_j(transfer_s)
        if resets_tail:
            # Actual: a full fresh tail after the transfer.
            # Counterfactual: the remainder of the old tail.
            marginal += profile.tail_energy_between(0.0, profile.tail_s)
            marginal -= profile.tail_energy_between(offset_now, profile.tail_s)
            self._burst_resets_tail = True
            self._resume_tail_deadline = None
        else:
            # The timer keeps running during the transfer; the radio
            # idles exactly when it would have, so the only tail-side
            # change is the stretch the transfer displaced.
            marginal -= profile.tail_energy_between(
                offset_now, offset_now + transfer_s
            )
            self._burst_resets_tail = False
            self._resume_tail_deadline = old_deadline
        reason = "tail_upload_reset" if resets_tail else "tail_upload_no_reset"
        self._charge(category, max(0.0, marginal), reason)

        self._enter(RRCState.ACTIVE)
        self._active_until = now + transfer_s
        self._cancel_pending()
        self._pending_transition = self._sim.schedule_at(
            self._active_until, self._active_done, priority=PRIORITY_RADIO
        )
        return self._active_until

    def _promotion_done(self) -> None:
        self._enter(RRCState.ACTIVE)
        self._pending_transition = self._sim.schedule_at(
            self._active_until, self._active_done, priority=PRIORITY_RADIO
        )

    def _active_done(self) -> None:
        now = self._sim.now
        self._pending_transition = None
        self._last_comm_end = now
        if self._burst_resets_tail or self._resume_tail_deadline is None:
            deadline = now + self.profile.tail_s
        else:
            deadline = self._resume_tail_deadline
        self._resume_tail_deadline = None
        self._burst_resets_tail = False
        if deadline <= now:
            self._enter(RRCState.IDLE)
            return
        self._tail_deadline = deadline
        # Where in the (possibly staged) tail we are resuming: a fresh
        # tail starts at offset 0; a preserved deadline means the timer
        # kept running while we transferred.
        self._tail_entered_at = now
        self._tail_offset_base = self.profile.tail_s - (deadline - now)
        self._enter(RRCState.TAIL)
        self._pending_transition = self._sim.schedule_at(
            deadline, self._tail_done, priority=PRIORITY_RADIO
        )

    def _tail_offset(self, at_time: float) -> float:
        """Seconds into the tail's (staged) lifetime at ``at_time``."""
        return max(
            0.0,
            min(
                self.profile.tail_s,
                self._tail_offset_base + (at_time - self._tail_entered_at),
            ),
        )

    def _tail_done(self) -> None:
        self._pending_transition = None
        self._enter(RRCState.IDLE)

    def _schedule_completion(
        self, completion: float, on_complete: Optional[Callable[[], None]]
    ) -> None:
        if on_complete is not None:
            # Fire after the radio's own transition at the same instant.
            self._sim.schedule_at(completion, on_complete)

    def _enter(self, new_state: RRCState) -> None:
        old_state = self._state
        if new_state is old_state:
            return
        now = self._sim.now
        held = now - self._entered_at
        if old_state is RRCState.IDLE:
            self._seconds_idle += held
        elif old_state is RRCState.PROMOTING:
            self._seconds_promoting += held
        elif old_state is RRCState.ACTIVE:
            self._seconds_active += held
        else:
            self._seconds_tail += held
        if old_state not in self._left:
            self._left += (old_state,)
        self._entered_at = now
        self._state = new_state
        for listener in self._state_listeners:
            listener(old_state, new_state)

    def _cancel_pending(self) -> None:
        if self._pending_transition is not None:
            self._sim.cancel(self._pending_transition)
            self._pending_transition = None

    def _charge(self, category: TrafficCategory, joules: float, reason: str) -> None:
        if joules < 0:  # pragma: no cover - defensive; formulas are non-negative
            raise ValueError(f"negative marginal energy {joules!r} ({reason})")
        for listener in self._energy_listeners:
            listener(category, joules, reason)
