"""Message transport between devices and the server side.

The network models two things the experiments need: (1) every transfer
exercises the sending/receiving device's radio (and therefore its
energy ledger), and (2) traffic is routed over the paper's two eNodeB→
core paths — *path 1* straight to the S-GW, or *path 2* through the
Sense-Aid server when the traffic is crowdsensing-related.  Path
counters let tests assert the interposition behaviour; a fail-safe
flag models the paper's "path 1 if the Sense-Aid server crashes".

Failure semantics live in two places, deliberately separated:

- the network's own i.i.d. ``loss_probability`` draws from the
  dedicated ``network:loss`` stream, so enabling it never perturbs the
  mobility/traffic/sensor streams of a same-seed run;
- richer, correlated failures (bursty loss, extra delay, duplication,
  reordering, tower outages) are delegated to an installed **fault
  hook** (see :mod:`repro.faults`), which draws from its own
  ``faults:*`` streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.cellular.packets import Message, TrafficCategory
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class DeliveryReceipt:
    """Outcome of one transfer: when the radio finished, when delivered."""

    message_id: int
    radio_complete_at: float
    delivered_at: float
    path: str


class CellularNetwork:
    """Uplink/downlink transport with core-network latency."""

    PATH_DIRECT = "path1"
    PATH_SENSE_AID = "path2"
    #: Core-network transit time of every delivery, in seconds.
    core_latency_s = 0.05

    def __init__(self, sim: Simulator, *, loss_probability: float = 0.0) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError(
                f"loss_probability must be in [0, 1), got {loss_probability!r}"
            )
        self._sim = sim
        #: Probability an uplink message is lost in the core after the
        #: radio transmitted it (energy spent, delivery never happens) —
        #: exercises the data-collection failure handling of §8.
        self.loss_probability = loss_probability
        self._loss_rng = sim.rng.stream("network:loss")
        self._fault_hook = None
        self._sense_aid_up = True
        self._path_listeners: List[Callable[[bool], None]] = []
        self.path1_messages = 0
        self.path2_messages = 0
        self.messages_lost = 0
        self.messages_dropped_by_faults = 0
        self.messages_duplicated = 0

    # ------------------------------------------------------------------
    # Fault layer attachment
    # ------------------------------------------------------------------

    def install_fault_hook(self, hook) -> None:
        """Attach a fault layer.

        The hook duck-types two methods, ``on_uplink(device, message)``
        and ``on_downlink(device, message)``, each returning either
        ``None`` (no injection) or a decision object with ``drop``
        (bool), ``extra_delay_s`` (float) and ``copy_delays`` (extra
        deliveries, each with its own additional delay — duplication,
        and through unequal delays, reordering).
        """
        if self._fault_hook is not None and hook is not None:
            raise RuntimeError("a fault hook is already installed")
        self._fault_hook = hook

    # ------------------------------------------------------------------
    # Sense-Aid path availability (crash / partition fail-safe)
    # ------------------------------------------------------------------

    @property
    def sense_aid_path_available(self) -> bool:
        return self._sense_aid_up

    def set_sense_aid_path_available(self, available: bool) -> None:
        """Simulate a Sense-Aid server crash / recovery (fail-safe path 1)."""
        available = bool(available)
        if available == self._sense_aid_up:
            return
        self._sense_aid_up = available
        for listener in list(self._path_listeners):
            listener(available)

    def add_path_listener(self, listener: Callable[[bool], None]) -> None:
        """Subscribe to Sense-Aid path up/down transitions.

        Clients use a restoration to resync with a server that
        restarted while the path was down.
        """
        self._path_listeners.append(listener)

    def route_for(self, message: Message) -> str:
        """Crowdsensing/control traffic interposes through Sense-Aid."""
        crowdsensing = message.category in (
            TrafficCategory.CROWDSENSING,
            TrafficCategory.CONTROL,
        )
        if crowdsensing and self._sense_aid_up:
            return self.PATH_SENSE_AID
        return self.PATH_DIRECT

    def uplink(
        self,
        device: object,
        message: Message,
        on_delivered: Optional[Callable[[Message, DeliveryReceipt], None]] = None,
        *,
        resets_tail: Optional[bool] = None,
    ) -> None:
        """Send ``message`` from ``device`` to the server side.

        Drives the device's radio (which performs energy attribution)
        and delivers the message after the core-network latency.  Loss
        (i.i.d. or injected) strikes *after* the radio transmitted:
        energy is spent either way.
        """
        self._count_path(message)
        path = self.route_for(message)
        message.created_at = self._sim.now

        def radio_done() -> None:
            radio_complete = self._sim.now
            if (
                self.loss_probability > 0.0
                and self._loss_rng.random() < self.loss_probability
            ):
                self.messages_lost += 1
                return
            decision = (
                self._fault_hook.on_uplink(device, message)
                if self._fault_hook is not None
                else None
            )
            if decision is not None and decision.drop:
                self.messages_dropped_by_faults += 1
                return
            if on_delivered is None:
                return

            def deliver() -> None:
                receipt = DeliveryReceipt(
                    message_id=message.message_id,
                    radio_complete_at=radio_complete,
                    delivered_at=self._sim.now,
                    path=path,
                )
                on_delivered(message, receipt)

            for delay in self._delivery_delays(decision):
                self._sim.schedule(delay, deliver)

        device.modem.transmit(
            message.size_bytes,
            message.category,
            uplink=True,
            resets_tail=resets_tail,
            on_complete=radio_done,
        )

    def downlink(
        self,
        device: object,
        message: Message,
        on_delivered: Optional[Callable[[Message, DeliveryReceipt], None]] = None,
    ) -> None:
        """Push ``message`` from the server side down to ``device``."""
        self._count_path(message)
        path = self.route_for(message)
        message.created_at = self._sim.now

        def delivered_to_radio() -> None:
            if on_delivered is None:
                return
            receipt = DeliveryReceipt(
                message_id=message.message_id,
                radio_complete_at=self._sim.now,
                delivered_at=self._sim.now,
                path=path,
            )
            on_delivered(message, receipt)

        def start_radio() -> None:
            device.modem.receive(
                message.size_bytes, message.category, on_complete=delivered_to_radio
            )

        decision = (
            self._fault_hook.on_downlink(device, message)
            if self._fault_hook is not None
            else None
        )
        if decision is not None and decision.drop:
            self.messages_dropped_by_faults += 1
            return
        for delay in self._delivery_delays(decision):
            self._sim.schedule(delay, start_radio)

    def _delivery_delays(self, decision) -> List[float]:
        """Core-transit delays for one message's deliveries.

        One entry per copy: the original plus any injected duplicates.
        """
        base = self.core_latency_s
        if decision is None:
            return [base]
        delays = [base + decision.extra_delay_s]
        for copy_delay in decision.copy_delays:
            self.messages_duplicated += 1
            delays.append(base + copy_delay)
        return delays

    def _count_path(self, message: Message) -> None:
        if self.route_for(message) == self.PATH_SENSE_AID:
            self.path2_messages += 1
        else:
            self.path1_messages += 1
