"""Deterministic fault injection for the client–network–server path.

:class:`FaultInjector` sits behind the :class:`CellularNetwork` fault
hook and executes a :class:`~repro.faults.plan.FaultPlan` against the
live topology.  Everything it does is deterministic per master seed:
all randomness comes from its own named streams (``faults:loss``,
``faults:delay``, ``faults:dup``), so switching the chaos layer on
never perturbs the mobility/traffic/sensor draws of a same-seed run —
the baseline and the chaos arm of an experiment still see the same
world, they just suffer different deliveries.

What it can inject:

- **bursty loss** — a :class:`GilbertElliott` chain stepped per message;
- **delay / reordering** — extra per-message core delay; unequal
  delays reorder consecutive messages naturally;
- **duplication** — extra deliveries of the same message, exercising
  the server's idempotency keys;
- **tower outages** — ``ENodeB.fail()/restore()`` with device
  re-association; messages through a dead tower are dropped;
- **partitions** — the Sense-Aid edge becomes unreachable (traffic
  fail-safes to path 1; client uploads ride out the cut on their
  retry schedule);
- **device churn** — abrupt device death (client powers off) and
  server-side record loss.

Every injection lands in the structured event log, so a chaos run is
auditable — and fingerprintable — from the log alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.cellular.network import CellularNetwork
from repro.cellular.packets import Message
from repro.faults.models import GilbertElliott
from repro.faults.plan import FaultEvent, FaultPlan
from repro.sim.engine import Simulator
from repro.sim.simlog import SimLogger


@dataclass(frozen=True)
class FaultDecision:
    """What the fault layer decided for one message.

    ``copy_delays`` holds one extra-delay entry per *additional*
    delivery (duplication); the network adds each to its base core
    latency, so copies can overtake the original (reordering).
    """

    drop: bool = False
    reason: str = ""
    extra_delay_s: float = 0.0
    copy_delays: Tuple[float, ...] = ()


@dataclass
class FaultStats:
    """Counters for everything the injector did to a run."""

    messages_seen: int = 0
    losses_injected: int = 0
    outage_drops: int = 0
    dead_device_drops: int = 0
    delays_injected: int = 0
    duplicates_injected: int = 0
    tower_failures: int = 0
    tower_restores: int = 0
    partitions: int = 0
    heals: int = 0
    devices_killed: int = 0
    devices_deregistered: int = 0
    server_crashes: int = 0
    server_restarts: int = 0
    shard_crashes: int = 0
    shard_partitions: int = 0
    shard_heals: int = 0
    overload_bursts: int = 0
    burst_requests: int = 0
    events_executed: int = 0


class FaultInjector:
    """Scenario-driven chaos for one simulated cellular deployment."""

    def __init__(
        self,
        sim: Simulator,
        network: CellularNetwork,
        registry=None,
        *,
        server=None,
        fleet=None,
        plan: Optional[FaultPlan] = None,
        loss_model: Optional[GilbertElliott] = None,
        duplicate_probability: float = 0.0,
        duplicate_lag_s: Tuple[float, float] = (0.0, 2.0),
    ) -> None:
        if not 0.0 <= duplicate_probability <= 1.0:
            raise ValueError("duplicate_probability must be in [0, 1]")
        _check_range("duplicate_lag_s", duplicate_lag_s)
        self._sim = sim
        self._network = network
        self._registry = registry
        self._server = server
        self._fleet = fleet
        self._loss_model = loss_model
        # No extra delay until a plan's ``set_delay`` sets both.
        self._delay_probability = 0.0
        self._delay_range_s = (0.0, 0.0)
        self._duplicate_probability = duplicate_probability
        self._duplicate_lag_s = duplicate_lag_s
        self._loss_rng = sim.rng.stream("faults:loss")
        self._delay_rng = sim.rng.stream("faults:delay")
        self._dup_rng = sim.rng.stream("faults:dup")
        self._clients: Dict[str, object] = {}
        self._dead_devices: Set[str] = set()
        self.stats = FaultStats()
        self.log = SimLogger(sim, "repro.faults")
        network.install_fault_hook(self)
        if plan is not None:
            # Temporal sanity is enforced at attach time: a strict plan
            # with a heal preceding its outage raises here, before any
            # event is scheduled (strict=False plans warn instead).
            plan.validate()
            for event in plan.events:
                at = max(event.at, sim.now)
                sim.schedule_at(at, self._execute, event)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def adopt_client(self, client) -> None:
        """Track a client so churn actions can reach it by device id."""
        self._clients[client.device.device_id] = client

    @property
    def loss_model(self) -> Optional[GilbertElliott]:
        return self._loss_model

    def is_dead(self, device_id: str) -> bool:
        return device_id in self._dead_devices

    # ------------------------------------------------------------------
    # Network hook (called per message, after the radio transmitted)
    # ------------------------------------------------------------------

    def on_uplink(self, device, message: Message) -> Optional[FaultDecision]:
        return self._decide(device, message, direction="up")

    def on_downlink(self, device, message: Message) -> Optional[FaultDecision]:
        return self._decide(device, message, direction="down")

    def _decide(
        self, device, message: Message, *, direction: str
    ) -> Optional[FaultDecision]:
        self.stats.messages_seen += 1
        device_id = getattr(device, "device_id", None)
        if device_id in self._dead_devices:
            self.stats.dead_device_drops += 1
            return self._drop(message, device_id, direction, "device_dead")
        if (
            self._registry is not None
            and device_id is not None
            and device_id in self._registry
            and not self._registry.serving_tower_operational(device_id)
        ):
            self.stats.outage_drops += 1
            return self._drop(message, device_id, direction, "tower_outage")
        if self._loss_model is not None and self._loss_model.step(self._loss_rng):
            self.stats.losses_injected += 1
            return self._drop(message, device_id, direction, "burst_loss")
        extra_delay = 0.0
        copy_delays: Tuple[float, ...] = ()
        if (
            self._delay_probability > 0.0
            and self._delay_rng.random() < self._delay_probability
        ):
            lo, hi = self._delay_range_s
            extra_delay = lo + self._delay_rng.random() * (hi - lo)
            self.stats.delays_injected += 1
            self.log.event(
                "fault.delay",
                message_kind=message.kind.value,
                device_id=device_id,
                direction=direction,
                extra_delay_s=round(extra_delay, 6),
            )
        if (
            self._duplicate_probability > 0.0
            and self._dup_rng.random() < self._duplicate_probability
        ):
            lo, hi = self._duplicate_lag_s
            copy_delays = (lo + self._dup_rng.random() * (hi - lo),)
            self.stats.duplicates_injected += 1
            self.log.event(
                "fault.duplicate",
                message_kind=message.kind.value,
                device_id=device_id,
                direction=direction,
                copy_lag_s=round(copy_delays[0], 6),
            )
        if extra_delay == 0.0 and not copy_delays:
            return None
        return FaultDecision(extra_delay_s=extra_delay, copy_delays=copy_delays)

    def _drop(
        self, message: Message, device_id, direction: str, reason: str
    ) -> FaultDecision:
        self.log.event(
            "fault.drop",
            message_kind=message.kind.value,
            device_id=device_id,
            direction=direction,
            reason=reason,
        )
        return FaultDecision(drop=True, reason=reason)

    # ------------------------------------------------------------------
    # Plan execution
    # ------------------------------------------------------------------

    def _execute(self, event: FaultEvent) -> None:
        handler = getattr(self, f"_do_{event.action}")
        handler(**event.kwargs)
        self.stats.events_executed += 1

    def _do_tower_down(self, tower_id: str) -> None:
        if self._registry is None:
            raise RuntimeError("tower faults need a TowerRegistry")
        self._registry.fail_tower(tower_id)
        self.stats.tower_failures += 1
        self.log.event("fault.tower_down", tower_id=tower_id)

    def _do_tower_up(self, tower_id: str) -> None:
        if self._registry is None:
            raise RuntimeError("tower faults need a TowerRegistry")
        self._registry.restore_tower(tower_id)
        self.stats.tower_restores += 1
        self.log.event("fault.tower_up", tower_id=tower_id)

    def _do_partition(self) -> None:
        self._network.set_sense_aid_path_available(False)
        self.stats.partitions += 1
        self.log.event("fault.partition")

    def _do_heal(self) -> None:
        self._network.set_sense_aid_path_available(True)
        self.stats.heals += 1
        self.log.event("fault.heal")

    def _do_kill_device(self, device_id: str) -> None:
        self._dead_devices.add(device_id)
        client = self._clients.get(device_id)
        if client is not None:
            client.power_off()
        self.stats.devices_killed += 1
        self.log.event("fault.kill_device", device_id=device_id)

    def _do_deregister_device(self, device_id: str) -> None:
        if self._server is None:
            raise RuntimeError("deregister faults need a server reference")
        if device_id in self._server.devices:
            self._server.deregister_device(device_id)
            self.stats.devices_deregistered += 1
            self.log.event("fault.deregister_device", device_id=device_id)

    def _do_set_loss_model(self, model: GilbertElliott) -> None:
        self._loss_model = model
        self.log.event(
            "fault.set_loss_model",
            loss_bad=model.loss_bad,
            p_good_to_bad=model.p_good_to_bad,
            p_bad_to_good=model.p_bad_to_good,
        )

    def _do_clear_loss_model(self) -> None:
        self._loss_model = None
        self.log.event("fault.clear_loss_model")

    def _do_set_delay(
        self, probability: float, delay_range_s: Tuple[float, float]
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        _check_range("delay_range_s", delay_range_s)
        self._delay_probability = probability
        self._delay_range_s = delay_range_s
        self.log.event(
            "fault.set_delay", probability=probability, delay_range_s=delay_range_s
        )

    def _do_set_duplication(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self._duplicate_probability = probability
        self.log.event("fault.set_duplication", probability=probability)

    def _do_server_crash(self) -> None:
        if self._server is None:
            raise RuntimeError("server faults need a server reference")
        self._server.crash()
        self.stats.server_crashes += 1
        self.log.event("fault.server_crash")

    def _do_server_restart(self) -> None:
        if self._server is None:
            raise RuntimeError("server faults need a server reference")
        self._server.restart()
        self.stats.server_restarts += 1
        self.log.event("fault.server_restart", epoch=self._server.epoch)

    def _require_fleet(self):
        if self._fleet is None:
            raise RuntimeError(
                "shard faults need a fleet reference (ShardedSenseAid)"
            )
        return self._fleet

    def _do_shard_crash(self, shard_id: str) -> None:
        self._require_fleet().crash_shard(shard_id)
        self.stats.shard_crashes += 1
        self.log.event("fault.shard_crash", shard_id=shard_id)

    def _do_shard_partition(self, shard_id: str) -> None:
        self._require_fleet().partition_shard(shard_id)
        self.stats.shard_partitions += 1
        self.log.event("fault.shard_partition", shard_id=shard_id)

    def _do_shard_heal(self, shard_id: str) -> None:
        self._require_fleet().heal_shard(shard_id)
        self.stats.shard_heals += 1
        self.log.event("fault.shard_heal", shard_id=shard_id)

    def _do_overload_burst(
        self, rate_per_s: float, duration_s: float, request_class: str = "query"
    ) -> None:
        from repro.core.overload import RequestClass

        if self._server is None:
            raise RuntimeError("overload faults need a server reference")
        if self._server.admission is None:
            raise RuntimeError(
                "overload_burst needs a server with an OverloadPolicy configured"
            )
        cls = RequestClass(request_class)
        count = int(rate_per_s * duration_s)
        spacing = 1.0 / rate_per_s
        self.stats.overload_bursts += 1
        self.log.event(
            "fault.overload_burst",
            rate_per_s=rate_per_s,
            duration_s=duration_s,
            request_class=cls.value,
            requests=count,
        )
        for i in range(count):
            self._sim.schedule(i * spacing, self._burst_tick, cls)

    def _burst_tick(self, request_class) -> None:
        self.stats.burst_requests += 1
        self._server.admission.admit(request_class)


def _check_range(name: str, bounds: Tuple[float, float]) -> None:
    lo, hi = bounds
    if not 0 <= lo <= hi:
        raise ValueError(f"{name} must satisfy 0 <= lo <= hi, got {bounds!r}")
