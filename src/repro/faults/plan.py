"""The fault schedule: *what* breaks and *when*.

A :class:`FaultPlan` is a declarative list of timed injections the
:class:`~repro.faults.injector.FaultInjector` executes against a live
simulation.  Building the plan is side-effect-free, so the same plan
object can drive many runs (the chaos benchmark's determinism check
re-runs one plan and demands bit-identical logs).

Plans are also *data*: :meth:`FaultPlan.to_json_obj` serializes a plan
to a schema-tagged JSON document and :meth:`FaultPlan.from_json_obj`
rebuilds it (validating as it goes), which is what the soak harness's
shrunken reproducers are made of.  ``add()`` validates every injection
eagerly — unknown actions, unknown or missing kwargs, and out-of-range
values fail at build time with a clear message instead of blowing up
later inside ``FaultInjector._execute`` — and :meth:`FaultPlan.validate`
checks *temporal* sanity: a ``heal``/``tower_up``/``shard_heal`` with
no matching earlier outage is a silent no-op at run time, so a strict
plan (the default) refuses it and a ``strict=False`` plan warns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.models import GilbertElliott

#: Schema tag stamped on serialized plans (bump on layout changes).
PLAN_SCHEMA = "fault-plan/v1"


class FaultPlanError(ValueError):
    """A fault plan failed validation (bad action, kwargs, or timing)."""


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled injection."""

    at: float
    action: str
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.at >= 0:
            raise ValueError(f"fault time must be non-negative, got {self.at!r}")


#: Per-action kwargs schema: name -> (kind, required).  Kinds drive
#: both eager validation in :meth:`FaultPlan.add` and the JSON
#: encode/decode in :meth:`FaultPlan.to_json_obj` / ``from_json_obj``.
ACTION_SCHEMAS: Dict[str, Dict[str, Tuple[str, bool]]] = {
    "tower_down": {"tower_id": ("str", True)},
    "tower_up": {"tower_id": ("str", True)},
    "partition": {},
    "heal": {},
    "kill_device": {"device_id": ("str", True)},
    "deregister_device": {"device_id": ("str", True)},
    "set_loss_model": {"model": ("loss_model", True)},
    "clear_loss_model": {},
    "set_delay": {
        "probability": ("probability", True),
        "delay_range_s": ("range", True),
    },
    "set_duplication": {"probability": ("probability", True)},
    "server_crash": {},
    "server_restart": {},
    "overload_burst": {
        "rate_per_s": ("positive", True),
        "duration_s": ("positive", True),
        "request_class": ("str", False),
    },
    "shard_crash": {"shard_id": ("str", True)},
    "shard_partition": {"shard_id": ("str", True)},
    "shard_heal": {"shard_id": ("str", True)},
}

#: Heal-type actions and the outage action each one undoes.  Keyed
#: kinds match on the kwarg naming the resource (``None`` = global).
_HEAL_PAIRS: Dict[str, Tuple[str, Optional[str]]] = {
    "heal": ("partition", None),
    "tower_up": ("tower_down", "tower_id"),
    "shard_heal": ("shard_partition", "shard_id"),
}


def _check_kind(action: str, name: str, kind: str, value: Any) -> Any:
    """Validate (and normalize) one kwarg value against its kind."""
    label = f"{action} kwarg {name!r}"
    if kind == "str":
        if not isinstance(value, str):
            raise FaultPlanError(f"{label} must be a string, got {value!r}")
        return value
    if kind in ("number", "positive", "probability"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FaultPlanError(f"{label} must be a number, got {value!r}")
        if kind == "positive" and not value > 0:
            raise FaultPlanError(f"{label} must be positive, got {value!r}")
        if kind == "probability" and not 0.0 <= value <= 1.0:
            raise FaultPlanError(f"{label} must be in [0, 1], got {value!r}")
        return value
    if kind == "range":
        if (
            not isinstance(value, (tuple, list))
            or len(value) != 2
            or any(
                isinstance(v, bool) or not isinstance(v, (int, float))
                for v in value
            )
        ):
            raise FaultPlanError(
                f"{label} must be a (lo, hi) pair of numbers, got {value!r}"
            )
        lo, hi = value
        if not 0 <= lo <= hi:
            raise FaultPlanError(
                f"{label} must satisfy 0 <= lo <= hi, got {value!r}"
            )
        return (float(lo), float(hi))
    if kind == "loss_model":
        if not isinstance(value, GilbertElliott):
            raise FaultPlanError(
                f"{label} must be a GilbertElliott model, got {value!r}"
            )
        return value
    raise AssertionError(f"unknown schema kind {kind!r}")  # pragma: no cover


class FaultPlan:
    """Ordered schedule of fault injections (builder-style API).

    ``strict`` governs temporal-sanity enforcement: a strict plan (the
    default) raises :class:`FaultPlanError` from :meth:`validate` when
    a heal-type event precedes any matching outage; ``strict=False``
    downgrades that to a warning (useful for shrunken reproducers whose
    minimization may orphan a heal).
    """

    #: Actions the injector knows how to execute.
    ACTIONS = tuple(ACTION_SCHEMAS)

    def __init__(self, *, strict: bool = True) -> None:
        self._events: List[FaultEvent] = []
        self.strict = strict

    def __len__(self) -> int:
        return len(self._events)

    @property
    def events(self) -> Tuple[FaultEvent, ...]:
        """Events in firing order (stable for equal times)."""
        return tuple(sorted(self._events, key=lambda e: e.at))

    def add(self, at: float, action: str, **kwargs: Any) -> "FaultPlan":
        """Append one injection; unknown actions and malformed kwargs
        are rejected eagerly with the offending name spelled out."""
        schema = ACTION_SCHEMAS.get(action)
        if schema is None:
            raise FaultPlanError(
                f"unknown fault action {action!r}; known: {self.ACTIONS}"
            )
        unknown = sorted(set(kwargs) - set(schema))
        if unknown:
            raise FaultPlanError(
                f"{action} got unknown kwargs {unknown}; "
                f"allowed: {sorted(schema)}"
            )
        missing = sorted(
            name
            for name, (_, required) in schema.items()
            if required and name not in kwargs
        )
        if missing:
            raise FaultPlanError(f"{action} is missing required kwargs {missing}")
        normalized = {
            name: _check_kind(action, name, schema[name][0], value)
            for name, value in kwargs.items()
        }
        self._events.append(FaultEvent(at=at, action=action, kwargs=normalized))
        return self

    # ------------------------------------------------------------------
    # Temporal sanity
    # ------------------------------------------------------------------

    def validate(self) -> List[str]:
        """Check heal-before-outage sanity over the firing order.

        Walks the events as they will fire, tracking active outages; a
        ``heal``/``tower_up``/``shard_heal`` with no matching active
        outage would silently no-op at run time, so it is reported —
        raised as :class:`FaultPlanError` on a strict plan, warned on a
        ``strict=False`` one.  Returns the list of problems (empty ==
        sane).
        """
        problems: List[str] = []
        active: Dict[Tuple[str, Optional[str]], int] = {}
        for event in self.events:
            pair = _HEAL_PAIRS.get(event.action)
            if pair is not None:
                down_action, key_name = pair
                key = (
                    down_action,
                    event.kwargs.get(key_name) if key_name else None,
                )
                if active.get(key, 0) <= 0:
                    target = f" for {key[1]!r}" if key[1] is not None else ""
                    problems.append(
                        f"{event.action} at t={event.at} precedes any "
                        f"matching {down_action}{target} and would no-op"
                    )
                else:
                    active[key] -= 1
            elif event.action in ("partition", "tower_down", "shard_partition"):
                resource = event.kwargs.get("tower_id") or event.kwargs.get(
                    "shard_id"
                )
                key = (event.action, resource)
                active[key] = active.get(key, 0) + 1
        if problems:
            if self.strict:
                raise FaultPlanError(
                    "temporally invalid fault plan:\n  " + "\n  ".join(problems)
                )
            for problem in problems:
                warnings.warn(f"fault plan: {problem}", stacklevel=2)
        return problems

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_json_obj(self) -> dict:
        """The plan as a JSON-ready dict (schema-tagged)."""
        events = []
        for event in self.events:
            kwargs = {}
            for name, value in event.kwargs.items():
                kind = ACTION_SCHEMAS[event.action][name][0]
                if kind == "loss_model":
                    kwargs[name] = {
                        "p_good_to_bad": value.p_good_to_bad,
                        "p_bad_to_good": value.p_bad_to_good,
                        "loss_good": value.loss_good,
                        "loss_bad": value.loss_bad,
                        "bad": value.bad,
                    }
                elif kind == "range":
                    kwargs[name] = list(value)
                else:
                    kwargs[name] = value
            events.append({"at": event.at, "action": event.action, "kwargs": kwargs})
        return {"schema": PLAN_SCHEMA, "strict": self.strict, "events": events}

    @classmethod
    def from_json_obj(
        cls, obj: dict, *, strict: Optional[bool] = None
    ) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_json_obj` output, re-validating
        every event through :meth:`add`."""
        if not isinstance(obj, dict):
            raise FaultPlanError(f"fault plan document must be an object: {obj!r}")
        if obj.get("schema") != PLAN_SCHEMA:
            raise FaultPlanError(
                f"unsupported fault plan schema {obj.get('schema')!r}; "
                f"expected {PLAN_SCHEMA!r}"
            )
        events = obj.get("events")
        if not isinstance(events, list):
            raise FaultPlanError("fault plan 'events' must be a list")
        plan = cls(
            strict=bool(obj.get("strict", True)) if strict is None else strict
        )
        for i, entry in enumerate(events):
            if not isinstance(entry, dict) or not {"at", "action"} <= set(entry):
                raise FaultPlanError(
                    f"event #{i} must be an object with 'at' and 'action': "
                    f"{entry!r}"
                )
            extra = set(entry) - {"at", "action", "kwargs"}
            if extra:
                raise FaultPlanError(
                    f"event #{i} has unknown fields {sorted(extra)}"
                )
            at, action = entry["at"], entry["action"]
            if isinstance(at, bool) or not isinstance(at, (int, float)):
                raise FaultPlanError(f"event #{i} time must be a number: {at!r}")
            kwargs = entry.get("kwargs", {})
            if not isinstance(kwargs, dict):
                raise FaultPlanError(f"event #{i} kwargs must be an object")
            schema = ACTION_SCHEMAS.get(action)
            if schema is None:
                raise FaultPlanError(
                    f"event #{i}: unknown fault action {action!r}"
                )
            decoded = {}
            for name, value in kwargs.items():
                kind = schema.get(name, ("", True))[0]
                if kind == "loss_model":
                    if not isinstance(value, dict):
                        raise FaultPlanError(
                            f"event #{i} kwarg {name!r} must be an object"
                        )
                    decoded[name] = GilbertElliott(**value)
                elif kind == "range" and isinstance(value, list):
                    decoded[name] = tuple(value)
                else:
                    decoded[name] = value
            plan.add(float(at), action, **decoded)
        return plan

    # ------------------------------------------------------------------
    # Convenience builders (all chainable)
    # ------------------------------------------------------------------

    def tower_down(
        self,
        at: float,
        tower_id: str,
        *,
        restore_after: Optional[float] = None,
    ) -> "FaultPlan":
        """Fail a tower; optionally schedule its restoration too."""
        self.add(at, "tower_down", tower_id=tower_id)
        if restore_after is not None:
            if restore_after <= 0:
                raise ValueError("restore_after must be positive")
            self.add(at + restore_after, "tower_up", tower_id=tower_id)
        return self

    def tower_up(self, at: float, tower_id: str) -> "FaultPlan":
        return self.add(at, "tower_up", tower_id=tower_id)

    def partition(
        self, at: float, *, heal_after: Optional[float] = None
    ) -> "FaultPlan":
        """Cut the core path between the RAN and the Sense-Aid edge.

        Regular traffic fail-safes to path 1 (the paper's §3 design);
        crowdsensing devices lose their control plane until the heal,
        and their uploads ride out the cut on the retry schedule.
        """
        self.add(at, "partition")
        if heal_after is not None:
            if heal_after <= 0:
                raise ValueError("heal_after must be positive")
            self.add(at + heal_after, "heal")
        return self

    def heal(self, at: float) -> "FaultPlan":
        return self.add(at, "heal")

    def kill_device(self, at: float, device_id: str) -> "FaultPlan":
        """Abrupt device death (battery exhaustion, power-off)."""
        return self.add(at, "kill_device", device_id=device_id)

    def deregister_device(self, at: float, device_id: str) -> "FaultPlan":
        """Server-side record loss: the device vanishes unannounced."""
        return self.add(at, "deregister_device", device_id=device_id)

    def set_loss_model(self, at: float, model) -> "FaultPlan":
        """Install (or replace) the bursty-loss model from this time on."""
        return self.add(at, "set_loss_model", model=model)

    def clear_loss_model(self, at: float) -> "FaultPlan":
        return self.add(at, "clear_loss_model")

    def set_delay(
        self,
        at: float,
        *,
        probability: float,
        delay_range_s: Tuple[float, float],
    ) -> "FaultPlan":
        """Inject extra per-message core delay (reordering's raw material)."""
        return self.add(
            at, "set_delay", probability=probability, delay_range_s=delay_range_s
        )

    def set_duplication(self, at: float, *, probability: float) -> "FaultPlan":
        """Duplicate messages in the core with the given probability."""
        return self.add(at, "set_duplication", probability=probability)

    def server_crash(self, at: float) -> "FaultPlan":
        """Kill the Sense-Aid server process; volatile state is lost
        until a :meth:`server_restart`."""
        return self.add(at, "server_crash")

    def server_restart(self, at: float) -> "FaultPlan":
        """Cold-restart the server (crashing it first if still up)."""
        return self.add(at, "server_restart")

    def shard_crash(self, at: float, shard_id: str) -> "FaultPlan":
        """Hard-kill one shard's incumbent in a sharded fleet.

        The fleet's failure detector notices the missing heartbeats
        and (with auto-failover on) hands the ring range to a standby.
        """
        return self.add(at, "shard_crash", shard_id=shard_id)

    def shard_partition(
        self,
        at: float,
        shard_id: str,
        *,
        heal_after: Optional[float] = None,
    ) -> "FaultPlan":
        """Cut one shard's peer links (split brain: it keeps serving
        devices while its peers declare it dead and fail over)."""
        self.add(at, "shard_partition", shard_id=shard_id)
        if heal_after is not None:
            if heal_after <= 0:
                raise ValueError("heal_after must be positive")
            self.add(at + heal_after, "shard_heal", shard_id=shard_id)
        return self

    def shard_heal(self, at: float, shard_id: str) -> "FaultPlan":
        """Restore a partitioned shard's peer links."""
        return self.add(at, "shard_heal", shard_id=shard_id)

    def overload_burst(
        self,
        at: float,
        *,
        rate_per_s: float,
        duration_s: float,
        request_class: str = "query",
    ) -> "FaultPlan":
        """Flood the server's admission controller with synthetic
        control-plane traffic of one class, at a fixed rate, for a
        fixed window — deterministic by construction (evenly spaced
        arrivals, no RNG)."""
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        return self.add(
            at,
            "overload_burst",
            rate_per_s=rate_per_s,
            duration_s=duration_s,
            request_class=request_class,
        )
