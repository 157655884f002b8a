"""The cross-layer invariant suite the soak harness runs per episode.

Each check inspects a *settled* world — the harness has healed every
injected fault, let the fleet converge, and run anti-entropy repair —
and returns :class:`InvariantViolation` records.  The catalog:

``ACKED_UPLOAD_LOST``
    Some client holds an *accepted* ack for an upload id its current
    home incumbent does not have burned.  The acknowledged reading is
    double-countable on retransmit — acknowledged-upload loss.
``DOUBLE_COUNTED_READING``
    A server's accepted-reading counter exceeds its burned-key count
    (each fresh accept must burn exactly one key).
``DOUBLE_ACKED``
    A client saw two *fresh* ``accepted`` verdicts for one upload id
    (the second must have been ``duplicate``).
``EPOCH_REGRESSED``
    An epoch transition (failover or in-place recovery) failed to
    strictly advance, a shard's epoch history is non-monotone, or a
    serving instance runs below its shard's last recorded epoch.
``DIVERGED_AFTER_HEAL``
    Anti-entropy repair finished with a non-empty diff: the fleet did
    not converge after every fault healed.
``WAL_RECOVERY``
    ``check_recovery_invariants`` flagged a divergence between a
    shard's pre-restart durable state and its recovered state (the
    wrapped :class:`~repro.core.wal.RecoveryViolation` codes ride
    along in the detail).
``REPLAY_DIVERGED``
    Emitted by the harness itself: a same-seed re-run of the episode
    produced a different structured-log signature or different
    verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.sharding import ShardedSenseAid
from repro.core.wal import check_recovery_invariants, durable_state


@dataclass(frozen=True)
class InvariantViolation:
    """One invariant breach: a stable code, prose, and evidence."""

    code: str
    message: str
    detail: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "code": self.code,
            "message": self.message,
            "detail": dict(self.detail),
        }


def check_acked_upload_loss(fleet: ShardedSenseAid) -> List[InvariantViolation]:
    lost = fleet.acked_upload_audit()
    if not lost:
        return []
    return [
        InvariantViolation(
            "ACKED_UPLOAD_LOST",
            f"{sum(len(v) for v in lost.values())} acknowledged upload(s) "
            f"unknown to their home shard after repair",
            {"by_device": {k: list(v) for k, v in lost.items()}},
        )
    ]


def check_idempotency(fleet: ShardedSenseAid) -> List[InvariantViolation]:
    violations: List[InvariantViolation] = []
    for shard_id in fleet.shard_ids():
        audit = fleet.instance(shard_id).idempotency_audit()
        if audit["overcount"] > 0:
            violations.append(
                InvariantViolation(
                    "DOUBLE_COUNTED_READING",
                    f"shard {shard_id} accepted {audit['accepted']} readings "
                    f"but burned only {audit['burned_keys']} idempotency keys",
                    {"shard": shard_id, **audit},
                )
            )
    return violations


def check_double_acks(clients: Dict[str, object]) -> List[InvariantViolation]:
    violations: List[InvariantViolation] = []
    for device_id in sorted(clients):
        doubled = clients[device_id].double_accepted_uploads()
        if doubled:
            violations.append(
                InvariantViolation(
                    "DOUBLE_ACKED",
                    f"device {device_id} received a fresh 'accepted' verdict "
                    f"more than once for {sorted(doubled)}",
                    {"device": device_id, "counts": dict(doubled)},
                )
            )
    return violations


def check_epoch_monotonicity(fleet: ShardedSenseAid) -> List[InvariantViolation]:
    violations: List[InvariantViolation] = []
    last_epoch: Dict[str, int] = {}
    for shard_id, old_epoch, new_epoch in fleet.epoch_log:
        if new_epoch <= old_epoch:
            violations.append(
                InvariantViolation(
                    "EPOCH_REGRESSED",
                    f"shard {shard_id} transitioned {old_epoch} -> "
                    f"{new_epoch} without advancing",
                    {"shard": shard_id, "old": old_epoch, "new": new_epoch},
                )
            )
        if old_epoch < last_epoch.get(shard_id, 0):
            violations.append(
                InvariantViolation(
                    "EPOCH_REGRESSED",
                    f"shard {shard_id} epoch history is non-monotone: "
                    f"{old_epoch} after {last_epoch[shard_id]}",
                    {"shard": shard_id},
                )
            )
        last_epoch[shard_id] = new_epoch
    for shard_id in fleet.shard_ids():
        current = fleet.instance(shard_id).epoch
        floor = last_epoch.get(shard_id, 0)
        if current < floor:
            violations.append(
                InvariantViolation(
                    "EPOCH_REGRESSED",
                    f"shard {shard_id} serves at epoch {current}, below its "
                    f"last recorded transition to {floor}",
                    {"shard": shard_id, "current": current, "floor": floor},
                )
            )
    return violations


def check_convergence(repair_report: dict) -> List[InvariantViolation]:
    if repair_report.get("clean"):
        return []
    return [
        InvariantViolation(
            "DIVERGED_AFTER_HEAL",
            "anti-entropy diff non-empty after repair",
            {"diff_after": repair_report.get("diff_after", {})},
        )
    ]


def check_wal_recovery(fleet: ShardedSenseAid) -> List[InvariantViolation]:
    """Restart every live WAL-backed incumbent and diff durable state.

    Destructive to volatile state (each probed shard comes back one
    epoch ahead), so the harness runs it last, after the episode's
    structured-log signature is captured.
    """
    violations: List[InvariantViolation] = []
    for shard_id in fleet.shard_ids():
        server = fleet.instance(shard_id)
        if server.crashed or server._wal is None:
            continue
        pre = durable_state(server)
        server.restart()
        post = durable_state(server)
        for record in check_recovery_invariants(pre, post):
            violations.append(
                InvariantViolation(
                    "WAL_RECOVERY",
                    f"shard {shard_id}: {record}",
                    {
                        "shard": shard_id,
                        "wal_code": getattr(record, "code", None),
                        "keys": list(getattr(record, "keys", ())),
                    },
                )
            )
    return violations


def run_invariant_suite(
    fleet: ShardedSenseAid,
    clients: Dict[str, object],
    repair_report: dict,
) -> List[InvariantViolation]:
    """Every post-episode check except replay (the harness owns that)
    and WAL recovery (destructive — the harness runs it after the
    signature capture)."""
    violations: List[InvariantViolation] = []
    violations.extend(check_acked_upload_loss(fleet))
    violations.extend(check_idempotency(fleet))
    violations.extend(check_double_acks(clients))
    violations.extend(check_epoch_monotonicity(fleet))
    violations.extend(check_convergence(repair_report))
    return violations


__all__ = [
    "InvariantViolation",
    "check_acked_upload_loss",
    "check_convergence",
    "check_double_acks",
    "check_epoch_monotonicity",
    "check_idempotency",
    "check_wal_recovery",
    "run_invariant_suite",
]
