"""Message types exchanged between devices, the Sense-Aid server, and
crowdsensing application servers.

Sizes matter only insofar as they determine radio transfer time; the
paper reports ~600-byte crowdsensing uploads in its user study, so that
is the default payload size for sensor data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional

#: Payload size of one crowdsensing upload in the paper's user study.
SENSOR_UPLOAD_BYTES = 600

#: A control ping (battery level, IMEI hash, budget) is tiny.
CONTROL_PING_BYTES = 96

#: A task assignment pushed down to a device.
ASSIGNMENT_BYTES = 128


class TrafficCategory(Enum):
    """Energy-attribution category for a radio transfer."""

    BACKGROUND = "background"
    CROWDSENSING = "crowdsensing"
    CONTROL = "control"


class MessageKind(Enum):
    """Application-level meaning of a message."""

    REGISTER = "register"
    DEREGISTER = "deregister"
    PREFERENCES = "preferences"
    CONTROL_PING = "control_ping"
    TASK_ASSIGNMENT = "task_assignment"
    SENSOR_DATA = "sensor_data"
    TASK_SUBMISSION = "task_submission"
    TASK_UPDATE = "task_update"
    TASK_DELETE = "task_delete"
    APP_TRAFFIC = "app_traffic"


_message_ids = itertools.count(1)


def reset_message_ids() -> None:
    """Rewind the global message-id counter to 1.

    Message ids come from a process-global counter; replay harnesses
    comparing runs bit-for-bit should reset it before each run (see
    also :func:`repro.core.tasks.reset_task_ids`).
    """
    global _message_ids
    _message_ids = itertools.count(1)


@dataclass
class Message:
    """One application message travelling over the simulated network."""

    kind: MessageKind
    sender: str
    size_bytes: int
    category: TrafficCategory = TrafficCategory.BACKGROUND
    payload: Dict[str, Any] = field(default_factory=dict)
    created_at: Optional[float] = None
    message_id: int = field(default_factory=lambda: next(_message_ids))

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError(
                f"size_bytes must be non-negative, got {self.size_bytes!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Message #{self.message_id} {self.kind.value} from={self.sender} "
            f"{self.size_bytes}B {self.category.value}>"
        )


def sensor_data_message(sender: str, payload: Dict[str, Any]) -> Message:
    """Build a crowdsensing data upload (600 B, crowdsensing category)."""
    return Message(
        kind=MessageKind.SENSOR_DATA,
        sender=sender,
        size_bytes=SENSOR_UPLOAD_BYTES,
        category=TrafficCategory.CROWDSENSING,
        payload=payload,
    )


def control_ping_message(sender: str, payload: Dict[str, Any]) -> Message:
    """Build a device→server state ping (control category)."""
    return Message(
        kind=MessageKind.CONTROL_PING,
        sender=sender,
        size_bytes=CONTROL_PING_BYTES,
        category=TrafficCategory.CONTROL,
        payload=payload,
    )
