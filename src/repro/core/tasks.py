"""Crowdsensing tasks and their expansion into sensing requests.

A :class:`TaskSpec` carries every parameter of the paper's Table 1:
sensor type, sampling period, sampling duration *or* absolute start and
end times, the circular target area (centre + radius), the minimum
spatial density, and an optional device-type restriction.

Per the paper's terminology, one *task* generates multiple *requests*:
"a task lasts for 60 minutes and requires sampling period of 10
minutes will generate 6 requests".  Each request has a deadline — the
next sampling instant — which is what orders the run/wait queues.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.devices.sensors import SensorType
from repro.environment.geometry import Point

_task_ids = itertools.count(1)

#: Deadline, in seconds after issue, of a one-shot task's request.
ONE_SHOT_DEADLINE_S = 120.0


def reset_task_ids(start: int = 1) -> None:
    """Rewind the global task-id counter.

    Task ids are allocated from a process-global counter, so two
    otherwise-identical simulations run back to back in one process get
    different ``task_id``s (and hence different request ids).  Replay
    harnesses that compare structured event logs bit-for-bit must call
    this before each run.
    """
    global _task_ids
    _task_ids = itertools.count(start)


@dataclass(frozen=True)
class TaskSpec:
    """One crowdsensing task as submitted by an application server."""

    sensor_type: SensorType
    center: Point
    area_radius_m: float
    spatial_density: int
    sampling_period_s: Optional[float] = None
    sampling_duration_s: Optional[float] = None
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    device_type: Optional[str] = None
    origin: str = "cas"
    task_id: int = field(default_factory=lambda: next(_task_ids))

    def __post_init__(self) -> None:
        if self.area_radius_m <= 0:
            raise ValueError(
                f"area_radius_m must be positive, got {self.area_radius_m!r}"
            )
        if self.spatial_density <= 0:
            raise ValueError(
                f"spatial_density must be positive, got {self.spatial_density!r}"
            )
        if self.sampling_period_s is not None and self.sampling_period_s <= 0:
            raise ValueError("sampling_period_s must be positive when given")
        duration_given = self.sampling_duration_s is not None
        window_given = self.start_time is not None and self.end_time is not None
        if duration_given and window_given:
            raise ValueError(
                "specify either sampling_duration_s or start/end times, not both"
            )
        if duration_given and self.sampling_duration_s <= 0:
            raise ValueError("sampling_duration_s must be positive when given")
        if window_given and self.end_time <= self.start_time:
            raise ValueError("end_time must be after start_time")
        if (self.start_time is None) != (self.end_time is None):
            raise ValueError("start_time and end_time must be given together")
        if self.sampling_period_s is not None and not (duration_given or window_given):
            raise ValueError(
                "a periodic task needs a sampling duration or a start/end window"
            )

    @property
    def one_shot(self) -> bool:
        """True for tasks with no period — a single supplemental sample."""
        return self.sampling_period_s is None

    def duration_s(self) -> Optional[float]:
        """Total sensing duration, however it was specified."""
        if self.sampling_duration_s is not None:
            return self.sampling_duration_s
        if self.start_time is not None and self.end_time is not None:
            return self.end_time - self.start_time
        return None

    def effective_start(self, now: float) -> float:
        """Table 1: when a duration is given, start time is *now*."""
        if self.start_time is not None:
            return self.start_time
        return now

    def request_count(self) -> int:
        """How many requests this task expands to."""
        if self.one_shot:
            return 1
        duration = self.duration_s()
        assert duration is not None  # enforced in __post_init__
        return max(1, int(duration // self.sampling_period_s))

    def expand_requests(
        self, now: float, *, resume: bool = False
    ) -> List["SensingRequest"]:
        """Generate this task's requests, deadlines included.

        Request *i* of a periodic task is issued at
        ``start + i·period`` and must be satisfied by the next sampling
        instant.  A one-shot task yields a single request due
        :data:`ONE_SHOT_DEADLINE_S` after issue.

        With ``resume=True`` (crash recovery), the request grid stays
        anchored at the task's *original* effective start even if that
        is in the past, and only requests still issuable (``issue_time
        >= now``) are returned — so a restored task keeps its original
        sequence numbering and request ids instead of renumbering the
        remainder from zero.
        """
        start = self.effective_start(now)
        if start < now and not resume:
            start = now
        if self.one_shot:
            if resume and start < now:
                return []
            return [
                SensingRequest(
                    task=self,
                    sequence=0,
                    issue_time=start,
                    deadline=start + ONE_SHOT_DEADLINE_S,
                )
            ]
        period = self.sampling_period_s
        requests = [
            SensingRequest(
                task=self,
                sequence=i,
                issue_time=start + i * period,
                deadline=start + (i + 1) * period,
            )
            for i in range(self.request_count())
        ]
        if resume:
            requests = [r for r in requests if r.issue_time >= now]
        return requests

    def resumed(self, start: float, end: float, now: float) -> Optional["TaskSpec"]:
        """The spec this task resumes as after a restart at ``now``.

        ``start`` and ``end`` are the task's original effective start
        and absolute end.  Expired and one-shot tasks stay down
        (``None``).  A periodic task comes back with its own
        ``task_id`` and an explicit window anchored at ``start``, so
        ``expand_requests(now, resume=True)`` regenerates exactly the
        not-yet-issued requests with their original sequence numbers,
        issue times and deadlines.
        """
        if self.one_shot or end <= now:
            return None
        return replace(self, sampling_duration_s=None, start_time=start, end_time=end)

    def with_updates(self, **changes) -> "TaskSpec":
        """A copy with updated parameters (same task_id) —
        the ``update_task_param()`` API."""
        changes.setdefault("task_id", self.task_id)
        return replace(self, **changes)


@dataclass(frozen=True)
class SensingRequest:
    """One sampling instant of a task; the schedulable unit."""

    task: TaskSpec
    sequence: int
    issue_time: float
    deadline: float

    def __post_init__(self) -> None:
        if self.deadline <= self.issue_time:
            raise ValueError("deadline must be after issue time")

    @property
    def request_id(self) -> str:
        return f"task{self.task.task_id}-r{self.sequence}"

    @property
    def devices_needed(self) -> int:
        return self.task.spatial_density

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SensingRequest {self.request_id} issue={self.issue_time:.0f} "
            f"deadline={self.deadline:.0f} n={self.devices_needed}>"
        )
