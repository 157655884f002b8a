"""The app server's running aggregates must equal a scan of its log.

``CrowdsensingAppServer`` answers ``mean_value``, ``reading_count``
and ``distinct_devices`` from aggregates folded as readings arrive.
The reference here is the scan those queries used to make: loop over
``iter_readings`` in arrival order, start the total at ``0.0``, add
each value, divide by the count.  After every step of a random
sequence (create a task, deliver a reading — sometimes to a deleted
or foreign task — delete a task, reattach a fresh app server to the
same store) every answer must be *equal*, not approximately equal, on
both storage backends.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.server import SensedDataPoint
from repro.devices.sensors import SensorType
from repro.serverlib.appserver import CrowdsensingAppServer
from repro.service.backend import DEFAULT_CENTER, build_world
from repro.storage import MemoryBackend, SqliteBackend

APP = "aggregates"
BACKENDS = ["memory", "sqlite"]


def _make_backend(kind: str):
    if kind == "memory":
        return MemoryBackend()
    return SqliteBackend(":memory:")


def _scan_mean(app: CrowdsensingAppServer, task_id: Optional[int] = None):
    total = 0.0
    count = 0
    for point in app.iter_readings(task_id):
        total += point.value
        count += 1
    if count == 0:
        return None
    return total / count


def scan_answers(app: CrowdsensingAppServer, task_ids: List[int]) -> dict:
    """Every query answer, computed by scanning the log."""
    return {
        "mean": _scan_mean(app),
        "count": sum(1 for _ in app.iter_readings()),
        "devices": len({p.device_hash for p in app.iter_readings()}),
        "tasks": {
            t: (
                _scan_mean(app, t),
                sum(1 for _ in app.iter_readings(t)),
                len({p.device_hash for p in app.iter_readings(t)}),
            )
            for t in task_ids
        },
    }


def aggregate_answers(app: CrowdsensingAppServer, task_ids: List[int]) -> dict:
    """The same answers, from the app server's queries."""
    return {
        "mean": app.mean_value(),
        "count": app.reading_count(),
        "devices": app.distinct_devices(),
        "tasks": {
            t: (app.mean_value(t), app.reading_count(t), app.distinct_devices(t))
            for t in task_ids
        },
    }


def _task(app: CrowdsensingAppServer) -> int:
    return app.task(
        SensorType.BAROMETER,
        DEFAULT_CENTER,
        1000.0,
        1,
        sampling_period_s=600.0,
        sampling_duration_s=1800.0,
    )


def run_steps(kind: str, steps) -> Dict[str, int]:
    """Apply ``steps`` to a fresh world, checking after every step.

    Returns a census of what the run exercised.
    """
    backend = _make_backend(kind)
    _, server, _ = build_world(storage=backend)
    app = CrowdsensingAppServer(server, APP, storage=backend)
    created: List[int] = []
    census = {
        "tasks": 0,
        "readings": 0,
        "deletes_with_readings": 0,
        "late": 0,
        "reattaches": 0,
        "fractional_means": 0,
    }
    late_before = 0
    for seq, step in enumerate(steps):
        action = step[0]
        if action == "create":
            created.append(_task(app))
            census["tasks"] += 1
        elif action == "deliver" and created:
            _, pick, value, device, stray = step
            # A stray delivery may go to any task ever created: one
            # deleted, or owned by an app server since replaced.
            targets = created if stray or not app.task_ids else app.task_ids
            task_id = targets[pick % len(targets)]
            app.receive_sensed_data(
                SensedDataPoint(
                    request_id=f"r{seq}",
                    task_id=task_id,
                    sensor_type=SensorType.BAROMETER,
                    value=value,
                    sensed_at=float(seq),
                    delivered_at=float(seq) + 0.5,
                    device_hash=device,
                )
            )
        elif action == "delete" and app.task_ids:
            task_id = app.task_ids[step[1] % len(app.task_ids)]
            if app.reading_count(task_id):
                census["deletes_with_readings"] += 1
            app.delete_task(task_id)
        elif action == "reattach":
            late_before += app.late_deliveries_dropped
            app = CrowdsensingAppServer(server, APP, storage=backend)
            census["reattaches"] += 1
        # Every task ever created, owned or not: a deleted task must
        # answer like an empty one, a foreign task like its readings.
        expected = scan_answers(app, created)
        assert aggregate_answers(app, created) == expected
        mean = expected["mean"]
        if mean is not None and mean != int(mean):
            census["fractional_means"] += 1
    census["late"] = late_before + app.late_deliveries_dropped
    census["readings"] = app.reading_count()
    return census


values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
devices = st.sampled_from(["h0", "h1", "h2", "h3"])
stray = st.sampled_from([False, False, False, True])
STEPS = {
    "create": st.just(("create",)),
    "deliver": st.tuples(st.just("deliver"), st.integers(0, 63), values, devices, stray),
    "delete": st.tuples(st.just("delete"), st.integers(0, 63)),
    "reattach": st.just(("reattach",)),
}
# Repeats weight the draw: mostly deliveries, some creates, fewer
# deletes and reattaches.
WEIGHTED = ["deliver"] * 8 + ["create"] * 3 + ["delete"] * 2 + ["reattach"]
step_strategy = st.sampled_from(WEIGHTED).flatmap(STEPS.__getitem__)


@pytest.mark.parametrize("kind", BACKENDS)
@settings(max_examples=100, deadline=None)
@given(steps=st.lists(step_strategy, min_size=12, max_size=60))
def test_aggregates_equal_the_scan(kind, steps):
    run_steps(kind, steps)


#: Two tasks, a delete of one holding readings, late deliveries to a
#: deleted task and to a task of the replaced app server, and values
#: whose mean is not a whole number.
PINNED_STEPS = [
    ("create",),
    ("create",),
    ("deliver", 0, 1013.25, "h0", False),
    ("deliver", 1, 1000.1, "h1", False),
    ("deliver", 0, 0.1, "h2", False),
    ("deliver", 1, 999.7, "h0", False),
    ("deliver", 0, 1e-3, "h1", False),
    ("delete", 0),
    ("deliver", 0, 1012.5, "h3", True),
    ("deliver", 0, 998.3, "h2", False),
    ("reattach",),
    ("deliver", 1, 997.0, "h1", True),
    ("create",),
    ("deliver", 0, 1001.9, "h3", False),
    ("deliver", 0, 0.3, "h0", False),
    ("create",),
    ("deliver", 1, 1002.2, "h2", False),
    ("delete", 0),
    ("deliver", 2, 996.4, "h1", True),
]


@pytest.mark.parametrize("kind", BACKENDS)
def test_pinned_sequence_is_not_vacuous(kind):
    census = run_steps(kind, PINNED_STEPS)
    assert census["tasks"] >= 2
    assert census["deletes_with_readings"] >= 1
    assert census["late"] >= 1
    assert census["reattaches"] >= 1
    assert census["fractional_means"] >= 1
    assert census["readings"] >= 1


@pytest.mark.parametrize("kind", BACKENDS)
def test_queries_make_no_scan(kind):
    backend = _make_backend(kind)
    _, server, _ = build_world(storage=backend)
    scans = []
    scan_log = backend.scan_log

    def counting_scan(ns, *, tag=None):
        scans.append((ns, tag))
        return scan_log(ns, tag=tag)

    backend.scan_log = counting_scan
    app = CrowdsensingAppServer(server, APP, storage=backend)
    assert len(scans) == 1, "construction folds the log with one scan"

    a, b = _task(app), _task(app)
    for i in range(6):
        app.receive_sensed_data(
            SensedDataPoint(
                request_id=f"r{i}",
                task_id=(a, b)[i % 2],
                sensor_type=SensorType.BAROMETER,
                value=1000.0 + i / 3,
                sensed_at=float(i),
                delivered_at=float(i),
                device_hash=f"h{i % 4}",
            )
        )
    for task_id in (None, a, b):
        app.mean_value(task_id)
        app.reading_count(task_id)
        app.distinct_devices(task_id)
    assert len(scans) == 1, "appends and queries make no scan"

    app.delete_task(a)
    assert len(scans) == 2, "a delete that prunes readings refolds with one scan"
    empty = _task(app)
    app.delete_task(empty)
    assert len(scans) == 2, "a delete that prunes nothing makes no scan"
    assert (app.reading_count(), app.reading_count(a)) == (3, 0)
    assert len(scans) == 2
    assert app.mean_value() == _scan_mean(app)
