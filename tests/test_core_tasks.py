"""Unit tests for task specs and request expansion."""

from __future__ import annotations

import pytest

from repro.core.tasks import ONE_SHOT_DEADLINE_S, SensingRequest, TaskSpec
from repro.devices.sensors import SensorType
from repro.environment.geometry import Point

CENTER = Point(1000.0, 1000.0)


def make_task(**kwargs) -> TaskSpec:
    defaults = dict(
        sensor_type=SensorType.BAROMETER,
        center=CENTER,
        area_radius_m=500.0,
        spatial_density=2,
        sampling_period_s=600.0,
        sampling_duration_s=3600.0,
    )
    defaults.update(kwargs)
    return TaskSpec(**defaults)


class TestTaskValidation:
    def test_valid_task(self):
        task = make_task()
        assert not task.one_shot
        assert task.duration_s() == 3600.0

    def test_unique_task_ids(self):
        assert make_task().task_id != make_task().task_id

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            make_task(area_radius_m=0.0)

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            make_task(spatial_density=0)

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            make_task(sampling_period_s=-5.0)

    def test_duration_and_window_mutually_exclusive(self):
        with pytest.raises(ValueError):
            make_task(start_time=0.0, end_time=100.0)

    def test_window_requires_both_ends(self):
        with pytest.raises(ValueError):
            make_task(sampling_duration_s=None, start_time=0.0)

    def test_window_must_be_ordered(self):
        with pytest.raises(ValueError):
            make_task(sampling_duration_s=None, start_time=100.0, end_time=50.0)

    def test_periodic_needs_duration_or_window(self):
        with pytest.raises(ValueError):
            make_task(sampling_duration_s=None)

    def test_one_shot_task(self):
        task = make_task(sampling_period_s=None, sampling_duration_s=None)
        assert task.one_shot
        assert task.duration_s() is None


class TestRequestExpansion:
    def test_paper_example_60min_10min_period_6_requests(self):
        """Paper §3: 60-minute task with 10-minute period → 6 requests."""
        task = make_task(sampling_period_s=600.0, sampling_duration_s=3600.0)
        requests = task.expand_requests(0.0)
        assert len(requests) == 6

    def test_paper_example_1h_5min_12_requests(self):
        """Paper §3.2: 1-hour task at 5-minute period → 12 tasks."""
        task = make_task(sampling_period_s=300.0, sampling_duration_s=3600.0)
        assert task.request_count() == 12

    def test_issue_times_and_deadlines(self):
        task = make_task(sampling_period_s=600.0, sampling_duration_s=1800.0)
        requests = task.expand_requests(100.0)
        assert [r.issue_time for r in requests] == [100.0, 700.0, 1300.0]
        assert [r.deadline for r in requests] == [700.0, 1300.0, 1900.0]

    def test_window_based_expansion(self):
        task = make_task(
            sampling_duration_s=None,
            start_time=500.0,
            end_time=2300.0,
            sampling_period_s=600.0,
        )
        requests = task.expand_requests(0.0)
        assert len(requests) == 3
        assert requests[0].issue_time == 500.0

    def test_past_start_clamped_to_now(self):
        task = make_task(
            sampling_duration_s=None,
            start_time=0.0,
            end_time=1800.0,
            sampling_period_s=600.0,
        )
        requests = task.expand_requests(1000.0)
        assert requests[0].issue_time == 1000.0

    def test_one_shot_single_request(self):
        task = make_task(sampling_period_s=None, sampling_duration_s=None)
        requests = task.expand_requests(50.0)
        assert len(requests) == 1
        assert requests[0].deadline == 50.0 + ONE_SHOT_DEADLINE_S

    def test_request_ids_unique_within_task(self):
        task = make_task()
        requests = task.expand_requests(0.0)
        assert len({r.request_id for r in requests}) == len(requests)

    def test_devices_needed(self):
        task = make_task(spatial_density=5)
        request = task.expand_requests(0.0)[0]
        assert request.devices_needed == 5

    def test_invalid_request_deadline(self):
        task = make_task()
        with pytest.raises(ValueError):
            SensingRequest(task=task, sequence=0, issue_time=10.0, deadline=10.0)


class TestTaskUpdates:
    def test_with_updates_preserves_id(self):
        task = make_task()
        updated = task.with_updates(spatial_density=4)
        assert updated.task_id == task.task_id
        assert updated.spatial_density == 4
        assert task.spatial_density == 2  # original untouched

    def test_with_updates_validates(self):
        with pytest.raises(ValueError):
            make_task().with_updates(area_radius_m=-1.0)
