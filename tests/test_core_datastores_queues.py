"""Unit tests for the device/task datastores and the request queues."""

from __future__ import annotations

import pytest

from repro.core.datastores import DeviceDatastore, DeviceRecord, TaskDatastore
from repro.core.queues import RequestQueue
from tests.test_core_tasks import make_task


def make_record(device_id="d1", **kwargs) -> DeviceRecord:
    defaults = dict(
        device_id=device_id,
        imei_hash="abc123",
        device_model="Nominal",
        energy_budget_j=496.0,
        critical_battery_pct=20.0,
    )
    defaults.update(kwargs)
    return DeviceRecord(**defaults)


class TestDeviceRecord:
    def test_budget_tracking(self):
        record = make_record(energy_used_j=100.0)
        assert record.remaining_budget_j() == pytest.approx(396.0)
        assert not record.over_budget()
        record.energy_used_j = 500.0
        assert record.over_budget()
        assert record.remaining_budget_j() == 0.0

    def test_critical_battery(self):
        record = make_record(battery_pct=19.0)
        assert record.below_critical_battery()
        record.battery_pct = 21.0
        assert not record.below_critical_battery()

    def test_ttl(self):
        record = make_record()
        assert record.ttl_s(100.0) is None
        record.last_comm_time = 90.0
        assert record.ttl_s(100.0) == pytest.approx(10.0)


class TestDeviceDatastore:
    def test_register_and_lookup(self):
        store = DeviceDatastore()
        store.register(make_record("d1"))
        assert "d1" in store
        assert len(store) == 1
        assert store.record("d1").device_id == "d1"

    def test_duplicate_registration_rejected(self):
        store = DeviceDatastore()
        store.register(make_record("d1"))
        with pytest.raises(ValueError):
            store.register(make_record("d1"))

    def test_deregister(self):
        store = DeviceDatastore()
        store.register(make_record("d1"))
        store.deregister("d1")
        assert "d1" not in store
        with pytest.raises(KeyError):
            store.deregister("d1")

    def test_records_sorted(self):
        """The selector ranks ``records()``: insertion order never leaks
        into it, and ids sort as strings ("d12" before "d3")."""
        store = DeviceDatastore()
        for device_id in ["z", "d7", "a", "d0", "d12", "d3"]:
            store.register(make_record(device_id))
        expected = ["a", "d0", "d12", "d3", "d7", "z"]
        assert [r.device_id for r in store.records()] == expected
        assert store.device_ids() == expected

    def test_update_state(self):
        store = DeviceDatastore()
        store.register(make_record("d1"))
        store.update_state(
            "d1", battery_pct=42.0, energy_used_j=7.0, last_comm_time=99.0
        )
        record = store.record("d1")
        assert record.battery_pct == 42.0
        assert record.energy_used_j == 7.0
        assert record.last_comm_time == 99.0

    def test_update_state_validates(self):
        store = DeviceDatastore()
        store.register(make_record("d1"))
        with pytest.raises(ValueError):
            store.update_state("d1", battery_pct=150.0)
        with pytest.raises(ValueError):
            store.update_state("d1", energy_used_j=-1.0)

    def test_mark_selected(self):
        store = DeviceDatastore()
        store.register(make_record("d1"))
        store.mark_selected("d1")
        store.mark_selected("d1")
        assert store.record("d1").times_selected == 2

    def test_unresponsive_tracking(self):
        store = DeviceDatastore()
        store.register(make_record("d1"))
        store.mark_unresponsive("d1")
        assert not store.record("d1").responsive
        store.mark_responsive("d1")
        assert store.record("d1").responsive

    def test_invalid_data_count(self):
        store = DeviceDatastore()
        store.register(make_record("d1"))
        store.note_invalid_data("d1")
        assert store.record("d1").invalid_data_count == 1

    def test_missing_device_raises(self):
        with pytest.raises(KeyError):
            DeviceDatastore().record("ghost")


class TestTaskDatastore:
    def test_add_get_remove(self):
        store = TaskDatastore()
        task = make_task()
        store.add(task)
        assert task.task_id in store
        assert store.get(task.task_id) is task
        removed = store.remove(task.task_id)
        assert removed is task
        assert task.task_id not in store

    def test_duplicate_add_rejected(self):
        store = TaskDatastore()
        task = make_task()
        store.add(task)
        with pytest.raises(ValueError):
            store.add(task)

    def test_replace(self):
        store = TaskDatastore()
        task = make_task()
        store.add(task)
        updated = task.with_updates(spatial_density=9)
        store.replace(updated)
        assert store.get(task.task_id).spatial_density == 9

    def test_replace_missing_rejected(self):
        with pytest.raises(KeyError):
            TaskDatastore().replace(make_task())

    def test_all_tasks_in_numeric_order(self):
        store = TaskDatastore()
        for task_id in [10, 2, 9, 1]:
            store.add(make_task(task_id=task_id))
        assert [t.task_id for t in store.all_tasks()] == [1, 2, 9, 10]

    def test_tasks_from_origin(self):
        store = TaskDatastore()
        a = make_task(origin="weather")
        b = make_task(origin="traffic")
        store.add(a)
        store.add(b)
        assert store.tasks_from("weather") == [a]

    def test_missing_task_raises(self):
        with pytest.raises(KeyError):
            TaskDatastore().get(999)
        with pytest.raises(KeyError):
            TaskDatastore().remove(999)


class TestRequestQueue:
    def _requests(self, task=None, count=3):
        task = task if task is not None else make_task(
            sampling_period_s=600.0, sampling_duration_s=count * 600.0
        )
        return task.expand_requests(0.0)

    def test_pops_in_deadline_order(self):
        queue = RequestQueue("run")
        requests = self._requests()
        for request in reversed(requests):
            queue.push(request)
        popped = [queue.pop() for _ in range(len(requests))]
        deadlines = [r.deadline for r in popped]
        assert deadlines == sorted(deadlines)

    def test_empty_queue(self):
        queue = RequestQueue("run")
        assert not queue
        assert queue.pop() is None
        assert queue.peek() is None

    def test_peek_does_not_remove(self):
        queue = RequestQueue("run")
        request = self._requests()[0]
        queue.push(request)
        assert queue.peek() is request
        assert len(queue) == 1

    def test_retract_task_drops_requests(self):
        queue = RequestQueue("run")
        requests = self._requests()
        for request in requests:
            queue.push(request)
        dropped = queue.retract_task(requests[0].task.task_id)
        assert dropped == len(requests)
        assert len(queue) == 0
        assert queue.pop() is None

    def test_retract_blocks_future_pushes_until_allowed(self):
        queue = RequestQueue("run")
        requests = self._requests()
        task_id = requests[0].task.task_id
        queue.retract_task(task_id)
        queue.push(requests[0])
        assert len(queue) == 0
        queue.allow_task(task_id)
        queue.push(requests[0])
        assert len(queue) == 1

    def test_drain_satisfiable_keeps_order_of_rest(self):
        queue = RequestQueue("wait")
        requests = self._requests(count=4)
        for request in requests:
            queue.push(request)
        satisfiable = queue.drain_satisfiable(lambda r: r.sequence % 2 == 0)
        assert [r.sequence for r in satisfiable] == [0, 2]
        remaining = [queue.pop().sequence for _ in range(len(queue))]
        assert remaining == [1, 3]

    def test_drop_expired(self):
        queue = RequestQueue("wait")
        requests = self._requests(count=4)
        for request in requests:
            queue.push(request)
        expired = queue.drop_expired(now=1300.0)
        assert [r.sequence for r in expired] == [0, 1]
        assert len(queue) == 2

    def test_iteration_is_nondestructive(self):
        queue = RequestQueue("run")
        for request in self._requests():
            queue.push(request)
        listed = list(queue)
        assert len(listed) == 3
        assert len(queue) == 3
        assert [r.deadline for r in listed] == sorted(r.deadline for r in listed)
