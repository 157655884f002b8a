"""The streaming accumulators must agree with their batch twins.

Where the accumulation order matches the batch computation's order
(fairness counts, state-time totals, p95/max/count) the agreement is
exact; the latency *mean* — which the batch computes over a sorted
copy — is compared to float tolerance.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.fairness import fairness_report
from repro.analysis.quality import delivery_latency
from repro.analysis.streaming import (
    StreamingLatency,
    StreamingMean,
    StreamingSelectionCounts,
    StreamingStateTime,
)
from repro.cellular.rrc import RRCState
from repro.core.server import SensedDataPoint
from repro.devices.sensors import SensorType


def _point(value: float, *, device="dev", task_id=1, latency=0.5, t=0.0):
    return SensedDataPoint(
        request_id=f"task{task_id}-r0",
        task_id=task_id,
        sensor_type=SensorType.BAROMETER,
        value=value,
        sensed_at=t,
        delivered_at=t + latency,
        device_hash=device,
    )


class TestStreamingSelectionCounts:
    def test_matches_batch_fairness_report(self):
        rng = random.Random(11)
        devices = [f"d{i}" for i in range(7)]
        acc = StreamingSelectionCounts()
        counts = {}
        for _ in range(50):
            selected = rng.sample(devices, rng.randint(1, 3))
            acc.add(selected)
            for device_id in selected:
                counts[device_id] = counts.get(device_id, 0) + 1
        assert acc.counts() == counts
        assert acc.report() == fairness_report(counts)
        assert acc.events == 50

    def test_accepts_stored_event_dicts(self):
        acc = StreamingSelectionCounts()
        acc.add_event({"selected": ["d0", "d1"], "qualified": ["d0", "d1"]})
        assert acc.counts() == {"d0": 1, "d1": 1}


class TestStreamingMean:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(
                min_value=-1e6, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            max_size=60,
        )
    )
    def test_bit_identical_to_left_to_right_sum(self, values):
        acc = StreamingMean()
        for value in values:
            acc.add(value)
        if not values:
            assert acc.mean is None
        else:
            assert acc.mean == sum(values) / len(values)  # exact


class TestStreamingLatency:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(
                min_value=-2.0, max_value=500.0,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=0, max_size=120,
        )
    )
    def test_exact_p95_max_count(self, latencies):
        points = [_point(1.0, latency=lat, t=10.0) for lat in latencies]
        batch = delivery_latency(points)
        acc = StreamingLatency()
        for point in points:
            acc.add_point(point)
        stream = acc.stats()
        assert stream.count == batch.count
        assert stream.max_s == batch.max_s  # exact
        assert stream.p95_s == batch.p95_s  # exact, not a sketch
        assert stream.mean_s == pytest.approx(batch.mean_s, rel=1e-12)

    def test_compact_retention(self):
        acc = StreamingLatency()
        for i in range(10_000):
            acc.add(float(i % 311))
        # Exact quantiles force retaining the values, but only as one
        # 8-byte double each — never the readings that carried them.
        assert len(acc._values) == 10_000
        assert acc._values.itemsize == 8
        assert acc._values.typecode == "d"


class TestStreamingStateTime:
    def test_matches_segment_summation(self):
        # A hand-built transition history (the recorder idiom without
        # needing a modem): idle → promoting → active → tail → idle.
        acc = StreamingStateTime(RRCState.IDLE, start=0.0)
        history = [
            (RRCState.IDLE, RRCState.PROMOTING, 5.0),
            (RRCState.PROMOTING, RRCState.ACTIVE, 6.5),
            (RRCState.ACTIVE, RRCState.TAIL, 9.0),
            (RRCState.TAIL, RRCState.IDLE, 20.0),
        ]
        for old, new, now in history:
            acc.transition(old, new, now)
        assert acc.time_in_state(RRCState.IDLE, until=30.0) == 5.0 + 10.0
        assert acc.time_in_state(RRCState.PROMOTING, until=30.0) == 1.5
        assert acc.time_in_state(RRCState.ACTIVE, until=30.0) == 2.5
        assert acc.time_in_state(RRCState.TAIL, until=30.0) == 11.0
        totals = acc.totals(until=30.0)
        assert sum(totals.values()) == 30.0
        assert acc.transitions == 4

    def test_open_state_accrues_to_cutoff(self):
        acc = StreamingStateTime(RRCState.ACTIVE, start=2.0)
        assert acc.time_in_state(RRCState.ACTIVE, until=7.0) == 5.0
        assert acc.current_state is RRCState.ACTIVE

    def test_mismatched_transition_rejected(self):
        acc = StreamingStateTime(RRCState.IDLE)
        with pytest.raises(ValueError):
            acc.transition(RRCState.TAIL, RRCState.IDLE, 1.0)
