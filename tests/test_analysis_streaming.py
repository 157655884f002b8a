"""The streaming mean must agree bit for bit with its batch twin."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.streaming import StreamingMean


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
