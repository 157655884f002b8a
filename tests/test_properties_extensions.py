"""Property-based tests for the extension modules."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.heatmap import SpatialSample, idw_interpolate
from repro.analysis.truth import discover_truth
from repro.cellular.power import THREEG_POWER_PROFILE
from repro.core.privacy import PrivacyFilter, PrivacyPolicy
from repro.core.server import SensedDataPoint
from repro.devices.sensors import SensorType
from repro.environment.geometry import Point

# ----------------------------------------------------------------------
# Privacy filter
# ----------------------------------------------------------------------


def _point(request_id, device_hash, value=1013.0):
    return SensedDataPoint(
        request_id=request_id,
        task_id=1,
        sensor_type=SensorType.BAROMETER,
        value=value,
        sensed_at=0.0,
        delivered_at=1.0,
        device_hash=device_hash,
    )


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),  # k
    st.lists(
        st.tuples(
            st.sampled_from(["r1", "r2", "r3"]),
            st.sampled_from(["a", "b", "c", "d", "e"]),
        ),
        max_size=30,
    ),
)
def test_k_anonymity_never_violated(k, offers):
    """No reading is ever released for a request before k distinct
    devices have contributed to it, and closing suppresses the rest."""
    filt = PrivacyFilter(PrivacyPolicy(k_anonymity=k))
    released = []
    contributors = {}
    for request_id, device in offers:
        contributors.setdefault(request_id, set()).add(device)
        filt.offer(
            _point(request_id, device),
            "app",
            lambda p: released.append(p),
        )
        for point in released:
            assert len(contributors[point.request_id]) >= k
    # Conservation: everything offered is either released or, after
    # closing, suppressed.
    for request_id in ("r1", "r2", "r3"):
        filt.close_request(request_id)
    assert filt.released + filt.suppressed == len(offers)


@settings(max_examples=30, deadline=None)
@given(st.text(min_size=1, max_size=20), st.text(min_size=1, max_size=10))
def test_pseudonyms_deterministic_and_opaque(device_hash, application):
    filt = PrivacyFilter(PrivacyPolicy())
    p1 = filt.pseudonym(device_hash, application)
    p2 = filt.pseudonym(device_hash, application)
    assert p1 == p2
    assert len(p1) == 16
    if len(device_hash) >= 8:
        assert device_hash not in p1


# ----------------------------------------------------------------------
# IDW interpolation
# ----------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1000.0),
            st.floats(min_value=0.0, max_value=1000.0),
            st.floats(min_value=900.0, max_value=1100.0),
        ),
        min_size=1,
        max_size=10,
    ),
    st.floats(min_value=0.0, max_value=1000.0),
    st.floats(min_value=0.0, max_value=1000.0),
)
def test_idw_bounded_by_sample_range(samples_data, qx, qy):
    """An IDW estimate can never leave the samples' value range."""
    samples = [SpatialSample(Point(x, y), v) for x, y, v in samples_data]
    value = idw_interpolate(samples, Point(qx, qy))
    values = [s.value for s in samples]
    assert min(values) - 1e-9 <= value <= max(values) + 1e-9


# ----------------------------------------------------------------------
# Truth discovery
# ----------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    st.dictionaries(
        keys=st.sampled_from(["s1", "s2", "s3", "s4"]),
        values=st.dictionaries(
            keys=st.sampled_from(["i1", "i2", "i3"]),
            values=st.floats(min_value=-1000.0, max_value=1000.0),
            min_size=1,
            max_size=3,
        ),
        min_size=1,
        max_size=4,
    )
)
def test_truth_discovery_invariants(claims):
    result = discover_truth(claims)
    # Weights are positive; truths stay inside the claimed range per item.
    assert all(w > 0 for w in result.weights.values())
    for item, truth in result.truths.items():
        claimed = [c[item] for c in claims.values() if item in c]
        assert min(claimed) - 1e-6 <= truth <= max(claimed) + 1e-6


# ----------------------------------------------------------------------
# Persistence codecs
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1000.0),   # energy used
    st.integers(min_value=0, max_value=50),       # times selected
    st.floats(min_value=0.0, max_value=100.0),    # battery
    st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e6)),  # last comm
    st.booleans(),                                # responsive
)
def test_device_record_round_trip(energy, selected, battery, last_comm, responsive):
    import json

    from repro.core.datastores import record_from_dict, record_to_dict
    from tests.test_core_datastores_queues import make_record

    record = make_record(
        energy_used_j=energy,
        times_selected=selected,
        battery_pct=battery,
        last_comm_time=last_comm,
        responsive=responsive,
        sensors=frozenset({SensorType.BAROMETER, SensorType.GPS}),
    )
    encoded = json.dumps(record_to_dict(record))
    restored = record_from_dict(json.loads(encoded))
    assert restored == record


# ----------------------------------------------------------------------
# Staged tail energy
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-2.0, max_value=12.0),
    st.floats(min_value=-2.0, max_value=12.0),
)
def test_tail_energy_between_monotone_and_additive(a, b):
    p = THREEG_POWER_PROFILE
    lo, hi = min(a, b), max(a, b)
    energy = p.tail_energy_between(lo, hi)
    assert energy >= 0.0
    mid = (lo + hi) / 2.0
    split = p.tail_energy_between(lo, mid) + p.tail_energy_between(mid, hi)
    assert energy == __import__("pytest").approx(split)
    assert energy <= p.tail_energy_j() + 1e-9
