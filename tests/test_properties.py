"""Property-based tests (hypothesis) on core invariants."""

from __future__ import annotations

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.fairness import ideal_spread, jain_index
from repro.cellular.packets import TrafficCategory
from repro.cellular.power import LTE_POWER_PROFILE
from repro.cellular.rrc import RadioModem, TailPolicy
from repro.core.config import SelectorWeights
from repro.core.selector import DeviceSelector
from repro.core.tasks import TaskSpec
from repro.devices.battery import Battery
from repro.devices.sensors import SensorType
from repro.environment.campus import default_campus
from repro.environment.geometry import Point
from repro.environment.mobility import RandomWaypointMobility
from repro.sim.engine import Simulator
from tests.test_core_datastores_queues import make_record

# ----------------------------------------------------------------------
# Event queue
# ----------------------------------------------------------------------


def _drain(sim):
    """Fire every remaining event one ``run`` step at a time; returns
    the clock after each step."""
    times = []
    while sim.run(max_events=1):
        times.append(sim.now)
    return times


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=50))
def test_event_queue_pops_sorted(times):
    sim = Simulator()
    for t in times:
        sim.schedule_at(t, lambda: None)
    popped = _drain(sim)
    assert popped == sorted(popped)
    assert len(popped) == len(times)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=30),
    st.data(),
)
def test_event_queue_cancellation_preserves_rest(times, data):
    sim = Simulator()
    events = [sim.schedule_at(t, lambda: None) for t in times]
    to_cancel = data.draw(
        st.sets(
            st.integers(min_value=0, max_value=len(events) - 1), max_size=len(events)
        )
    )
    for index in to_cancel:
        sim.cancel(events[index])
    surviving_times = sorted(
        t for i, t in enumerate(times) if i not in to_cancel
    )
    assert _drain(sim) == surviving_times


_QUEUE_OPS = st.one_of(
    st.tuples(
        st.just("push"),
        # A handful of delays, so most pushes collide on time.
        st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 7.25]),
        st.integers(min_value=-3, max_value=3),
    ),
    st.tuples(st.just("pop")),
    st.tuples(st.just("pop_until"), st.sampled_from([0.0, 0.75, 1.0, 5.0])),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=60)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_QUEUE_OPS, max_size=60))
def test_event_queue_order_is_time_priority_push_index(ops):
    """Against a sorted-list model: events fire in (time, priority,
    push index) order, with cancellations interleaved; ``run(until=u,
    max_events=1)`` moves the clock to ``u`` only when no event due by
    ``u`` is left; cancelling a fired event changes nothing; and
    ``Event.__lt__`` agrees with that order."""
    sim = Simulator()
    events = []  # by push index
    live = {}  # push index -> model key
    fired = []
    now = 0.0

    def expected_next(until=None):
        if not live:
            return None
        index = min(live, key=live.get)
        if until is not None and live[index][0] > until:
            return None
        return index

    for op in ops:
        if op[0] == "push":
            _, delay, priority = op
            events.append(sim.schedule(delay, fired.append, len(events), priority=priority))
            live[len(events) - 1] = (now + delay, priority, len(events) - 1)
            assert events[-1].time == now + delay
        elif op[0] == "cancel":
            index = op[1]
            if index < len(events):
                sim.cancel(events[index])
                live.pop(index, None)
        else:
            until = now + op[1] if op[0] == "pop_until" else None
            index = expected_next(until)
            processed = sim.run(until=until, max_events=1)
            if index is None:
                assert processed == 0
                assert fired == []
            else:
                assert processed == 1
                assert fired == [index]
                now = live.pop(index)[0]
                fired.clear()
            if until is not None and expected_next(until) is None:
                now = until
            assert sim.now == now
        assert sim.pending_events == len(live)
    drained = []
    while sim.run(max_events=1):
        drained.extend(fired)
        fired.clear()
    assert drained == sorted(live, key=live.get)
    assert sim.run(max_events=1) == 0
    keyed = sorted(range(len(events)), key=lambda i: (events[i].time, events[i].priority, i))
    assert [events.index(e) for e in sorted(events)] == keyed


# ----------------------------------------------------------------------
# RRC state machine
# ----------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=60.0),  # inter-transfer gap
            st.integers(min_value=1, max_value=1_000_000),  # size
            st.sampled_from(list(TrafficCategory)),
        ),
        min_size=1,
        max_size=20,
    ),
    st.sampled_from(list(TailPolicy)),
)
def test_rrc_invariants_under_arbitrary_traffic(transfers, policy):
    """For any transfer schedule: charges are non-negative, residency
    sums to elapsed time, and total energy bounds the marginal sum."""
    sim = Simulator(seed=0)
    modem = RadioModem(sim, LTE_POWER_PROFILE, "m", policy)
    charges = []
    modem.add_energy_listener(lambda cat, j, r: charges.append(j))
    t = 0.0
    for gap, size, category in transfers:
        t += gap
        sim.schedule_at(t, modem.transmit, size, category)
    horizon = t + 100.0
    sim.run(until=horizon)
    assert all(j >= 0.0 for j in charges)
    residency = modem.state_residency()
    assert abs(sum(residency.values()) - horizon) < 1e-6
    assert modem.total_energy_j() >= sum(charges) - 1e-9
    assert modem.transfers == len(transfers)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.1, max_value=11.4))
def test_no_reset_upload_never_extends_connection(offset_into_tail):
    """Complete-mode invariant: an in-tail upload leaves the radio's
    return-to-idle time unchanged."""
    profile = LTE_POWER_PROFILE

    def idle_time(with_upload):
        sim = Simulator(seed=0)
        modem = RadioModem(sim, profile, "m", TailPolicy.NO_RESET)
        idle_at = []
        modem.add_state_listener(
            lambda old, new: idle_at.append(sim.now) if new.value == "idle" else None
        )
        modem.transmit(600, TrafficCategory.BACKGROUND)
        tail_start = profile.promotion_s + profile.transfer_time(600)
        if with_upload:
            sim.schedule_at(
                tail_start + offset_into_tail,
                modem.transmit,
                600,
                TrafficCategory.CROWDSENSING,
            )
        sim.run(until=100.0)
        return idle_at[-1]

    # The upload may only delay idling by at most its own transfer time
    # (when it straddles the original deadline), never by a new tail.
    delta = idle_time(True) - idle_time(False)
    assert -1e-9 <= delta <= profile.transfer_time(600) + 1e-9


# ----------------------------------------------------------------------
# Selector
# ----------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=496.0),  # energy used
            st.integers(min_value=0, max_value=20),  # times selected
            st.floats(min_value=21.0, max_value=100.0),  # battery
        ),
        min_size=1,
        max_size=15,
    ),
    st.integers(min_value=1, max_value=15),
)
def test_selector_returns_lowest_scores(records_data, n):
    selector = DeviceSelector(SelectorWeights())
    records = [
        make_record(f"d{i:02d}", energy_used_j=e, times_selected=u, battery_pct=b)
        for i, (e, u, b) in enumerate(records_data)
    ]
    eligible = [r for r in records if not r.over_budget()]
    selected = selector.select(records, n, now=0.0)
    if n > len(eligible):
        assert selected is None
        return
    assert selected is not None
    assert len(selected) == n
    scores = {r.device_id: selector.score(r, 0.0) for r in eligible}
    worst_selected = max(scores[d] for d in selected)
    unselected = [scores[r.device_id] for r in eligible if r.device_id not in selected]
    assert all(worst_selected <= s + 1e-9 for s in unselected)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=20),  # pool size
    st.integers(min_value=1, max_value=60),  # rounds
    st.integers(min_value=1, max_value=2),  # picks per round
)
def test_selector_rotation_is_maximally_fair(pool, rounds, picks):
    """With beta-dominant weights, repeated selection over a static
    pool achieves the ideal min/max spread."""
    if picks > pool:
        picks = pool
    selector = DeviceSelector(SelectorWeights())
    records = [make_record(f"d{i:03d}") for i in range(pool)]
    counts = {r.device_id: 0 for r in records}
    for _ in range(rounds):
        selected = selector.select(records, picks, now=0.0)
        for device_id in selected:
            counts[device_id] += 1
            next(r for r in records if r.device_id == device_id).times_selected += 1
    lo, hi = ideal_spread(rounds * picks, pool)
    assert min(counts.values()) == lo
    assert max(counts.values()) == hi


# ----------------------------------------------------------------------
# Fairness metrics
# ----------------------------------------------------------------------


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
@example([3.2757918086478735e-160] * 2)  # subnormal squares
def test_jain_index_bounds(counts):
    value = jain_index(counts)
    assert 0.0 < value <= 1.0 + 1e-9


@given(
    st.floats(min_value=0.001, max_value=1e6),
    st.integers(min_value=1, max_value=100),
)
def test_jain_equal_allocation_is_one(amount, n):
    assert jain_index([amount] * n) > 0.9999


# ----------------------------------------------------------------------
# Battery
# ----------------------------------------------------------------------


@given(st.lists(st.floats(min_value=0.0, max_value=5000.0), max_size=30))
def test_battery_never_negative_and_accounting_exact(drains):
    battery = Battery()
    for amount in drains:
        battery.drain(amount)
    assert battery.remaining_j >= 0.0
    assert 0.0 <= battery.level_pct <= 100.0
    assert battery.drained_j >= sum(drains) - 1e-6


# ----------------------------------------------------------------------
# Task expansion
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=10.0, max_value=3600.0),  # period
    st.floats(min_value=10.0, max_value=86400.0),  # duration
    st.floats(min_value=0.0, max_value=1e5),  # now
)
def test_request_expansion_invariants(period, duration, now):
    task = TaskSpec(
        sensor_type=SensorType.BAROMETER,
        center=Point(0.0, 0.0),
        area_radius_m=100.0,
        spatial_density=1,
        sampling_period_s=period,
        sampling_duration_s=duration,
    )
    requests = task.expand_requests(now)
    assert len(requests) == max(1, int(duration // period))
    for request in requests:
        assert request.issue_time >= now
        assert request.deadline > request.issue_time
    issues = [r.issue_time for r in requests]
    assert issues == sorted(issues)
    # Consecutive requests are exactly one period apart.
    for a, b in zip(issues, issues[1:]):
        assert abs((b - a) - period) < 1e-6


# ----------------------------------------------------------------------
# Mobility
# ----------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_mobility_stays_on_campus_and_is_continuous(query_time, seed):
    campus = default_campus()
    mobility = RandomWaypointMobility(
        campus.site("CS department").position,
        campus.all_waypoints(),
        random.Random(seed),
    )
    p1 = mobility.position_at(float(query_time))
    p2 = mobility.position_at(float(query_time) + 1.0)
    assert campus.contains(p1)
    assert p1.distance_to(p2) <= mobility.speed_mps + 1e-6
