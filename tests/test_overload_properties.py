"""Property-based tests (hypothesis) for the admission controller.

The fluid admission queue is a small piece of analytic machinery the
whole backpressure story leans on — the service front (ISSUE 9) now
uses it as its front-door gate under a wall clock, so its invariants
get pinned here over *arbitrary* admission sequences:

- the fluid depth only moves two ways: +1 on an admitted request,
  and continuous decay at the service rate as time passes — between
  admissions it is monotonically non-increasing and exactly matches
  the closed-form drain;
- every ``queue_full`` shed carries a ``retry_after_s`` sized to the
  backlog overshoot (base pause + overshoot/service-rate), never less
  than the base pause;
- the circuit breaker opens *exactly* at ``breaker_threshold``
  consecutive sheds — not one earlier — and re-closes after
  ``BREAKER_COOLDOWN_S``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import OverloadPolicy
from repro.core.overload import (
    BREAKER_COOLDOWN_S,
    QUERY_SHED_FRACTION,
    REGISTRATION_SHED_FRACTION,
    UPLOAD_SHED_FRACTION,
    AdmissionController,
    RequestClass,
)
from repro.service import ManualClock

POLICY = OverloadPolicy(
    queue_capacity=8,
    service_rate_per_s=2.0,
    retry_after_base_s=2.0,
    breaker_threshold=5,
)

FRACTION = {
    RequestClass.REGISTRATION: REGISTRATION_SHED_FRACTION,
    RequestClass.UPLOAD: UPLOAD_SHED_FRACTION,
    RequestClass.QUERY: QUERY_SHED_FRACTION,
}

request_classes = st.sampled_from(list(RequestClass))
gaps = st.floats(min_value=0.0, max_value=6.0, allow_nan=False, allow_infinity=False)
admission_sequences = st.lists(
    st.tuples(gaps, request_classes), min_size=1, max_size=80
)


def make_controller(policy: OverloadPolicy = POLICY):
    clock = ManualClock()
    return clock, AdmissionController(clock, policy)


# ----------------------------------------------------------------------
# Fluid-queue depth
# ----------------------------------------------------------------------


@given(gaps_between=st.lists(gaps, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_depth_monotone_and_exact_between_drains(gaps_between):
    """With no admissions, depth never rises and follows the exact
    closed-form fluid drain."""
    clock, controller = make_controller()
    for _ in range(POLICY.queue_capacity):
        controller.admit(RequestClass.REGISTRATION)
    previous = controller.queue_depth
    for dt in gaps_between:
        clock.advance(dt)
        depth = controller.queue_depth
        assert depth <= previous + 1e-9
        assert depth >= 0.0
        expected = max(0.0, previous - dt * POLICY.service_rate_per_s)
        assert depth == pytest.approx(expected, abs=1e-9)
        previous = depth


@given(admission_sequences)
@settings(max_examples=60, deadline=None)
def test_depth_moves_only_by_admission_or_drain(sequence):
    """Depth accounting over arbitrary sequences: +1 per admit (after
    the drain), unchanged by a shed, never negative, never past the
    class-capacity bound."""
    clock, controller = make_controller()
    for dt, request_class in sequence:
        clock.advance(dt)
        before = controller.queue_depth  # drains as a side effect
        decision = controller.admit(request_class)
        after = controller.queue_depth
        if decision.admitted:
            assert after == pytest.approx(before + 1.0, abs=1e-9)
        else:
            assert after == pytest.approx(before, abs=1e-9)
        assert 0.0 <= after <= POLICY.queue_capacity + 1e-9


# ----------------------------------------------------------------------
# Retry-After sizing
# ----------------------------------------------------------------------


@given(admission_sequences)
@settings(max_examples=60, deadline=None)
def test_queue_full_retry_after_sized_to_overshoot(sequence):
    clock, controller = make_controller()
    saw_shed = False
    for dt, request_class in sequence:
        clock.advance(dt)
        decision = controller.admit(request_class)
        if decision.admitted or decision.reason != "queue_full":
            continue
        saw_shed = True
        threshold = POLICY.queue_capacity * FRACTION[request_class]
        overshoot = decision.queue_depth + 1.0 - threshold
        expected = POLICY.retry_after_base_s + max(0.0, overshoot) / (
            POLICY.service_rate_per_s
        )
        assert decision.retry_after_s == pytest.approx(expected, abs=1e-9)
        assert decision.retry_after_s >= POLICY.retry_after_base_s
    # The strategy reliably produces shed-heavy sequences; nothing to
    # assert when this particular draw never overflowed the queue.
    if not saw_shed:
        assert controller.stats.total_shed == 0


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------


@given(admission_sequences)
@settings(max_examples=60, deadline=None)
def test_breaker_opens_exactly_at_threshold(sequence):
    """Model-check the breaker against an independent re-implementation:
    it opens exactly when the consecutive-shed counter reaches the
    threshold while closed, and never at any other moment."""
    clock, controller = make_controller()
    consecutive = 0
    opens = 0
    open_until = None
    for dt, request_class in sequence:
        clock.advance(dt)
        now = clock.now
        breaker_open = open_until is not None and now < open_until
        assert controller.breaker_open == breaker_open
        decision = controller.admit(request_class)
        if breaker_open and request_class is not RequestClass.REGISTRATION:
            assert not decision.admitted
            assert decision.reason == "breaker_open"
            assert decision.retry_after_s == pytest.approx(open_until - now)
            assert controller.stats.breaker_opens == opens
            continue
        if decision.admitted:
            consecutive = 0
        else:
            consecutive += 1
            if consecutive >= POLICY.breaker_threshold and not breaker_open:
                opens += 1
                open_until = now + BREAKER_COOLDOWN_S
        assert controller.stats.breaker_opens == opens


def test_breaker_not_one_shed_early():
    """threshold-1 consecutive sheds leave the breaker closed; the
    threshold-th opens it."""
    clock, controller = make_controller()
    for _ in range(POLICY.queue_capacity):
        controller.admit(RequestClass.REGISTRATION)  # fill: depth == capacity
    for i in range(POLICY.breaker_threshold - 1):
        decision = controller.admit(RequestClass.REGISTRATION)
        assert not decision.admitted, f"shed {i} should be refused"
        assert not controller.breaker_open
        assert controller.stats.breaker_opens == 0
    decision = controller.admit(RequestClass.REGISTRATION)
    assert not decision.admitted
    assert controller.breaker_open
    assert controller.stats.breaker_opens == 1


def test_breaker_recloses_after_cooldown_and_admits_again():
    clock, controller = make_controller()
    for _ in range(POLICY.queue_capacity):
        controller.admit(RequestClass.REGISTRATION)
    for _ in range(POLICY.breaker_threshold):
        controller.admit(RequestClass.REGISTRATION)
    assert controller.breaker_open
    # While open: uploads/queries refused with the remaining cooldown.
    refused = controller.admit(RequestClass.UPLOAD)
    assert refused.reason == "breaker_open"
    assert refused.retry_after_s == pytest.approx(BREAKER_COOLDOWN_S)
    # Cooldown passes; the queue also drains meanwhile.
    clock.advance(BREAKER_COOLDOWN_S + 1e-6)
    assert not controller.breaker_open
    decision = controller.admit(RequestClass.UPLOAD)
    assert decision.admitted
    assert controller.stats.breaker_opens == 1
