"""Tests for the asyncio service front (repro.service).

Covers the ISSUE 9 service-layer checklist: the lifecycle transition
table is *total* (no request can skip SHED/FAILED accounting), illegal
transitions raise, queue-full behaviour sheds with a sized hint,
shutdown resolves every in-flight future, the load generator's trace
is seed-deterministic and identical at any consumer count, and shed
Retry-After hints round-trip through ``RetryPolicy.shed_delay_s``.

No pytest-asyncio in the image: async scenarios run via ``asyncio.run``
inside synchronous test functions.
"""

from __future__ import annotations

import asyncio
import gc
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RETRY_AFTER_CAP_S, OverloadPolicy, RetryPolicy
from repro.core.overload import RequestClass
from repro.service import (
    KINDS_BY_CLASS,
    LEGAL_TRANSITIONS,
    REQUEST_CLASS_OF,
    TERMINAL_STATES,
    AppServerBackend,
    IllegalTransitionError,
    LifecycleLedger,
    LoadGenerator,
    LoadSpec,
    RequestKind,
    RequestState,
    ResponseStatus,
    SenseAidService,
    ServiceClosedError,
    ServiceConfig,
    build_schedule,
    build_world,
    percentile,
    trace_signature,
)
from repro.service.lifecycle import RequestRecord

#: Admission wide open — tests that are not about shedding use this so
#: every request is admitted.
OPEN_ADMISSION = OverloadPolicy(queue_capacity=10_000, service_rate_per_s=100_000.0)


def echo_handler(request):
    """Pure function of the request — identical results at any
    consumer count."""
    return {"kind": request.kind.value, "index": request.payload.get("index")}


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Lifecycle state machine
# ----------------------------------------------------------------------


class TestTransitionTable:
    def test_table_is_total_over_states(self):
        """Every state has an entry; terminals go nowhere."""
        for state in RequestState:
            assert state in LEGAL_TRANSITIONS
        for state in TERMINAL_STATES:
            assert LEGAL_TRANSITIONS[state] == frozenset()

    def test_every_open_state_reaches_a_terminal(self):
        """No request can get stuck: from every non-terminal state some
        terminal is reachable, and FAILED is reachable in one hop — the
        edge the shutdown/cancellation paths use, so nothing can skip
        SHED/FAILED accounting."""
        for state in RequestState:
            if state in TERMINAL_STATES:
                continue
            assert LEGAL_TRANSITIONS[state] & TERMINAL_STATES
            assert RequestState.FAILED in LEGAL_TRANSITIONS[state]

    def test_shed_only_from_queued(self):
        """SHED is a front-door-only outcome — once admitted, a request
        is served or failed, never silently dropped."""
        for state, targets in LEGAL_TRANSITIONS.items():
            if RequestState.SHED in targets:
                assert state is RequestState.QUEUED


class TestLifecycleLedger:
    def test_happy_path_accounting(self):
        ledger = LifecycleLedger()
        ledger.create("r1", 0.0)
        ledger.advance("r1", RequestState.ADMITTED, 0.1)
        ledger.advance("r1", RequestState.RUNNING, 0.2)
        ledger.advance("r1", RequestState.DONE, 0.3)
        assert ledger.created == 1
        assert ledger.done == 1
        assert ledger.open_requests == 0
        ledger.assert_accounted()
        record = ledger.records["r1"]
        assert record.terminal
        assert record.at(RequestState.RUNNING) == 0.2
        with pytest.raises(KeyError):
            record.at(RequestState.SHED)

    @pytest.mark.parametrize(
        "path,bad",
        [
            ([], RequestState.RUNNING),  # QUEUED -> RUNNING skips ADMITTED
            ([], RequestState.DONE),  # QUEUED -> DONE skips everything
            ([RequestState.ADMITTED], RequestState.DONE),
            ([RequestState.ADMITTED], RequestState.SHED),  # post-admit shed
            ([RequestState.ADMITTED, RequestState.RUNNING], RequestState.SHED),
            ([RequestState.SHED], RequestState.ADMITTED),  # out of terminal
        ],
    )
    def test_illegal_transitions_raise(self, path, bad):
        ledger = LifecycleLedger()
        ledger.create("r1", 0.0)
        for state in path:
            ledger.advance("r1", state, 0.0)
        with pytest.raises(IllegalTransitionError):
            ledger.advance("r1", bad, 0.0)

    def test_advance_unknown_request_raises(self):
        ledger = LifecycleLedger()
        with pytest.raises(IllegalTransitionError):
            ledger.advance("ghost", RequestState.ADMITTED, 0.0)

    def test_duplicate_create_raises(self):
        ledger = LifecycleLedger()
        ledger.create("r1", 0.0)
        with pytest.raises(ValueError):
            ledger.create("r1", 1.0)

    def test_assert_accounted_detects_imbalance(self):
        ledger = LifecycleLedger()
        ledger.create("r1", 0.0)
        ledger.created += 1  # simulate a request that skipped the ledger
        with pytest.raises(AssertionError):
            ledger.assert_accounted()

    def test_counters_only_mode(self):
        ledger = LifecycleLedger(keep_records=False)
        ledger.create("r1", 0.0)
        ledger.advance("r1", RequestState.SHED, 0.0)
        assert ledger.records == {}
        assert ledger.shed == 1
        ledger.assert_accounted()


class _DictLedger:
    """The ledger as a dict of live ``RequestRecord`` objects: the
    reference the columnar log must match call for call."""

    def __init__(self, *, keep_records: bool = True) -> None:
        self.keep_records = keep_records
        self.records: Dict[str, RequestRecord] = {}
        self.created = 0
        self.transitions: Dict[str, int] = {}
        self.terminal_counts = {s.value: 0 for s in TERMINAL_STATES}
        self._open_states: Dict[str, RequestState] = {}

    def create(self, request_id: str, now: float) -> None:
        if request_id in self._open_states or (self.keep_records and request_id in self.records):
            raise ValueError(f"duplicate request id {request_id!r}")
        self.created += 1
        self._open_states[request_id] = RequestState.QUEUED
        if self.keep_records:
            self.records[request_id] = RequestRecord(request_id, [(RequestState.QUEUED, now)])

    def advance(self, request_id: str, target: RequestState, now: float) -> None:
        current = self._open_states.get(request_id)
        if current is None:
            raise IllegalTransitionError(request_id, RequestState.DONE, target)
        if target not in LEGAL_TRANSITIONS[current]:
            raise IllegalTransitionError(request_id, current, target)
        edge = f"{current.value}->{target.value}"
        self.transitions[edge] = self.transitions.get(edge, 0) + 1
        if self.keep_records:
            self.records[request_id].history.append((target, now))
        if target in TERMINAL_STATES:
            self.terminal_counts[target.value] += 1
            del self._open_states[request_id]
        else:
            self._open_states[request_id] = target

    @property
    def open_requests(self) -> int:
        return len(self._open_states)

    @property
    def done(self) -> int:
        return self.terminal_counts["done"]

    @property
    def shed(self) -> int:
        return self.terminal_counts["shed"]

    @property
    def failed(self) -> int:
        return self.terminal_counts["failed"]

    def as_dict(self) -> Dict[str, object]:
        return {
            "created": self.created,
            "done": self.done,
            "shed": self.shed,
            "failed": self.failed,
            "open": self.open_requests,
            "transitions": dict(sorted(self.transitions.items())),
        }


def _outcome(ledger, step) -> Tuple:
    """Apply one step; a normal return or the exception's identity."""
    try:
        if step[0] == "create":
            ledger.create(step[1], step[2])
        else:
            ledger.advance(step[1], step[2], step[3])
    except IllegalTransitionError as exc:
        return ("illegal", exc.request_id, exc.current, exc.target)
    except ValueError as exc:
        return ("duplicate", str(exc))
    return ("ok",)


def _observed(ledger) -> Dict[str, object]:
    records = ledger.records
    return {
        "created": ledger.created,
        "done": ledger.done,
        "shed": ledger.shed,
        "failed": ledger.failed,
        "open": ledger.open_requests,
        "transitions": ledger.transitions,
        "terminal_counts": ledger.terminal_counts,
        "as_dict": ledger.as_dict(),
        "ids": list(records),
        "len": len(records),
        "histories": [records[rid].history for rid in records],
    }


def run_ledger_steps(steps: List[Tuple], keep_records: bool) -> Dict[str, int]:
    """Drive the log and the reference through ``steps``; they must agree
    after every one.  Returns how often each outcome happened."""
    log = LifecycleLedger(keep_records=keep_records)
    reference = _DictLedger(keep_records=keep_records)
    census = {"ok": 0, "illegal": 0, "duplicate": 0, "unknown": 0}
    seen = set()
    for step in steps:
        outcome = _outcome(log, step)
        assert outcome == _outcome(reference, step), step
        census[outcome[0]] += 1
        if outcome[0] == "illegal" and step[1] not in seen:
            census["unknown"] += 1
        if step[0] == "create":
            seen.add(step[1])
        assert _observed(log) == _observed(reference)
        assert log.records == reference.records
        log.assert_accounted()
    return census


LEDGER_IDS = ["a", "b", "c"]
instants = st.floats(allow_nan=False)
ledger_step = st.one_of(
    st.tuples(st.just("create"), st.sampled_from(LEDGER_IDS), instants),
    st.tuples(
        st.just("advance"),
        st.sampled_from(LEDGER_IDS + ["ghost"]),
        st.sampled_from([*RequestState, ResponseStatus.SHED, ResponseStatus.FAILED]),
        instants,
    ),
)


class TestLedgerLogEquivalence:
    @pytest.mark.parametrize("keep_records", [True, False])
    @settings(max_examples=150, deadline=None)
    @given(steps=st.lists(ledger_step, max_size=40))
    def test_log_equals_the_dict_ledger(self, keep_records, steps):
        run_ledger_steps(steps, keep_records)

    #: All seven legal edges, illegal edges (one to a member of another
    #: enum with the same value), a duplicate create and an unknown id,
    #: with ``f`` left open at the end.
    PINNED = [
        ("create", "a", 0.0),
        ("advance", "a", RequestState.ADMITTED, 0.1),
        ("advance", "a", RequestState.RUNNING, 0.2),
        ("advance", "a", RequestState.DONE, 0.30000000000000004),
        ("create", "b", 1.0),
        ("advance", "b", RequestState.RUNNING, 1.1),  # illegal: skips ADMITTED
        ("advance", "b", RequestState.ADMITTED, 1.2),
        ("advance", "b", RequestState.RUNNING, 1.3),
        ("create", "c", 2.0),
        ("advance", "c", ResponseStatus.SHED, 2.4),  # illegal: another enum
        ("advance", "c", RequestState.SHED, 2.5),
        ("create", "c", 3.0),  # duplicate while kept, a new request if not
        ("advance", "ghost", RequestState.ADMITTED, 3.1),  # never created
        ("create", "g", 3.5),
        ("advance", "g", RequestState.FAILED, 3.6),
        ("create", "d", 4.0),
        ("advance", "d", RequestState.ADMITTED, 4.1),
        ("advance", "d", RequestState.FAILED, 4.2),
        ("create", "e", 5.0),
        ("advance", "e", RequestState.ADMITTED, 5.1),
        ("advance", "e", RequestState.RUNNING, 5.2),
        ("advance", "e", RequestState.FAILED, -0.0),
        ("create", "f", 6.0),
        ("advance", "f", RequestState.ADMITTED, 6.1),
        ("advance", "f", RequestState.RUNNING, 6.2),
    ]

    @pytest.mark.parametrize("keep_records", [True, False])
    def test_pinned_sequence_covers_every_edge(self, keep_records):
        census = run_ledger_steps(self.PINNED, keep_records)
        assert census["illegal"] >= 3 and census["unknown"] >= 1
        assert census["duplicate"] == (1 if keep_records else 0)
        log = LifecycleLedger(keep_records=keep_records)
        for step in self.PINNED:
            _outcome(log, step)
        legal = {
            f"{state.value}->{target.value}"
            for state, targets in LEGAL_TRANSITIONS.items()
            for target in targets
        }
        assert len(legal) == 7
        assert set(log.transitions) == legal

    def test_history_is_rebuilt_from_the_log(self):
        log = LifecycleLedger()
        for step in self.PINNED:
            _outcome(log, step)
        assert list(log.records) == ["a", "b", "c", "g", "d", "e", "f"]
        assert log.records["a"].history == [
            (RequestState.QUEUED, 0.0),
            (RequestState.ADMITTED, 0.1),
            (RequestState.RUNNING, 0.2),
            (RequestState.DONE, 0.30000000000000004),
        ]
        assert log.records["f"].state is RequestState.RUNNING
        assert not log.records["f"].terminal
        assert "ghost" not in log.records
        with pytest.raises(KeyError):
            log.records["ghost"]


def test_log_tracks_no_objects_per_request():
    """10,000 full lifecycles leave no new object for the garbage
    collector to walk; a dict of records would leave six each."""
    ledger = LifecycleLedger()
    ids = [f"r{i:05d}" for i in range(10_000)]
    gc.collect()
    before = len(gc.get_objects())
    for i, request_id in enumerate(ids):
        now = i * 0.001
        ledger.create(request_id, now)
        ledger.advance(request_id, RequestState.ADMITTED, now)
        ledger.advance(request_id, RequestState.RUNNING, now)
        ledger.advance(request_id, RequestState.DONE, now)
    gc.collect()
    assert len(gc.get_objects()) - before < 10
    assert len(ledger.records) == 10_000
    assert ledger.done == 10_000


# ----------------------------------------------------------------------
# Request/response vocabulary
# ----------------------------------------------------------------------


class TestApiMapping:
    def test_every_kind_has_an_admission_class(self):
        for kind in RequestKind:
            assert kind in REQUEST_CLASS_OF

    def test_kinds_by_class_partitions_the_vocabulary(self):
        seen = [k for kinds in KINDS_BY_CLASS.values() for k in kinds]
        assert sorted(seen, key=lambda k: k.value) == sorted(
            RequestKind, key=lambda k: k.value
        )
        for request_class, kinds in KINDS_BY_CLASS.items():
            for kind in kinds:
                assert REQUEST_CLASS_OF[kind] is request_class

    def test_mutations_are_registrations_delivery_is_upload(self):
        assert REQUEST_CLASS_OF[RequestKind.CREATE_TASK] is RequestClass.REGISTRATION
        assert REQUEST_CLASS_OF[RequestKind.DELIVER_DATA] is RequestClass.UPLOAD
        assert REQUEST_CLASS_OF[RequestKind.QUERY_DATA] is RequestClass.QUERY


# ----------------------------------------------------------------------
# Service loop
# ----------------------------------------------------------------------


class TestServiceLoop:
    def test_submit_ok_and_ledger_total(self):
        async def scenario():
            config = ServiceConfig(overload=OPEN_ADMISSION)
            async with SenseAidService(echo_handler, config) as service:
                responses = await asyncio.gather(
                    *(
                        service.submit(RequestKind.QUERY_DATA, {"index": i})
                        for i in range(20)
                    )
                )
            assert all(r.ok for r in responses)
            assert {r.result["index"] for r in responses} == set(range(20))
            assert all(r.latency_s >= 0.0 for r in responses)
            service.ledger.assert_accounted()
            assert service.ledger.done == 20
            assert service.ledger.open_requests == 0
            assert service.stats.ok == 20
            return service.scorecard()

        scorecard = run(scenario())
        assert scorecard["lifecycle"]["created"] == 20
        assert scorecard["by_kind"] == {"query_data": 20}
        assert scorecard["lifecycle"]["transitions"]["running->done"] == 20

    def test_submit_when_not_running_raises(self):
        async def scenario():
            service = SenseAidService(echo_handler)
            with pytest.raises(ServiceClosedError):
                await service.submit(RequestKind.QUERY_DATA)
            async with service:
                pass
            with pytest.raises(ServiceClosedError):
                await service.submit(RequestKind.QUERY_DATA)

        run(scenario())

    def test_handler_exception_becomes_failed_response(self):
        def broken(request):
            raise ValueError("kaboom")

        async def scenario():
            config = ServiceConfig(overload=OPEN_ADMISSION)
            async with SenseAidService(broken, config) as service:
                response = await service.submit(RequestKind.DELIVER_DATA)
            assert response.status is ResponseStatus.FAILED
            assert "ValueError" in response.error and "kaboom" in response.error
            assert service.ledger.failed == 1
            service.ledger.assert_accounted()

        run(scenario())

    def test_admission_shed_carries_retry_after(self):
        policy = OverloadPolicy(
            queue_capacity=4, service_rate_per_s=1.0, retry_after_base_s=2.0
        )

        async def scenario():
            config = ServiceConfig(overload=policy, consumers=1)
            async with SenseAidService(echo_handler, config) as service:
                responses = [
                    await service.submit(RequestKind.QUERY_DATA) for _ in range(8)
                ]
            shed = [r for r in responses if r.shed]
            ok = [r for r in responses if r.ok]
            # QUERY threshold = 4 * 0.5 = 2: two admitted, six shed.
            assert len(ok) == 2 and len(shed) == 6
            for response in shed:
                assert response.error == "overloaded"
                assert response.retry_after_s >= policy.retry_after_base_s
            assert service.stats.shed_admission == 6
            assert service.ledger.shed == 6
            service.ledger.assert_accounted()

        run(scenario())

    def test_queue_full_sheds_with_sized_hint_and_shutdown_resolves_all(self):
        """Fill the one-deep physical queue behind a slow request, then
        verify the overflow shed hint and that drain=False shutdown
        resolves every outstanding future (ledger stays total)."""

        async def scenario():
            config = ServiceConfig(
                queue_capacity=1,
                consumers=1,
                concurrency_slots=1,
                service_time_s=5.0,  # consumer parks here; never finishes
                overload=OPEN_ADMISSION,
            )
            service = SenseAidService(echo_handler, config)
            await service.start()
            first = asyncio.ensure_future(service.submit(RequestKind.QUERY_DATA))
            await asyncio.sleep(0.05)  # consumer picked `first`, queue empty
            second = asyncio.ensure_future(service.submit(RequestKind.QUERY_DATA))
            await asyncio.sleep(0.05)  # `second` occupies the only queue slot
            overflow = await service.submit(RequestKind.QUERY_DATA)
            assert overflow.shed
            expected_hint = (
                config.overload.retry_after_base_s
                + config.queue_capacity / config.overload.service_rate_per_s
            )
            assert overflow.retry_after_s == pytest.approx(expected_hint)
            assert service.stats.shed_queue_full == 1

            await service.stop(drain=False)
            first_response, second_response = await asyncio.gather(first, second)
            assert first_response.status is ResponseStatus.FAILED
            assert first_response.error == "cancelled"
            assert second_response.status is ResponseStatus.FAILED
            assert second_response.error == "shutdown"
            service.ledger.assert_accounted()
            assert service.ledger.open_requests == 0
            assert service.ledger.created == 3

        run(scenario())

    def test_stop_with_drain_finishes_queued_work(self):
        async def scenario():
            config = ServiceConfig(overload=OPEN_ADMISSION, consumers=2)
            service = SenseAidService(echo_handler, config)
            await service.start()
            pending = [
                asyncio.ensure_future(
                    service.submit(RequestKind.QUERY_DATA, {"index": i})
                )
                for i in range(10)
            ]
            await asyncio.sleep(0)  # let every submit pass the front door
            await service.stop(drain=True)
            responses = await asyncio.gather(*pending)
            assert all(r.ok for r in responses)
            assert service.ledger.done == 10
            service.ledger.assert_accounted()

        run(scenario())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(queue_capacity=0)
        with pytest.raises(ValueError):
            ServiceConfig(consumers=0)
        with pytest.raises(ValueError):
            ServiceConfig(concurrency_slots=0)
        with pytest.raises(ValueError):
            ServiceConfig(service_time_s=-1.0)


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------


class TestSchedule:
    def test_same_seed_same_schedule_and_signature(self):
        spec = LoadSpec(seed=11, n_requests=64)
        first, second = build_schedule(spec), build_schedule(spec)
        assert first == second
        assert trace_signature(first) == trace_signature(second)

    def test_different_seed_different_signature(self):
        sig_a = trace_signature(build_schedule(LoadSpec(seed=1, n_requests=64)))
        sig_b = trace_signature(build_schedule(LoadSpec(seed=2, n_requests=64)))
        assert sig_a != sig_b

    def test_offsets_strictly_increase(self):
        schedule = build_schedule(LoadSpec(seed=3, n_requests=50))
        offsets = [p.offset_s for p in schedule]
        assert offsets == sorted(offsets)

    def test_mix_weights_respected(self):
        spec = LoadSpec(
            seed=5,
            n_requests=100,
            mix={"upload": 1.0},  # only deliveries
        )
        schedule = build_schedule(spec)
        assert {p.kind for p in schedule} == {RequestKind.DELIVER_DATA}

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LoadSpec(mode="bursty")
        with pytest.raises(ValueError):
            LoadSpec(n_requests=0)
        with pytest.raises(ValueError):
            LoadSpec(rate_rps=0.0)
        with pytest.raises(ValueError):
            LoadSpec(mix={"upload": 0.0})

    def test_percentile_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50.0) == 50.0
        assert percentile(values, 99.0) == 99.0
        assert percentile(values, 100.0) == 100.0
        assert percentile([], 50.0) == 0.0
        with pytest.raises(ValueError):
            percentile(values, 101.0)


class TestLoadGeneratorDeterminism:
    def _run_with_consumers(self, consumers):
        async def scenario():
            config = ServiceConfig(consumers=consumers, overload=OPEN_ADMISSION)
            spec = LoadSpec(seed=21, n_requests=80, mode="open", rate_rps=4000.0)
            generator = LoadGenerator(spec, time_scale=0.01)
            async with SenseAidService(echo_handler, config) as service:
                report = await generator.run(service)
            service.ledger.assert_accounted()
            return report

        return run(scenario())

    def test_parallel_equals_serial(self):
        """Same seed → identical request trace and identical outcomes
        whether one consumer or eight drain the queue."""
        serial = self._run_with_consumers(1)
        parallel = self._run_with_consumers(8)
        assert serial.trace_sig == parallel.trace_sig
        assert serial.ok == parallel.ok == 80
        assert serial.shed == parallel.shed == 0

        def outcome_key(report):
            return [
                (o.index, o.kind.value, o.response.status.value, o.response.result)
                for o in report.outcomes
            ]

        assert outcome_key(serial) == outcome_key(parallel)

    def test_closed_loop_measures_throughput(self):
        async def scenario():
            config = ServiceConfig(overload=OPEN_ADMISSION)
            spec = LoadSpec(seed=9, n_requests=60, mode="closed", concurrency=4)
            generator = LoadGenerator(spec)
            async with SenseAidService(echo_handler, config) as service:
                report = await generator.run(service)
            assert report.ok == 60
            assert report.achieved_rps > 0.0
            payload = report.as_dict()
            assert payload["mode"] == "closed"
            assert payload["ok"] == 60
            assert payload["p99_latency_ms"] >= payload["p50_latency_ms"] >= 0.0

        run(scenario())

    def test_outcomes_cover_every_planned_request(self):
        """ok + shed + failed == n_requests even under heavy shedding —
        the generator-side mirror of the ledger totality check."""

        async def scenario():
            policy = OverloadPolicy(queue_capacity=8, service_rate_per_s=5.0)
            config = ServiceConfig(overload=policy)
            spec = LoadSpec(seed=13, n_requests=120, mode="open", rate_rps=5000.0)
            generator = LoadGenerator(spec, time_scale=0.001)
            async with SenseAidService(echo_handler, config) as service:
                report = await generator.run(service)
            assert report.ok + report.shed + report.failed == 120
            assert report.shed > 0  # the point of the tiny policy
            assert [o.index for o in report.outcomes] == list(range(120))
            service.ledger.assert_accounted()

        run(scenario())


class TestRetryAfterRoundTrip:
    def test_shed_hint_flows_through_retry_policy(self):
        """The server's Retry-After hint must round-trip: every retry
        wait the generator took equals ``shed_delay_s(attempt, hint)``
        for the hint that shed response carried."""
        retry_policy = RetryPolicy()

        async def scenario():
            policy = OverloadPolicy(
                queue_capacity=6, service_rate_per_s=20.0, retry_after_base_s=2.0
            )
            config = ServiceConfig(overload=policy)
            spec = LoadSpec(seed=17, n_requests=150, mode="open", rate_rps=8000.0)
            generator = LoadGenerator(
                spec, retry_policy=retry_policy, time_scale=0.001
            )
            async with SenseAidService(echo_handler, config) as service:
                report = await generator.run(service)
            service.ledger.assert_accounted()
            return report

        report = run(scenario())
        waits = [
            (attempt, hint, delay)
            for outcome in report.outcomes
            for attempt, (hint, delay) in enumerate(outcome.retry_waits, start=1)
        ]
        assert waits, "overload spec must force at least one retry"
        for attempt, hint, delay in waits:
            assert hint > 0.0  # every shed carried a hint
            assert delay == pytest.approx(retry_policy.shed_delay_s(attempt, hint))
            assert delay >= min(hint, RETRY_AFTER_CAP_S)

    def test_retry_count_bounded_by_policy(self):
        retry_policy = RetryPolicy(max_attempts=2)

        async def scenario():
            policy = OverloadPolicy(queue_capacity=4, service_rate_per_s=1.0)
            config = ServiceConfig(overload=policy)
            spec = LoadSpec(seed=23, n_requests=60, mode="open", rate_rps=8000.0)
            generator = LoadGenerator(
                spec, retry_policy=retry_policy, time_scale=0.001
            )
            async with SenseAidService(echo_handler, config) as service:
                report = await generator.run(service)
            assert max(o.attempts for o in report.outcomes) <= 2
            assert report.retries > 0

        run(scenario())


# ----------------------------------------------------------------------
# End to end against a real CrowdsensingAppServer backend
# ----------------------------------------------------------------------


class TestAppServerBackend:
    def test_four_call_api_end_to_end(self):
        sim, _, cas = build_world()
        backend = AppServerBackend(sim, cas, slots=4)

        async def scenario():
            config = ServiceConfig(overload=OPEN_ADMISSION)
            async with SenseAidService(backend.handle, config) as service:
                created = await service.submit(
                    RequestKind.CREATE_TASK, {"slot": 0, "density": 2}
                )
                assert created.ok and created.result["noop"] is False
                dup = await service.submit(RequestKind.CREATE_TASK, {"slot": 0})
                assert dup.ok and dup.result["noop"] is True
                assert dup.result["task_id"] == created.result["task_id"]

                delivered = await service.submit(
                    RequestKind.DELIVER_DATA,
                    {"slot": 0, "value": 1011.5, "device_hash": "devA"},
                )
                assert delivered.ok and delivered.result["accepted"] is True

                queried = await service.submit(RequestKind.QUERY_DATA, {"slot": 0})
                assert queried.ok
                assert queried.result["readings"] == 1
                assert queried.result["mean"] == pytest.approx(1011.5)

                updated = await service.submit(
                    RequestKind.UPDATE_TASK, {"slot": 0, "density": 3}
                )
                assert updated.ok and updated.result["spatial_density"] == 3

                deleted = await service.submit(RequestKind.DELETE_TASK, {"slot": 0})
                assert deleted.ok and deleted.result["noop"] is False
                vacant = await service.submit(RequestKind.DELETE_TASK, {"slot": 0})
                assert vacant.ok and vacant.result["noop"] is True

                stray = await service.submit(
                    RequestKind.DELIVER_DATA, {"slot": 0, "value": 1000.0}
                )
                assert stray.ok and stray.result["accepted"] is False
            service.ledger.assert_accounted()
            assert service.ledger.done == 8

        run(scenario())
        assert cas.readings == []  # delete purged the slot's data

    def test_loadgen_against_real_backend(self):
        sim, _, cas = build_world(seed=3)
        backend = AppServerBackend(sim, cas, slots=8)

        async def scenario():
            config = ServiceConfig(overload=OPEN_ADMISSION)
            spec = LoadSpec(seed=31, n_requests=100, mode="closed", concurrency=4)
            generator = LoadGenerator(spec)
            async with SenseAidService(backend.handle, config) as service:
                report = await generator.run(service)
            assert report.ok == 100
            assert report.failed == 0
            service.ledger.assert_accounted()

        run(scenario())
