"""Tests for the parallel experiment engine (repro.runner)."""

from __future__ import annotations

import os
import pickle

import pytest

from repro.core.config import SelectorWeights
from repro.experiments.common import ScenarioConfig
from repro.runner import (
    CACHE_SCHEMA_VERSION,
    ExperimentEngine,
    PointFailure,
    ResultCache,
    canonical_json,
    canonicalize,
    config_hash,
)


# -- module-level point functions (worker processes pickle these) ------


def _square(x):
    return x * x


def _mix(x, y=1.0):
    return {"sum": x + y, "product": x * y, "tag": f"{x}:{y}"}


def _fail_on(x, bad):
    if x == bad:
        raise ValueError(f"poisoned point {x}")
    return x + 100


def _die_on(x, bad):
    if x == bad:
        os._exit(13)  # hard worker death, not a Python exception
    return x + 200


class TestCanonicalization:
    def test_stable_across_calls(self):
        config = ScenarioConfig(seed=11)
        assert canonical_json(config) == canonical_json(ScenarioConfig(seed=11))

    def test_dataclasses_are_type_tagged(self):
        # Same field values in different dataclass types must not collide.
        assert config_hash(ScenarioConfig()) != config_hash(SelectorWeights())

    def test_field_change_changes_hash(self):
        assert config_hash(ScenarioConfig(seed=1)) != config_hash(
            ScenarioConfig(seed=2)
        )

    def test_tuple_and_list_canonicalize_alike(self):
        assert canonical_json([1, 2, 3]) == canonical_json((1, 2, 3))

    def test_dict_key_order_irrelevant(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(TypeError):
            canonicalize({1: "x"})

    def test_unknown_types_rejected(self):
        with pytest.raises(TypeError):
            canonicalize(object())


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        hit, _ = cache.get("k" * 64)
        assert not hit
        cache.put("k" * 64, {"value": 42})
        hit, value = cache.get("k" * 64)
        assert hit and value == {"value": 42}
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        with open(cache.path_for("bad"), "wb") as f:
            f.write(b"not a pickle")
        hit, _ = cache.get("bad")
        assert not hit

    def test_cross_schema_entry_invalidated(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        stale = [
            {"schema": CACHE_SCHEMA_VERSION + 1, "key": "old", "payload": 1},
            # A v2 entry could hold only a reference to a spilled object.
            {"schema": 2, "key": "old", "payload_ref": {"digest": "0" * 64}},
        ]
        for entry in stale:
            with open(cache.path_for("old"), "wb") as f:
                pickle.dump(entry, f)
            hit, _ = cache.get("old")
            assert not hit
            assert not os.path.exists(cache.path_for("old"))  # dropped, not shadowing

    def test_entry_in_wrong_slot_rejected(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("aaa", 1)
        os.rename(cache.path_for("aaa"), cache.path_for("bbb"))
        hit, _ = cache.get("bbb")
        assert not hit

    def test_clear_and_len(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("one", 1)
        cache.put("two", 2)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


class TestEngineSerial:
    def test_results_in_submission_order(self):
        engine = ExperimentEngine()
        values = engine.run_points(_square, [{"x": x} for x in (5, 3, 9, 1)])
        assert values == [25, 9, 81, 1]

    def test_failure_isolation(self):
        engine = ExperimentEngine()
        outcomes = engine.map(_fail_on, [{"x": x, "bad": 2} for x in range(4)])
        assert [o.ok for o in outcomes] == [True, True, False, True]
        assert "poisoned point 2" in outcomes[2].error
        assert [o.value for o in outcomes if o.ok] == [100, 101, 103]

    def test_run_points_raises_after_all_points_ran(self):
        engine = ExperimentEngine()
        with pytest.raises(PointFailure) as excinfo:
            engine.run_points(_fail_on, [{"x": x, "bad": 0} for x in range(3)])
        failure = excinfo.value
        assert len(failure.failed) == 1
        assert failure.failed[0].index == 0
        # The other points completed despite the failure.
        assert [o.value for o in failure.outcomes if o.ok] == [101, 102]

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            ExperimentEngine(workers=0)


class TestEngineCache:
    def test_second_run_is_all_hits(self, tmp_path):
        engine = ExperimentEngine(cache_dir=str(tmp_path))
        first = engine.run_points(_mix, [{"x": float(x)} for x in range(4)])
        assert engine.stats.executed == 4
        second = engine.run_points(_mix, [{"x": float(x)} for x in range(4)])
        assert second == first
        assert engine.stats.cached == 4
        assert engine.stats.executed == 4  # nothing recomputed

    def test_changed_kwargs_miss(self, tmp_path):
        engine = ExperimentEngine(cache_dir=str(tmp_path))
        engine.run_points(_mix, [{"x": 1.0}])
        engine.run_points(_mix, [{"x": 1.0, "y": 2.0}])
        assert engine.stats.executed == 2

    def test_failures_never_cached(self, tmp_path):
        engine = ExperimentEngine(cache_dir=str(tmp_path))
        engine.map(_fail_on, [{"x": 0, "bad": 0}])
        assert len(engine.cache) == 0

    def test_keys_are_content_addressed(self, tmp_path):
        key_a = ExperimentEngine.task_key(_mix, {"x": 1.0})
        key_b = ExperimentEngine.task_key(_mix, {"x": 1.0})
        key_c = ExperimentEngine.task_key(_square, {"x": 1.0})
        assert key_a == key_b
        assert key_a != key_c  # different point function, different key


class TestEngineParallel:
    def test_parallel_matches_serial(self):
        tasks = [{"x": float(x), "y": float(x % 3)} for x in range(8)]
        serial = ExperimentEngine(workers=1).run_points(_mix, tasks)
        parallel = ExperimentEngine(workers=4).run_points(_mix, tasks)
        assert parallel == serial

    def test_exception_isolation_in_pool(self):
        engine = ExperimentEngine(workers=2)
        outcomes = engine.map(_fail_on, [{"x": x, "bad": 1} for x in range(4)])
        assert [o.ok for o in outcomes] == [True, False, True, True]
        assert "poisoned point 1" in outcomes[1].error

    def test_worker_death_is_isolated(self):
        # One point hard-kills its worker (os._exit): the pool is
        # rebuilt, the poisoned point fails after its retry budget, and
        # every other point still completes.
        engine = ExperimentEngine(workers=2)
        outcomes = engine.map(_die_on, [{"x": x, "bad": 2} for x in range(5)])
        by_index = {o.index: o for o in outcomes}
        assert not by_index[2].ok
        assert "worker process died" in by_index[2].error
        for index in (0, 1, 3, 4):
            assert by_index[index].ok, by_index[index].error
            assert by_index[index].value == index + 200
        assert engine.stats.pool_rebuilds >= 1

    def test_cache_shared_between_modes(self, tmp_path):
        tasks = [{"x": float(x)} for x in range(4)]
        serial = ExperimentEngine(workers=1, cache_dir=str(tmp_path))
        first = serial.run_points(_mix, tasks)
        parallel = ExperimentEngine(workers=4, cache_dir=str(tmp_path))
        second = parallel.run_points(_mix, tasks)
        assert second == first
        assert parallel.stats.cached == 4 and parallel.stats.executed == 0
