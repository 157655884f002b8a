"""Tests of the end-to-end benchmark harness, on tiny in-test sizes.

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from benchmarks.e2e import harness, trace, workloads
from benchmarks.e2e.compare import verdict
from repro.core.config import OverloadPolicy
from repro.service import LoadSpec, SenseAidService, ServiceConfig, build_schedule

#: Module constants shrunk per workload so each iteration takes well under a second.
TINY = {
    "figbook": {"FIGBOOK_SCENARIOS": 1},
    "city2k": {"CITY_DEVICES": 120, "CITY_DURATION_S": 900.0},
    "durable": {"DURABLE_DEVICES": 30, "DURABLE_DENSITY": 3, "DURABLE_DURATION_S": 1500.0},
    "svc": {"SVC_CLOSED_REQUESTS": 300, "SVC_OPEN_REQUESTS": 100},
}


def _iteration(monkeypatch, tmp_path, name: str, traced: bool) -> dict:
    for constant, value in TINY[name].items():
        monkeypatch.setattr(workloads, constant, value)
    tmp_dir = tmp_path / ("traced" if traced else "untraced")
    tmp_dir.mkdir()
    monkeypatch.setenv("REPRO_DATASTORE", workloads.DATASTORES[name])
    monkeypatch.setenv("REPRO_DATASTORE_DIR", str(tmp_dir / "datastore"))
    result = harness.child(name, workloads.DEFAULT_SEEDS[name], traced, 0.0, str(tmp_dir))
    return json.loads(json.dumps(result))


@pytest.mark.parametrize("name", sorted(TINY))
def test_tracing_does_not_perturb_outputs(monkeypatch, tmp_path, name):
    untraced = _iteration(monkeypatch, tmp_path, name, traced=False)
    traced = _iteration(monkeypatch, tmp_path, name, traced=True)
    assert all(untraced["checks"].values()), untraced["checks"]
    assert all(traced["checks"].values()), traced["checks"]
    assert traced["digests"] == untraced["digests"]
    assert harness.problems([untraced, traced], None) == []
    spans = traced["trace"]
    layer_self = sum(spans[f"{layer}.self_s"] for layer in trace.LAYERS + (trace.OTHER,))
    assert 0.0 < spans["trace.coverage"] <= 1.0
    assert layer_self <= traced["wall_s"] * (1 + 1e-9)


def test_patches_are_restored(monkeypatch, tmp_path):
    from repro.sim.engine import Simulator
    from repro.sim.events import Event

    before = (Simulator.run, Event.fire, os.fsync)
    _iteration(monkeypatch, tmp_path, "city2k", traced=True)
    assert (Simulator.run, Event.fire, os.fsync) == before


def test_nested_spans_self_time():
    now = [0.0]
    tracer = trace.Tracer(clock=lambda: now[0])

    def at(t):
        now[0] = t

    tracer.enter("root")
    at(1.0)
    tracer.enter("a")
    at(2.0)
    tracer.enter("b")
    at(5.0)
    inclusive_b = tracer.exit()
    at(6.0)
    tracer.enter("b")
    at(7.0)
    tracer.exit()
    at(8.0)
    inclusive_a = tracer.exit()
    at(10.0)
    wall = tracer.exit()
    assert (inclusive_b, inclusive_a, wall) == (3.0, 7.0, 10.0)
    assert tracer.self_s == {"b": 4.0, "a": 3.0, "root": 3.0}
    assert tracer.self_s["a"] <= inclusive_a
    assert sum(tracer.self_s.values()) <= wall
    assert tracer.calls == {"b": 2, "a": 1, "root": 1}


def test_open_loop_counts_shed_as_slo_misses():
    def echo(request):
        return request.payload["index"]

    # Admission capacity of one request and almost no drain: the burst is shed.
    config = ServiceConfig(
        consumers=1,
        concurrency_slots=1,
        overload=OverloadPolicy(
            queue_capacity=1, service_rate_per_s=1e-3, breaker_threshold=1000
        ),
    )
    schedule = build_schedule(LoadSpec(seed=3, n_requests=40, mode="open", rate_rps=1e6))
    service = SenseAidService(echo, config)

    async def drive():
        async with service:
            return await workloads.open_loop(service, schedule, slo_s=60.0)

    result = asyncio.run(drive())
    shed = service.stats.shed_admission + service.stats.shed_queue_full
    assert shed > 0
    assert result["not_ok"] == shed
    assert result["slo_frac"] == (len(schedule) - shed) / len(schedule)
    service.ledger.assert_accounted()


def test_benchmark_json_matches_harness():
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == harness.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        harness.per_layer_spec()
    )


def test_compare_verdicts():
    def side(*values):
        return {"values": list(values), **harness.quartiles(list(values))}

    a = side(10.0, 10.1, 10.2, 10.3, 10.4)
    assert verdict(a, side(9.0, 9.1, 9.2, 9.3, 9.4), "lower", 0.1) == "better"
    assert verdict(a, side(9.0, 9.1, 9.2, 9.3, 9.4), "higher", 0.1) == "ok"
    assert verdict(a, side(11.0, 11.1, 11.2, 11.3, 11.4), "higher", 0.1) == "better"
    assert verdict(a, side(12.0, 12.1, 12.2, 12.3, 12.4), "lower", 0.1) == "regressed"
    assert verdict(a, side(5.0, 8.0, 10.0, 12.0, 15.0), "lower", 0.1) == "unresolved"


def test_tail_percentile_keeps_ten_samples_beyond():
    for samples in (65, 121, 130, 50_000):
        q = harness.tail_percentile(samples)
        assert samples * (1 - q / 100.0) >= 10 - 1e-9
    assert harness.tail_percentile(50_000) == 99.0
