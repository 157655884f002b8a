"""Benchmark: chaos soak scorecard.

Runs a bounded, fixed-seed soak — a handful of medium-tier episodes
with the bit-identical replay arm enabled — and one planted-bug drill
that exercises the whole failure path: the planted acked-upload loss
fires, the delta-debugging shrinker minimizes the fault plan, and the
serialized reproducer still fails when replayed from JSON.

The scorecard (``BENCH_soak.json``) gates on:

1. invariant pass rate 1.0 across the clean episodes (no acknowledged
   upload loss, idempotency holds, epochs are monotone, anti-entropy
   converges, WAL recovery is clean, replay is bit-identical);
2. the planted bug is detected every time and its reproducer shrinks
   to at most 25% of the original fault plan;
3. the shrunken reproducer round-trips through JSON and still fails.

The structural metrics are exact, and so is ``soak.signatures``: each
clean episode's structured-log signature, compared string for string
by ``repro bench compare``, so any change in the soak's behaviour
fails the gate.  The scorecard records no wall-clock time.
"""

from __future__ import annotations

from benchmarks.conftest import run_once, write_artifact
from repro.soak import (
    SoakHarness,
    build_reproducer,
    load_reproducer,
    replay_reproducer,
    shrink_episode,
    write_reproducer,
)

SEED = 23
EPISODES = 4
TIER = "medium"
N_DEVICES = 10
HORIZON_S = 1200.0

#: The planted drill uses the seed/episode pinned by tests/test_soak.py:
#: seed 7 episode 0 (medium) contains shard faults, so the lost-ack bug
#: fires deterministically.
PLANTED_SEED = 7
SHRINK_BUDGET = 48


def run_clean_soak(wal_root: str) -> dict:
    harness = SoakHarness(
        SEED,
        wal_root=wal_root,
        tier=TIER,
        n_devices=N_DEVICES,
        horizon_s=HORIZON_S,
        check_replay=True,
    )
    report = harness.run(EPISODES)
    doc = report.as_dict()
    return {
        "episodes": report.episodes,
        "invariant_pass_rate": report.invariant_pass_rate,
        "mean_plan_events": doc["mean_plan_events"],
        "replay_checked": sum(1 for r in report.results if r.replay_checked),
        "failures": len(report.failures),
        "signatures": [r.signature for r in report.results],
    }


def run_planted_drill(wal_root: str, replay_root: str, repro_path: str) -> dict:
    harness = SoakHarness(
        PLANTED_SEED,
        wal_root=wal_root,
        tier=TIER,
        n_devices=N_DEVICES,
        horizon_s=HORIZON_S,
        check_replay=False,
        planted_bug="lost_ack",
    )
    result = harness.run_episode(0)
    shrunk = shrink_episode(harness, result, max_runs=SHRINK_BUDGET)
    write_reproducer(repro_path, build_reproducer(harness, result, shrunk))
    violations, _, _ = replay_reproducer(load_reproducer(repro_path), replay_root)
    replay_codes = sorted({v.code for v in violations})
    return {
        "detected": not result.ok,
        "codes": sorted(result.codes()),
        "original_events": shrunk.original_events,
        "shrunk_events": shrunk.shrunk_events,
        "shrink_ratio": shrunk.ratio,
        "shrink_runs": shrunk.runs,
        "shrink_converged": shrunk.converged,
        "replay_fails": bool(violations),
        "replay_codes": replay_codes,
    }


def run_suite(root: str) -> dict:
    clean = run_clean_soak(f"{root}/clean")
    planted = run_planted_drill(
        f"{root}/planted", f"{root}/replay", f"{root}/reproducer.json"
    )
    return {
        "scenario": {
            "seed": SEED,
            "tier": TIER,
            "episodes": EPISODES,
            "devices": N_DEVICES,
            "horizon_s": HORIZON_S,
            "planted_seed": PLANTED_SEED,
            "shrink_budget": SHRINK_BUDGET,
        },
        "soak": clean,
        "planted": planted,
        "gates": {
            "min_invariant_pass_rate": 1.0,
            "max_shrink_ratio": 0.25,
        },
    }


def test_bench_soak(benchmark, tmp_path):
    results = run_once(benchmark, run_suite, str(tmp_path))
    benchmark.extra_info.update(results)
    write_artifact("BENCH_soak", results)

    soak, planted, gates = results["soak"], results["planted"], results["gates"]

    # 1. Every clean episode passes the full invariant suite, replay
    #    arm included.
    assert soak["episodes"] == EPISODES
    assert soak["failures"] == 0
    assert soak["replay_checked"] == EPISODES
    assert soak["invariant_pass_rate"] >= gates["min_invariant_pass_rate"]

    # 2. The planted bug is caught and shrinks below the gate.
    assert planted["detected"]
    assert "ACKED_UPLOAD_LOST" in planted["codes"]
    assert planted["shrunk_events"] >= 1
    assert planted["shrink_ratio"] <= gates["max_shrink_ratio"]

    # 3. The serialized reproducer still fails after a JSON round trip.
    assert planted["replay_fails"]
    assert "ACKED_UPLOAD_LOST" in planted["replay_codes"]
