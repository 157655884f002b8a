"""Parallel-equals-serial guarantees for real experiment sweeps.

The acceptance bar for the engine: a seeded sweep run with four
workers produces *byte-identical* merged artifacts to a serial run,
and per-replication metrics match exactly — no float drift, no
reordering, no seed coupling to worker identity.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import exp1_radius, robustness, weight_sweep
from repro.experiments.common import ScenarioConfig
from repro.runner import ExperimentEngine

RADII = (100.0, 300.0)


def _exp1_artifact(result) -> bytes:
    """The merged analysis artifact of an exp1 sweep, serialized."""
    return json.dumps(
        {
            "fig7": result.fig7_rows(),
            "fig8": result.fig8_rows(),
            "savings": [point.savings_row() for point in result.points],
            "fairness_counts": sorted(result.fairness_counts.items()),
            "fig9": [[t, list(sel)] for t, sel in result.fig9_matrix()],
        },
        sort_keys=True,
    ).encode("utf-8")


class TestSweepArtifactsBitIdentical:
    def test_exp1_four_workers_byte_identical_to_serial(self):
        config = ScenarioConfig(seed=7)
        serial = exp1_radius.run(config, radii_m=RADII)
        parallel = exp1_radius.run(
            config, radii_m=RADII, engine=ExperimentEngine(workers=4)
        )
        assert _exp1_artifact(parallel) == _exp1_artifact(serial)

    def test_robustness_per_replication_metrics_identical(self):
        seeds = (7, 8, 9, 10)
        serial_worlds = ExperimentEngine(workers=1).run_points(
            robustness._seed_savings, [{"seed": s} for s in seeds]
        )
        parallel_worlds = ExperimentEngine(workers=4).run_points(
            robustness._seed_savings, [{"seed": s} for s in seeds]
        )
        assert parallel_worlds == serial_worlds  # exact float equality, in order
        assert robustness.run(seeds) == robustness.run(
            seeds, engine=ExperimentEngine(workers=4)
        )

    def test_weight_sweep_identical_and_cache_replays(self, tmp_path):
        config = ScenarioConfig(seed=7)
        sweep = weight_sweep.DEFAULT_SWEEP[:2]
        serial = weight_sweep.run(config, sweep, worlds=2)
        engine = ExperimentEngine(workers=4, cache_dir=str(tmp_path))
        parallel = weight_sweep.run(config, sweep, worlds=2, engine=engine)
        assert parallel == serial
        # A rerun against the same cache recomputes nothing and still
        # merges the same result.
        replay_engine = ExperimentEngine(workers=4, cache_dir=str(tmp_path))
        replay = weight_sweep.run(config, sweep, worlds=2, engine=replay_engine)
        assert replay == serial
        assert replay_engine.stats.executed == 0
        assert replay_engine.stats.cached == len(sweep) * 2


def _metrics_for_seed(seed: int) -> dict:
    """A cheap deterministic stand-in for one replication's metrics."""
    value = float(seed % 1009)
    return {"seed": seed, "energy": value * 1.5 + 0.125, "points": seed % 17}


class TestParallelSerialProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        seeds=st.lists(
            st.integers(min_value=0, max_value=2**32), min_size=1, max_size=8
        )
    )
    def test_engine_order_and_values_match_for_any_task_list(self, seeds):
        tasks = [{"seed": seed} for seed in seeds]
        serial = ExperimentEngine(workers=1).run_points(_metrics_for_seed, tasks)
        parallel = ExperimentEngine(workers=4).run_points(_metrics_for_seed, tasks)
        assert parallel == serial
