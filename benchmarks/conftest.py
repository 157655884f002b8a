"""Benchmark configuration.

Each benchmark regenerates one paper table/figure.  Experiment runs are
seconds-long simulations, so every benchmark uses a single round — the
interesting output is the reproduced numbers (stored in
``benchmark.extra_info``), not the timing distribution.

Every benchmark also leaves a ``BENCH_*.json`` scorecard behind:
benchmarks that call :func:`write_artifact` themselves control the
payload, and any other benchmark that filled ``benchmark.extra_info``
gets an automatic scorecard named after the test.  Scorecards are
stamped with the git SHA and an artifact schema version so
``repro bench compare`` can gate regressions and refuse cross-schema
comparisons.
"""

from __future__ import annotations

import json
import os
import subprocess

import pytest

from repro.bench.compare import ARTIFACT_SCHEMA_VERSION
from repro.experiments.common import ScenarioConfig
from repro.storage import atomic_write

ARTIFACT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "artifacts")

#: Artifact stems written during this pytest session, so the automatic
#: scorecard fixture never shadows an explicit ``write_artifact`` call.
_written_this_session = []


def _git_sha() -> str:
    """Current commit, preferring CI's env over a subprocess."""
    for var in ("GITHUB_SHA", "CI_COMMIT_SHA"):
        sha = os.environ.get(var)
        if sha:
            return sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


@pytest.fixture(scope="session")
def scenario() -> ScenarioConfig:
    """The shared scenario every figure benchmark runs against."""
    return ScenarioConfig(seed=7)


def run_once(benchmark, fn, *args, **kwargs):
    """Run a figure generator exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def write_artifact(name: str, payload: dict) -> str:
    """Persist a benchmark scorecard as ``benchmarks/artifacts/<name>.json``.

    The payload is wrapped in a stamped envelope (artifact schema
    version + git SHA) and written with :func:`repro.storage.atomic_write`
    so a scorecard on disk is always complete.  Returns the path.
    """
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    path = os.path.join(ARTIFACT_DIR, f"{name}.json")
    envelope = {
        "name": name,
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "git_sha": _git_sha(),
        "metrics": payload,
    }
    atomic_write(path, json.dumps(envelope, indent=2).encode("utf-8"))
    _written_this_session.append(name)
    return path


@pytest.fixture(autouse=True)
def _auto_scorecard(request):
    """Write a ``BENCH_<test>.json`` scorecard for every benchmark that
    recorded ``extra_info`` but didn't write an artifact itself."""
    # Resolve the benchmark fixture during setup — by teardown time it
    # may already be finalized and unavailable via getfixturevalue.
    bench = (
        request.getfixturevalue("benchmark")
        if "benchmark" in request.fixturenames
        else None
    )
    before = len(_written_this_session)
    yield
    if bench is None:
        return
    if len(_written_this_session) != before:
        return  # the test wrote its own, richer scorecard
    extra_info = dict(bench.extra_info)
    if not extra_info:
        return
    stem = request.node.name.removeprefix("test_").replace("[", "_").rstrip("]")
    write_artifact(f"BENCH_{stem}", extra_info)
