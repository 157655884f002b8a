"""Runs workloads in fresh child processes and aggregates what they report.

One *iteration* is one child process: it imports the program, builds the
workload from its seed (timed as ``setup_s``, from process spawn to the
first timed call), runs the timed section once, checks the outputs and
writes one JSON result.  Iterations never overlap.  Each child gets a
pinned environment and a fresh temporary directory inside the checkout,
deleted when the child ends.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from typing import Dict, List, Optional

from benchmarks.e2e.trace import LAYERS, OTHER
from benchmarks.e2e.trace import TRACE_COUNTERS as TRACE_ONLY

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
TMP_ROOT = os.path.join(ROOT, ".e2e_tmp")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
#: A run must end within 180 s: one stuck iteration may not eat all of it.
CHILD_TIMEOUT_S = 120.0

#: End-to-end metrics: name -> (unit, better).  Bounds live in BENCHMARK.json.
#: Work per second is not among them: every workload does a fixed amount
#: of work per seed, so it would only restate ``wall_s``, and simulated
#: events per second would read worse for a change that needs fewer events.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
}

#: Exact counters: (name, better).  They repeat exactly for a seed, so
#: iterations and compared runs must agree on them to the unit.
COUNTERS = (
    ("sim.engine.events", "higher"),
    ("cellular.rrc.promotions", "lower"),
    ("cellular.rrc.transfers", "lower"),
    ("cellular.enodeb.refresh_positions.items", "lower"),
    ("cellular.enodeb.refresh_attachments.items", "lower"),
    ("cellular.enodeb.devices_within.max_items", "lower"),
    ("clientlib.uploads_in_tail", "higher"),
    ("clientlib.uploads_piggybacked", "higher"),
    ("clientlib.uploads_forced", "lower"),
    ("clientlib.uploads_retried", "lower"),
    ("core.server.edge_refresh.items", "lower"),
    ("core.server.qualified_devices.memo_hit", "higher"),
    ("core.server.requests_issued", "higher"),
    ("core.server.requests_scheduled", "higher"),
    ("core.wal.appends", "lower"),
    ("core.wal.fsyncs", "lower"),
    ("core.sharding.failovers", "lower"),
    ("storage.log_appends", "lower"),
    ("storage.docs_put", "lower"),
    ("storage.docs_scanned", "lower"),
    ("service.ledger.records", "lower"),
)

#: Service numbers that vary between runs of one seed: (name, unit).
DIAGNOSTICS = (
    ("service.slo_frac", "ratio"),
    ("service.queue_wait_us.p50", "us"),
    ("service.queue_wait_us.p99", "us"),
    ("service.loadgen.max_late_ms", "ms"),
)


def source_present() -> bool:
    return os.path.isdir(os.path.join(SRC, "repro"))


# ----------------------------------------------------------------------
# The child: one iteration
# ----------------------------------------------------------------------


def tail_percentile(samples: int) -> float:
    """The highest percentile with at least ten samples beyond it, capped at 99."""
    return min(99.0, 100.0 * (1.0 - 10.0 / samples)) if samples > 10 else 50.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def child(workload: str, seed: int, traced: bool, spawned_at: float, tmp_dir: str) -> dict:
    """Run one iteration in this process and return its result."""
    from benchmarks.e2e import trace, workloads

    observing = trace.Patcher()
    observer = trace.Observer()
    observer.install(observing)
    fsyncs = trace.count_fsyncs(observing)
    tracing = trace.Patcher()
    tracer = trace.Tracer() if traced else None
    frozen: Dict[str, float] = {}
    watch = workloads.Stopwatch()
    if tracer is not None:
        trace.install_tracer(tracer, tracing)

        def start() -> None:
            tracer.reset()
            tracer.enter(trace.ROOT)

        def stop() -> None:
            wall = tracer.exit()
            frozen.update(tracer.summary(wall))
            frozen.update(tracer.counters)
            tracing.restore()

        watch.on_start, watch.on_stop = start, stop
    try:
        run = workloads.WORKLOADS[workload](seed, tmp_dir, observer)
        setup_s = time.monotonic() - spawned_at
        outcome = run(watch)
    finally:
        tracing.restore()
        observing.restore()
    latencies = outcome.op_latencies_s
    tail_q = tail_percentile(len(latencies))
    counters = dict(outcome.counters)
    counters["core.wal.fsyncs"] = fsyncs()
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "setup_s": setup_s,
        "wall_s": outcome.wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latency_p50_ms": percentile(latencies, 50.0) * 1e3,
        "latency_tail_ms": percentile(latencies, tail_q) * 1e3,
        "tail_percentile": tail_q,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "digests": outcome.digests,
        "counters": counters,
        "checks": outcome.checks,
        "diagnostics": outcome.diagnostics,
        "trace": frozen or None,
    }


# ----------------------------------------------------------------------
# The parent: spawning and aggregating
# ----------------------------------------------------------------------


def child_env(workload: str, tmp_dir: str) -> Dict[str, str]:
    """The caller's environment with everything that steers the program pinned."""
    from benchmarks.e2e.workloads import DATASTORES

    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "PYTHON"))
    }
    env.update(
        {
            "PYTHONPATH": SRC,
            "PYTHONHASHSEED": "0",
            "REPRO_DATASTORE": DATASTORES[workload],
            "REPRO_DATASTORE_DIR": os.path.join(tmp_dir, "datastore"),
            "TMPDIR": tmp_dir,
        }
    )
    return env


def spawn(workload: str, seed: int, traced: bool) -> dict:
    """Run one iteration in a fresh child process; raises on failure."""
    tmp_dir = os.path.join(TMP_ROOT, uuid.uuid4().hex)
    os.makedirs(tmp_dir)
    result_path = os.path.join(tmp_dir, "result.json")
    try:
        spawned_at = time.monotonic()
        proc = subprocess.run(
            [
                sys.executable, "-m", "benchmarks.e2e", "child",
                "--workload", workload, "--seed", str(seed), "--traced", str(int(traced)),
                "--spawned-at", repr(spawned_at), "--tmp-dir", tmp_dir, "--result", result_path,
            ],
            cwd=ROOT,
            env=child_env(workload, tmp_dir),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{workload} child exited {proc.returncode}:\n"
                + proc.stderr.decode("utf-8", "replace")[-4000:]
            )
        with open(result_path, encoding="utf-8") as f:
            return json.load(f)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as f:
        return json.load(f)


def problems(results: List[dict], expected: Optional[dict]) -> List[str]:
    """Every correctness failure across one workload's iterations."""
    out = []
    for i, result in enumerate(results):
        for name, ok in result["checks"].items():
            if not ok:
                out.append(f"iteration {i}: check failed: {name}")
    first = results[0]
    for i, result in enumerate(results[1:], start=1):
        if result["digests"] != first["digests"]:
            out.append(f"iteration {i}: output digests differ from iteration 0")
        for name, value in counters_of(result).items():
            if counters_of(first).get(name, value) != value:
                out.append(f"iteration {i}: counter {name} = {value} != {counters_of(first)[name]}")
    if expected is not None and first["seed"] == expected["seed"]:
        if first["digests"] != expected["digests"]:
            out.append(f"digests {first['digests']} != expected {expected['digests']}")
    return out


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) == 1:
        return {"value": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(untraced: List[dict]) -> Dict[str, dict]:
    """Each metric's median and quartiles over the untraced iterations.

    The latency percentiles are taken per iteration first: pooled over
    iterations, one slow iteration would own the whole tail.
    """
    out = {}
    for name, (unit, _) in END_TO_END.items():
        values = [r[name] for r in untraced]
        out[name] = {"unit": unit, **quartiles(values), "values": values}
    return out


def counters_of(result: dict) -> Dict[str, int]:
    """Every exact counter of one iteration; 0 where the workload has none."""
    found = {**result["counters"], **(result["trace"] or {})}
    names = [name for name, _ in COUNTERS]
    if not result["traced"]:
        names = [name for name in names if name not in TRACE_ONLY]
    return {name: found.get(name, 0) for name in names}


def per_layer(untraced: List[dict], traced: List[dict]) -> Dict[str, float]:
    """Per-layer metrics: medians over traced iterations, exact counters,
    service diagnostics, and the tracing overhead."""
    out: Dict[str, float] = {}
    for layer in LAYERS + (OTHER,):
        for part in ("calls", "self_s", "share"):
            name = f"{layer}.{part}"
            out[name] = statistics.median(r["trace"][name] for r in traced)
    out.update(counters_of(traced[0]))
    for name, _ in DIAGNOSTICS:
        values = [r["diagnostics"].get(name, 0.0) for r in untraced + traced]
        out[name] = statistics.median(values)
    out["trace.coverage"] = statistics.median(r["trace"]["trace.coverage"] for r in traced)
    out["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    out["trace.overhead"] = out["trace.wall_s"] / statistics.median(
        r["wall_s"] for r in untraced
    ) - 1.0
    return out


def per_layer_spec() -> List[tuple]:
    """(name, unit, better) of every per-layer metric ``measure --trace 1`` reports.

    Layer self times are given as shares of ``trace.wall_s``, so a layer
    a workload never enters reads 0 as a ratio, not as a time.  For the
    same reason the service diagnostics that are times stay out.
    """
    spec = []
    for layer in LAYERS + (OTHER,):
        spec.append((f"{layer}.calls", "count", "lower"))
        spec.append((f"{layer}.share", "ratio", "lower"))
    spec += [(name, "count", better) for name, better in COUNTERS]
    spec.append(("service.slo_frac", "ratio", "higher"))
    spec += [
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead", "ratio", "lower"),
        ("trace.wall_s", "s", "lower"),
    ]
    return spec


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        # Temporary files live inside the checkout and fsync is counted,
        # not performed (see trace.count_fsyncs), so no tmpfs is needed.
        "tmpfs": False,
        "fsync": "counted",
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"
