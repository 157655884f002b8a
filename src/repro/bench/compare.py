"""Compare benchmark scorecards against committed baselines.

Loads two sets of ``BENCH_*.json`` artifacts — a fresh run and the
baselines under ``benchmarks/baselines/`` — flattens each scorecard's
metrics to dotted paths, and applies a per-metric tolerance policy.
The result is a pass/fail report plus a markdown delta table, which
``repro bench compare`` prints and the CI ``bench-regression`` job
posts to the job summary.

Tolerance policy (``tolerances.json`` next to the baselines)::

    {
      "default": {"rel": 0.05, "abs": 1e-09},
      "overrides": [
        {"pattern": "*:*wall_s*", "skip": true},
        {"pattern": "BENCH_scalability:*throughput*", "skip": true},
        {"pattern": "BENCH_robustness*:*std*", "abs": 2.0}
      ]
    }

Patterns are ``fnmatch`` globs over ``<artifact>:<metric.path>``; the
last matching override wins.  ``skip: true`` makes a metric
informational (machine-dependent timings); a relative tolerance is a
fraction of the baseline magnitude; the absolute tolerance dominates
near zero.  Cross-schema comparisons are refused: a scorecard written
under a different artifact schema version fails the gate outright
rather than producing a nonsense delta table.
"""

from __future__ import annotations

import fnmatch
import json
import math
import os
import shutil
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Version of the on-disk scorecard envelope, which stamps name, git
#: SHA and this schema version so the regression gate can refuse stale
#: comparisons.  Bare, unstamped payloads (the old v1) are refused.
ARTIFACT_SCHEMA_VERSION = 2

DEFAULT_REL_TOL = 0.05
DEFAULT_ABS_TOL = 1e-9


@dataclass(frozen=True)
class Artifact:
    """One loaded ``BENCH_*.json`` scorecard."""

    name: str
    schema_version: int
    git_sha: str
    metrics: Dict[str, Any]


@dataclass(frozen=True)
class MetricDelta:
    """One metric's baseline/current comparison."""

    artifact: str
    path: str
    baseline: Any
    current: Any
    status: str  # ok | fail | skipped | missing | new
    allowed: str = ""
    note: str = ""

    @property
    def delta(self) -> Optional[float]:
        if isinstance(self.baseline, (int, float)) and isinstance(
            self.current, (int, float)
        ) and not isinstance(self.baseline, bool) and not isinstance(
            self.current, bool
        ):
            return float(self.current) - float(self.baseline)
        return None


@dataclass
class TolerancePolicy:
    """Per-metric tolerances resolved by glob pattern."""

    rel: float = DEFAULT_REL_TOL
    abs: float = DEFAULT_ABS_TOL
    overrides: List[Dict[str, Any]] = field(default_factory=list)

    @classmethod
    def load(cls, path: str) -> "TolerancePolicy":
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
        default = raw.get("default", {})
        return cls(
            rel=float(default.get("rel", DEFAULT_REL_TOL)),
            abs=float(default.get("abs", DEFAULT_ABS_TOL)),
            overrides=list(raw.get("overrides", [])),
        )

    def resolve(self, artifact: str, path: str) -> Tuple[float, float, bool]:
        """``(rel, abs, skip)`` for one metric; last matching override wins."""
        rel, abs_tol, skip = self.rel, self.abs, False
        target = f"{artifact}:{path}"
        for override in self.overrides:
            pattern = override.get("pattern", "")
            if fnmatch.fnmatchcase(target, pattern):
                rel = float(override.get("rel", rel))
                abs_tol = float(override.get("abs", abs_tol))
                skip = bool(override.get("skip", skip))
        return rel, abs_tol, skip


@dataclass
class CompareReport:
    """Everything the gate decided, ready to render."""

    baseline_dir: str
    current_dir: str
    deltas: List[MetricDelta] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    artifacts_compared: int = 0

    @property
    def failures(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.status == "fail"]

    @property
    def passed(self) -> bool:
        return not self.failures and not self.problems

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for delta in self.deltas:
            out[delta.status] = out.get(delta.status, 0) + 1
        return out

    def summary(self) -> str:
        counts = self.counts()
        lines = [
            f"benchmark regression gate: {'PASS' if self.passed else 'FAIL'}",
            f"  artifacts compared: {self.artifacts_compared}",
            f"  metrics: {counts.get('ok', 0)} ok, {counts.get('fail', 0)} failed, "
            f"{counts.get('skipped', 0)} skipped, {counts.get('new', 0)} new, "
            f"{counts.get('missing', 0)} missing",
        ]
        for problem in self.problems:
            lines.append(f"  problem: {problem}")
        for delta in self.failures:
            lines.append(
                f"  FAIL {delta.artifact}:{delta.path} "
                f"baseline={_fmt(delta.baseline)} current={_fmt(delta.current)} "
                f"(allowed {delta.allowed})"
            )
        return "\n".join(lines)

    def markdown(self) -> str:
        counts = self.counts()
        verdict = "✅ PASS" if self.passed else "❌ FAIL"
        lines = [
            "## Benchmark regression gate",
            "",
            f"**{verdict}** — {self.artifacts_compared} artifacts, "
            f"{counts.get('ok', 0)} metrics ok, {counts.get('fail', 0)} failed, "
            f"{counts.get('skipped', 0)} skipped (informational), "
            f"{counts.get('new', 0)} new, {counts.get('missing', 0)} missing.",
            "",
        ]
        for problem in self.problems:
            lines.append(f"- ⚠️ {problem}")
        if self.problems:
            lines.append("")
        rows = self.failures + [d for d in self.deltas if d.status == "missing"]
        if rows:
            lines += [
                "| artifact | metric | baseline | current | Δ | allowed | status |",
                "|---|---|---:|---:|---:|---|---|",
            ]
            for d in rows:
                delta = d.delta
                lines.append(
                    f"| {d.artifact} | `{d.path}` | {_fmt(d.baseline)} | "
                    f"{_fmt(d.current)} | "
                    f"{_fmt(delta) if delta is not None else '—'} | "
                    f"{d.allowed or '—'} | {d.status} |"
                )
            lines.append("")
        by_artifact: Dict[str, Dict[str, int]] = {}
        for d in self.deltas:
            bucket = by_artifact.setdefault(d.artifact, {})
            bucket[d.status] = bucket.get(d.status, 0) + 1
        lines += [
            "<details><summary>Per-artifact breakdown</summary>",
            "",
            "| artifact | ok | failed | skipped | new | missing |",
            "|---|---:|---:|---:|---:|---:|",
        ]
        for name in sorted(by_artifact):
            b = by_artifact[name]
            lines.append(
                f"| {name} | {b.get('ok', 0)} | {b.get('fail', 0)} | "
                f"{b.get('skipped', 0)} | {b.get('new', 0)} | {b.get('missing', 0)} |"
            )
        lines += ["", "</details>", ""]
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def load_artifact(path: str) -> Artifact:
    """Load one stamped scorecard; raises ValueError on a bare payload."""
    with open(path, "r", encoding="utf-8") as f:
        payload = json.load(f)
    if not (
        isinstance(payload, dict)
        and "schema_version" in payload
        and "metrics" in payload
    ):
        raise ValueError(
            f"{path}: not a stamped scorecard (no schema_version/metrics); "
            "regenerate it"
        )
    return Artifact(
        name=payload.get("name", os.path.splitext(os.path.basename(path))[0]),
        schema_version=int(payload["schema_version"]),
        git_sha=str(payload.get("git_sha", "unknown")),
        metrics=payload["metrics"],
    )


def load_artifacts(directory: str) -> Dict[str, Artifact]:
    """All ``BENCH_*.json`` scorecards in ``directory``, keyed by stem."""
    out: Dict[str, Artifact] = {}
    if not os.path.isdir(directory):
        return out
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("BENCH_") and entry.endswith(".json"):
            stem = os.path.splitext(entry)[0]
            out[stem] = load_artifact(os.path.join(directory, entry))
    return out


def flatten_metrics(metrics: Any, prefix: str = "") -> Dict[str, Any]:
    """Leaf values of a nested scorecard keyed by dotted path."""
    if isinstance(metrics, dict):
        out: Dict[str, Any] = {}
        for key in metrics:
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_metrics(metrics[key], path))
        return out
    if isinstance(metrics, (list, tuple)):
        out = {}
        for i, item in enumerate(metrics):
            out.update(flatten_metrics(item, f"{prefix}[{i}]"))
        return out
    return {prefix or "value": metrics}


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _compare_leaf(
    name: str,
    path: str,
    base: Any,
    cur: Any,
    policy: TolerancePolicy,
) -> MetricDelta:
    rel, abs_tol, skip = policy.resolve(name, path)
    if skip:
        return MetricDelta(name, path, base, cur, "skipped")
    if _is_number(base) and _is_number(cur):
        if math.isnan(float(base)) and math.isnan(float(cur)):
            return MetricDelta(name, path, base, cur, "ok")
        allowed = max(abs_tol, rel * abs(float(base)))
        status = "ok" if abs(float(cur) - float(base)) <= allowed else "fail"
        return MetricDelta(
            name, path, base, cur, status,
            allowed=f"±{allowed:.6g} (rel {rel:g}, abs {abs_tol:g})",
        )
    status = "ok" if base == cur else "fail"
    return MetricDelta(name, path, base, cur, status, allowed="exact match")


def compare_artifact(
    baseline: Artifact, current: Artifact, policy: TolerancePolicy
) -> Tuple[List[MetricDelta], List[str]]:
    """All metric deltas for one artifact pair, plus schema problems."""
    if baseline.schema_version != current.schema_version:
        return [], [
            f"{baseline.name}: refusing cross-schema comparison "
            f"(baseline schema v{baseline.schema_version}, "
            f"current v{current.schema_version}) — regenerate the baseline"
        ]
    base_flat = flatten_metrics(baseline.metrics)
    cur_flat = flatten_metrics(current.metrics)
    deltas = []
    for path in base_flat:
        if path in cur_flat:
            deltas.append(
                _compare_leaf(
                    baseline.name, path, base_flat[path], cur_flat[path], policy
                )
            )
        else:
            deltas.append(
                MetricDelta(
                    baseline.name, path, base_flat[path], None, "missing",
                    note="metric present in baseline but absent from current run",
                )
            )
    for path in cur_flat:
        if path not in base_flat:
            deltas.append(MetricDelta(baseline.name, path, None, cur_flat[path], "new"))
    return deltas, []


def compare_dirs(
    baseline_dir: str,
    current_dir: str,
    *,
    tolerances_path: Optional[str] = None,
    strict_missing: bool = False,
) -> CompareReport:
    """Compare every baseline scorecard against the current run.

    Artifacts present only in the current run are informational (new
    benchmarks land before their baselines); baseline artifacts the
    current run did not produce are a problem only under
    ``strict_missing`` — the PR gate reruns just the figure book, not
    the chaos/scalability tiers.
    """
    report = CompareReport(baseline_dir=baseline_dir, current_dir=current_dir)
    baselines = load_artifacts(baseline_dir)
    currents = load_artifacts(current_dir)
    if not baselines:
        report.problems.append(f"no BENCH_*.json baselines found in {baseline_dir}")
        return report
    if tolerances_path is None:
        candidate = os.path.join(baseline_dir, "tolerances.json")
        tolerances_path = candidate if os.path.isfile(candidate) else None
    policy = (
        TolerancePolicy.load(tolerances_path)
        if tolerances_path
        else TolerancePolicy()
    )
    for stem in sorted(baselines):
        if stem not in currents:
            message = f"baseline artifact {stem} was not produced by the current run"
            if strict_missing:
                report.problems.append(message)
            continue
        deltas, problems = compare_artifact(baselines[stem], currents[stem], policy)
        report.deltas.extend(deltas)
        report.problems.extend(problems)
        report.artifacts_compared += 1
    # Metric-level "missing" entries fail the gate: a metric silently
    # vanishing from a scorecard is exactly the regression class the
    # gate exists to catch.
    for delta in report.deltas:
        if delta.status == "missing":
            report.problems.append(
                f"{delta.artifact}:{delta.path} disappeared from the current scorecard"
            )
    return report


def write_markdown(report: CompareReport, dest: str) -> None:
    """Write the delta table to a file, stdout (``-``), or the CI job
    summary (``GITHUB_STEP_SUMMARY``)."""
    text = report.markdown()
    if dest == "-":
        sys.stdout.write(text)
        return
    if dest == "GITHUB_STEP_SUMMARY":
        dest = os.environ.get("GITHUB_STEP_SUMMARY", "")
        if not dest:
            sys.stdout.write(text)
            return
        with open(dest, "a", encoding="utf-8") as f:
            f.write(text)
        return
    with open(dest, "w", encoding="utf-8") as f:
        f.write(text)


def update_baselines(*, current_dir: str, baseline_dir: str) -> List[str]:
    """Copy the current run's scorecards over the baselines; returns
    the artifact stems copied (sorted)."""
    copied = []
    if not os.path.isdir(current_dir):
        return copied
    os.makedirs(baseline_dir, exist_ok=True)
    for entry in sorted(os.listdir(current_dir)):
        if entry.startswith("BENCH_") and entry.endswith(".json"):
            shutil.copyfile(
                os.path.join(current_dir, entry), os.path.join(baseline_dir, entry)
            )
            copied.append(os.path.splitext(entry)[0])
    return copied
