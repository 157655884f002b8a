"""Tests for the benchmark-regression harness (repro.bench.compare)."""

from __future__ import annotations

import json
import os

import pytest

from repro.bench.compare import (
    ARTIFACT_SCHEMA_VERSION,
    TolerancePolicy,
    compare_dirs,
    flatten_metrics,
    load_artifact,
    update_baselines,
    write_markdown,
)
from repro.cli import main as cli_main

FIXTURES = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "bench_compare"
)


def _write(directory, name, metrics, *, schema=ARTIFACT_SCHEMA_VERSION, sha="abc123"):
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(
            {
                "name": name,
                "schema_version": schema,
                "git_sha": sha,
                "metrics": metrics,
            },
            f,
        )
    return path


@pytest.fixture()
def dirs(tmp_path):
    baseline = tmp_path / "baselines"
    current = tmp_path / "current"
    baseline.mkdir()
    current.mkdir()
    return str(baseline), str(current)


class TestLoading:
    def test_stamped_artifact_round_trips(self, dirs):
        baseline, _ = dirs
        path = _write(baseline, "BENCH_x", {"a": 1.0}, sha="deadbeef")
        artifact = load_artifact(path)
        assert artifact.schema_version == ARTIFACT_SCHEMA_VERSION
        assert artifact.git_sha == "deadbeef"
        assert artifact.metrics == {"a": 1.0}

    def test_unstamped_payload_is_rejected(self, dirs):
        """Every committed baseline and every scorecard the book writes
        is stamped; a bare payload is refused, not read as schema v1."""
        baseline, _ = dirs
        path = os.path.join(baseline, "BENCH_old.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"throughput": 123.0}, f)
        with pytest.raises(ValueError, match="not a stamped scorecard"):
            load_artifact(path)

    def test_flatten_nested_paths(self):
        flat = flatten_metrics({"a": {"b": [1, {"c": 2}]}, "d": "x"})
        assert flat == {"a.b[0]": 1, "a.b[1].c": 2, "d": "x"}


class TestCompare:
    def test_identical_runs_pass(self, dirs):
        baseline, current = dirs
        metrics = {"savings": {"mean": 93.3}, "count": 9}
        _write(baseline, "BENCH_a", metrics)
        _write(current, "BENCH_a", metrics)
        report = compare_dirs(baseline, current)
        assert report.passed
        assert report.artifacts_compared == 1

    def test_within_tolerance_drift_passes(self, dirs):
        baseline, current = dirs
        _write(baseline, "BENCH_a", {"mean": 100.0})
        _write(current, "BENCH_a", {"mean": 103.0})  # 3% < default 5%
        assert compare_dirs(baseline, current).passed

    def test_out_of_tolerance_fails(self, dirs):
        baseline, current = dirs
        _write(baseline, "BENCH_a", {"mean": 100.0})
        _write(current, "BENCH_a", {"mean": 110.0})
        report = compare_dirs(baseline, current)
        assert not report.passed
        assert report.failures[0].path == "mean"

    def test_cross_schema_comparison_refused(self, dirs):
        baseline, current = dirs
        _write(baseline, "BENCH_a", {"mean": 1.0}, schema=ARTIFACT_SCHEMA_VERSION)
        _write(current, "BENCH_a", {"mean": 1.0}, schema=ARTIFACT_SCHEMA_VERSION + 1)
        report = compare_dirs(baseline, current)
        assert not report.passed
        assert any("cross-schema" in p for p in report.problems)

    def test_vanished_metric_fails(self, dirs):
        baseline, current = dirs
        _write(baseline, "BENCH_a", {"mean": 1.0, "gone": 2.0})
        _write(current, "BENCH_a", {"mean": 1.0})
        report = compare_dirs(baseline, current)
        assert not report.passed
        assert any("disappeared" in p for p in report.problems)

    def test_new_metric_is_informational(self, dirs):
        baseline, current = dirs
        _write(baseline, "BENCH_a", {"mean": 1.0})
        _write(current, "BENCH_a", {"mean": 1.0, "extra": 5.0})
        report = compare_dirs(baseline, current)
        assert report.passed
        assert report.counts().get("new") == 1

    def test_missing_artifact_only_fails_when_strict(self, dirs):
        baseline, current = dirs
        _write(baseline, "BENCH_a", {"mean": 1.0})
        _write(baseline, "BENCH_b", {"mean": 2.0})
        _write(current, "BENCH_a", {"mean": 1.0})
        assert compare_dirs(baseline, current).passed
        assert not compare_dirs(baseline, current, strict_missing=True).passed

    def test_empty_baseline_dir_is_a_problem(self, dirs):
        baseline, current = dirs
        assert not compare_dirs(baseline, current).passed

    def test_non_numeric_leaves_require_exact_match(self, dirs):
        baseline, current = dirs
        _write(baseline, "BENCH_a", {"label": "complete"})
        _write(current, "BENCH_a", {"label": "basic"})
        assert not compare_dirs(baseline, current).passed


class TestTolerancePolicy:
    def test_skip_pattern_makes_metric_informational(self, dirs):
        baseline, current = dirs
        _write(baseline, "BENCH_a", {"wall_s": 1.0, "mean": 5.0})
        _write(current, "BENCH_a", {"wall_s": 40.0, "mean": 5.0})
        policy_path = os.path.join(baseline, "tolerances.json")
        with open(policy_path, "w", encoding="utf-8") as f:
            json.dump({"overrides": [{"pattern": "*:wall_s", "skip": True}]}, f)
        report = compare_dirs(baseline, current)  # picks up tolerances.json
        assert report.passed
        assert report.counts()["skipped"] == 1

    def test_abs_override_dominates_near_zero(self):
        policy = TolerancePolicy(
            rel=0.01, overrides=[{"pattern": "*:*.std", "abs": 2.0}]
        )
        rel, abs_tol, skip = policy.resolve("BENCH_a", "savings.std")
        assert (rel, abs_tol, skip) == (0.01, 2.0, False)

    def test_last_matching_override_wins(self):
        policy = TolerancePolicy(
            overrides=[
                {"pattern": "*", "rel": 0.5},
                {"pattern": "BENCH_a:*", "rel": 0.1},
            ]
        )
        assert policy.resolve("BENCH_a", "x")[0] == 0.1
        assert policy.resolve("BENCH_b", "x")[0] == 0.5


class TestCommittedFixture:
    """The committed fixture injects a 22-point savings regression."""

    def test_injected_regression_fails_the_gate(self):
        report = compare_dirs(
            os.path.join(FIXTURES, "baselines"), os.path.join(FIXTURES, "current")
        )
        assert not report.passed
        failing = {d.path for d in report.failures}
        assert failing == {"savings.complete_vs_pcs.mean"}
        # The timing metric drifted wildly but is skipped by policy,
        # and the std drift sits inside its absolute tolerance.
        assert report.counts()["skipped"] == 1

    def test_cli_exits_non_zero_and_writes_markdown(self, tmp_path, capsys):
        md_path = str(tmp_path / "delta.md")
        code = cli_main(
            [
                "bench",
                "compare",
                "--baseline",
                os.path.join(FIXTURES, "baselines"),
                "--current",
                os.path.join(FIXTURES, "current"),
                "--markdown",
                md_path,
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
        with open(md_path, "r", encoding="utf-8") as f:
            markdown = f.read()
        assert "savings.complete_vs_pcs.mean" in markdown
        assert "| artifact | metric |" in markdown


class TestMarkdownAndUpdate:
    def test_markdown_pass_report_has_breakdown(self, dirs):
        baseline, current = dirs
        _write(baseline, "BENCH_a", {"mean": 1.0})
        _write(current, "BENCH_a", {"mean": 1.0})
        report = compare_dirs(baseline, current)
        markdown = report.markdown()
        assert "PASS" in markdown
        assert "Per-artifact breakdown" in markdown

    def test_write_markdown_github_summary_env(self, dirs, tmp_path, monkeypatch):
        baseline, current = dirs
        _write(baseline, "BENCH_a", {"mean": 1.0})
        _write(current, "BENCH_a", {"mean": 1.0})
        summary_path = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary_path))
        write_markdown(compare_dirs(baseline, current), "GITHUB_STEP_SUMMARY")
        assert "Benchmark regression gate" in summary_path.read_text()

    def test_update_baselines_copies_artifacts(self, dirs):
        baseline, current = dirs
        _write(current, "BENCH_a", {"mean": 2.0})
        _write(current, "BENCH_b", {"mean": 3.0})
        copied = update_baselines(current_dir=current, baseline_dir=baseline)
        assert copied == ["BENCH_a", "BENCH_b"]
        assert load_artifact(os.path.join(baseline, "BENCH_a.json")).metrics == {
            "mean": 2.0
        }

    def test_cli_update_baselines(self, dirs, capsys):
        baseline, current = dirs
        _write(current, "BENCH_a", {"mean": 2.0})
        assert cli_main(
            ["bench", "update-baselines", "--baseline", baseline, "--current", current]
        ) == 0
        assert "updated BENCH_a" in capsys.readouterr().out

    def test_cli_update_baselines_empty_current_errors(self, dirs, capsys):
        baseline, current = dirs
        assert cli_main(
            ["bench", "update-baselines", "--baseline", baseline, "--current", current]
        ) == 2


class TestStampedWriter:
    def test_write_artifact_stamps_schema_and_sha(self, tmp_path, monkeypatch):
        from benchmarks import conftest as bench_conftest

        monkeypatch.setattr(bench_conftest, "ARTIFACT_DIR", str(tmp_path))
        monkeypatch.setenv("GITHUB_SHA", "ci-sha-1234")
        path = bench_conftest.write_artifact("BENCH_t", {"metric": 1.5})
        artifact = load_artifact(path)
        assert artifact.schema_version == ARTIFACT_SCHEMA_VERSION
        assert artifact.git_sha == "ci-sha-1234"
        assert artifact.metrics == {"metric": 1.5}
