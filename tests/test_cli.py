"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import (
    ALIASES,
    RUN_ORDER,
    available_experiments,
    build_parser,
    main,
    run_experiment,
)


class TestResolution:
    def test_all_run_order_names_resolve(self):
        for name in RUN_ORDER:
            # resolution must not raise
            parser_name = name
            assert parser_name in available_experiments()

    def test_aliases_point_at_real_experiments(self):
        for alias, target in ALIASES.items():
            assert target in RUN_ORDER

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestCommands:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in RUN_ORDER:
            assert name in out

    def test_run_fig1(self, capsys):
        assert main(["run", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "109" in out

    def test_run_fig6(self, capsys):
        assert main(["run", "fig6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out

    def test_run_alias(self, capsys):
        assert main(["run", "fig9"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out

    def test_run_unknown_fails(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_seed_flag_changes_results(self, capsys):
        main(["run", "fig9", "--seed", "7"])
        first = capsys.readouterr().out
        main(["run", "fig9", "--seed", "8"])
        second = capsys.readouterr().out
        assert first != second

    def test_parser_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])


class TestSoakCommand:
    def test_clean_soak_exits_zero(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert (
            main(
                [
                    "soak",
                    "--seed",
                    "7",
                    "--episodes",
                    "1",
                    "--tier",
                    "light",
                    "--no-replay-check",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "pass rate 100%" in out
        assert "episode 0" in out

    def test_failing_soak_writes_reproducer_and_replays(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        artifact_dir = tmp_path / "failures"
        assert (
            main(
                [
                    "soak",
                    "--seed",
                    "7",
                    "--episodes",
                    "1",
                    "--no-replay-check",
                    "--planted-bug",
                    "lost_ack",
                    "--artifact-dir",
                    str(artifact_dir),
                ]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "ACKED_UPLOAD_LOST" in out
        assert "shrunk" in out
        reproducers = list(artifact_dir.glob("*.json"))
        assert len(reproducers) == 1
        # The shrunken reproducer still fails under --replay.
        assert main(["soak", "--replay", str(reproducers[0])]) == 1
        replay_out = capsys.readouterr().out
        assert "VIOLATION ACKED_UPLOAD_LOST" in replay_out

    def test_replay_of_missing_file_fails_cleanly(self, capsys, tmp_path):
        assert main(["soak", "--replay", str(tmp_path / "nope.json")]) == 2
        err = capsys.readouterr().err
        assert "cannot load reproducer" in err

    def test_soak_rejects_unknown_tier(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["soak", "--tier", "apocalyptic"])


class TestServiceCommands:
    def test_loadgen_closed_loop_reports(self, capsys):
        assert main(["loadgen", "--requests", "40", "--mode", "closed"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        report = payload["report"]
        assert report["mode"] == "closed"
        assert report["n_requests"] == 40
        assert report["ok"] + report["shed"] + report["failed"] == 40
        assert payload["service"]["lifecycle"]["created"] >= 40
        assert payload["service"]["lifecycle"]["open"] == 0

    def test_loadgen_trace_is_seed_deterministic(self, capsys):
        import json

        sigs = []
        for _ in range(2):
            assert main(
                ["loadgen", "--requests", "25", "--mode", "closed", "--seed", "3"]
            ) == 0
            sigs.append(json.loads(capsys.readouterr().out)["report"]["trace_sig"])
        assert sigs[0] == sigs[1]

    def test_serve_roundtrips_json_lines(self, capsys, monkeypatch):
        import io
        import json
        import sys as _sys

        lines = "\n".join(
            [
                json.dumps({"kind": "create_task", "payload": {"slot": 0}}),
                json.dumps(
                    {"kind": "deliver_data", "payload": {"slot": 0, "value": 1011.0}}
                ),
                json.dumps({"kind": "query_data", "payload": {"slot": 0}}),
                "not json at all",
            ]
        )
        monkeypatch.setattr(_sys, "stdin", io.StringIO(lines + "\n"))
        assert main(["serve"]) == 0
        captured = capsys.readouterr()
        responses = [json.loads(line) for line in captured.out.splitlines() if line]
        assert len(responses) == 4
        rejected = [r for r in responses if r.get("status") == "rejected"]
        assert len(rejected) == 1  # the malformed line
        served = [r for r in responses if r.get("status") == "ok"]
        assert len(served) == 3
        query = next(r for r in served if r["kind"] == "query_data")
        assert query["request_id"].startswith("r")
        scorecard = json.loads(captured.err)
        assert scorecard["lifecycle"]["created"] == 3
        assert scorecard["lifecycle"]["done"] == 3


    def test_serve_commits_what_it_acknowledges(self, capsys, monkeypatch, tmp_path):
        """On sqlite, a query line carries its answer, and once ``main``
        returns the file holds every reading the service acknowledged."""
        import io
        import json
        import sqlite3
        import sys as _sys
        from contextlib import closing

        path = tmp_path / "serve.sqlite3"
        monkeypatch.setenv("REPRO_DATASTORE", f"sqlite:{path}")
        lines = [json.dumps({"kind": "create_task", "payload": {"slot": 0}})]
        lines += [
            json.dumps(
                {"kind": "deliver_data", "payload": {"slot": 0, "value": 1000.0 + i}}
            )
            for i in range(10)
        ]
        lines.append(json.dumps({"kind": "query_data", "payload": {"slot": 0}}))
        monkeypatch.setattr(_sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["serve"]) == 0
        responses = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["status"] for r in responses] == ["ok"] * 12
        query = next(r for r in responses if r["kind"] == "query_data")
        assert query["result"]["readings"] == 10
        assert query["result"]["mean"] == 1004.5
        with closing(sqlite3.connect(path)) as conn:
            assert conn.execute("SELECT COUNT(*) FROM logs").fetchone()[0] == 10

    def test_serve_answers_each_line_while_stdin_is_open(self):
        """A request is answered as its line arrives, not at EOF."""
        import json
        import os
        import select
        import subprocess
        import sys as _sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        line = json.dumps({"kind": "query_data", "payload": {"slot": 0}}) + "\n"
        with subprocess.Popen(
            [_sys.executable, "-m", "repro", "serve"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        ) as proc:
            try:
                proc.stdin.write(line.encode())
                proc.stdin.flush()
                ready, _, _ = select.select([proc.stdout], [], [], 10.0)
                assert ready, "no response within 10 s while stdin was open"
                response = json.loads(proc.stdout.readline())
                _, err = proc.communicate(timeout=60)  # closes stdin: EOF
            finally:
                if proc.poll() is None:
                    proc.kill()
        assert response["kind"] == "query_data"
        assert response["status"] == "ok"
        assert proc.returncode == 0
        assert json.loads(err)["lifecycle"]["done"] == 1


class TestStorageCheckCommand:
    def test_memory_backend_passes(self, capsys):
        assert main(["storage", "check", "--spec", "memory"]) == 0
        assert "passed" in capsys.readouterr().out

    def test_sqlite_backend_passes(self, capsys):
        assert main(["storage", "check", "--spec", "sqlite"]) == 0
        assert "passed" in capsys.readouterr().out

    def test_env_spec_is_the_default(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_DATASTORE", "sqlite")
        assert main(["storage", "check"]) == 0
        assert "'sqlite'" in capsys.readouterr().out

    def test_bad_spec_exits_2(self, capsys):
        assert main(["storage", "check", "--spec", "bogus"]) == 2
        assert "bad datastore spec" in capsys.readouterr().err
