"""Command-line interface: run any paper experiment from the shell.

Usage::

    python -m repro list
    python -m repro run fig7           # one figure
    python -m repro run exp1           # a whole experiment (figs 7-9)
    python -m repro run all            # everything, Table 2 last
    python -m repro run table2 --seed 11
    python -m repro run exp1 --workers 4 --cache-dir .repro-cache
    python -m repro bench compare --baseline benchmarks/baselines \\
        --current benchmarks/artifacts
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments import (
    diurnal,
    robustness,
    exp1_radius,
    exp2_period,
    exp3_tasks,
    pcs_accuracy,
    power_case_study,
    summary,
    survey,
    tailtime,
    weight_sweep,
)
from repro.experiments.common import ScenarioConfig
from repro.runner import ExperimentEngine

#: Every experiment, in run order: name -> (description, argument
#: kind, runner).  The kind says what the runner's first argument is:
#: a ``scenario`` (``ScenarioConfig``), a bare ``seed``, or nothing
#: (``plain``).  A runner that takes ``engine`` gets the parallel
#: execution engine when one is configured.
EXPERIMENTS: Dict[str, Tuple[str, str, Callable[..., str]]] = {
    "fig1": ("Fig 1 (energy-tolerance survey)", "plain", survey.main),
    "fig2": ("Fig 2 (app power case study)", "plain", power_case_study.main),
    "fig6": ("Fig 6 (radio tail trace)", "plain", tailtime.main),
    "exp1": ("Experiment 1 / Figs 7-9 (area radius)", "scenario", exp1_radius.main),
    "exp2": (
        "Experiment 2 / Figs 10-11 (sampling period)",
        "scenario",
        exp2_period.main,
    ),
    "exp3": (
        "Experiment 3 / Figs 12-13 (concurrent tasks)",
        "scenario",
        exp3_tasks.main,
    ),
    "fig14": ("Fig 14 (PCS prediction accuracy)", "scenario", pcs_accuracy.main),
    "table2": ("Table 2 (energy-savings summary)", "scenario", summary.main),
    "diurnal": (
        "Extension: savings across a 24 h usage cycle",
        "seed",
        diurnal.main,
    ),
    "robustness": (
        "Extension: savings distribution across seeded worlds",
        "seed",
        robustness.main,
    ),
    "weights": (
        "Extension: selector-weight sensitivity (fairness vs energy)",
        "scenario",
        weight_sweep.main,
    ),
}

ALIASES = {
    "fig7": "exp1",
    "fig8": "exp1",
    "fig9": "exp1",
    "fig10": "exp2",
    "fig11": "exp2",
    "fig12": "exp3",
    "fig13": "exp3",
}

RUN_ORDER = list(EXPERIMENTS)


def available_experiments() -> List[str]:
    return RUN_ORDER + sorted(ALIASES)


def _resolve(name: str) -> str:
    name = name.lower()
    name = ALIASES.get(name, name)
    if name not in EXPERIMENTS:
        raise KeyError(name)
    return name


def run_experiment(
    name: str, seed: int = 7, engine: Optional[ExperimentEngine] = None
) -> str:
    """Run one experiment by name; returns its printed output.

    ``engine`` (if given) parallelizes and caches the sweep
    experiments; the single-run experiments ignore it.
    """
    _, kind, runner = EXPERIMENTS[_resolve(name)]
    extra = (
        {"engine": engine}
        if engine is not None and "engine" in inspect.signature(runner).parameters
        else {}
    )
    if kind == "plain":
        return runner(**extra)
    if kind == "seed":
        return runner(seed, **extra)
    return runner(ScenarioConfig(seed=seed), **extra)


def _engine_from_args(args: argparse.Namespace) -> Optional[ExperimentEngine]:
    workers = getattr(args, "workers", 1)
    cache_dir = getattr(args, "cache_dir", None)
    if workers == 1 and cache_dir is None:
        return None
    return ExperimentEngine(workers=workers, cache_dir=cache_dir)


def _cmd_list(_args: argparse.Namespace) -> int:
    print("available experiments:")
    for name, (description, _, _) in EXPERIMENTS.items():
        print(f"  {name:8s} {description}")
    print("aliases:")
    for alias in sorted(ALIASES):
        print(f"  {alias:8s} -> {ALIASES[alias]}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    targets = RUN_ORDER if args.experiment == "all" else [args.experiment]
    engine = _engine_from_args(args)
    for i, target in enumerate(targets):
        if i:
            print("\n" + "=" * 72 + "\n")
        try:
            run_experiment(target, seed=args.seed, engine=engine)
        except KeyError:
            print(
                f"unknown experiment {target!r}; "
                f"choose from: all, {', '.join(available_experiments())}",
                file=sys.stderr,
            )
            return 2
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import write_report

    try:
        write_report(
            args.output,
            seed=args.seed,
            experiments=args.experiments,
            engine=_engine_from_args(args),
        )
    except KeyError as exc:
        print(
            f"unknown experiment {exc.args[0]!r}; "
            f"choose from: {', '.join(available_experiments())}",
            file=sys.stderr,
        )
        return 2
    print(f"report written to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sense-Aid reproduction: regenerate the paper's tables and figures",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    list_parser = subparsers.add_parser("list", help="list available experiments")
    list_parser.set_defaults(func=_cmd_list)
    run_parser = subparsers.add_parser("run", help="run an experiment (or 'all')")
    run_parser.add_argument("experiment", help="experiment id (see 'list') or 'all'")
    run_parser.add_argument(
        "--seed", type=int, default=7, help="scenario master seed (default 7)"
    )
    _add_engine_arguments(run_parser)
    run_parser.set_defaults(func=_cmd_run)
    report_parser = subparsers.add_parser(
        "report", help="run experiments and save a combined report"
    )
    report_parser.add_argument(
        "--output", default="reproduction_report.txt", help="report file path"
    )
    report_parser.add_argument(
        "--seed", type=int, default=7, help="scenario master seed (default 7)"
    )
    report_parser.add_argument(
        "--experiments",
        nargs="*",
        default=None,
        help="experiment ids to include (default: all)",
    )
    _add_engine_arguments(report_parser)
    report_parser.set_defaults(func=_cmd_report)

    bench_parser = subparsers.add_parser(
        "bench", help="benchmark artifact tooling (regression gate)"
    )
    bench_sub = bench_parser.add_subparsers(dest="bench_command", required=True)
    compare_parser = bench_sub.add_parser(
        "compare",
        help="compare BENCH_*.json artifacts against committed baselines",
    )
    compare_parser.add_argument(
        "--baseline",
        default="benchmarks/baselines",
        help="directory of committed baseline artifacts",
    )
    compare_parser.add_argument(
        "--current",
        default="benchmarks/artifacts",
        help="directory of freshly generated artifacts",
    )
    compare_parser.add_argument(
        "--tolerances",
        default=None,
        help="tolerance policy JSON (default: <baseline>/tolerances.json)",
    )
    compare_parser.add_argument(
        "--markdown",
        default=None,
        help="also write the delta table as markdown to this file "
        "('-' for stdout, 'GITHUB_STEP_SUMMARY' for the CI job summary)",
    )
    compare_parser.add_argument(
        "--strict-missing",
        action="store_true",
        help="fail when a baseline artifact was not produced by the current run",
    )
    compare_parser.set_defaults(func=_cmd_bench_compare)
    update_parser = bench_sub.add_parser(
        "update-baselines",
        help="copy current BENCH_*.json artifacts over the committed baselines",
    )
    update_parser.add_argument("--baseline", default="benchmarks/baselines")
    update_parser.add_argument("--current", default="benchmarks/artifacts")
    update_parser.set_defaults(func=_cmd_bench_update)

    soak_parser = subparsers.add_parser(
        "soak",
        help="chaos soak: seeded fault fuzzing + invariant suite "
        "(or --replay a shrunken reproducer)",
    )
    soak_parser.add_argument(
        "--seed", type=int, default=7, help="nemesis master seed (default 7)"
    )
    soak_parser.add_argument(
        "--episodes", type=int, default=4, help="episodes to run (default 4)"
    )
    soak_parser.add_argument(
        "--tier",
        default="medium",
        choices=["light", "medium", "heavy"],
        help="nemesis intensity tier (default medium)",
    )
    soak_parser.add_argument(
        "--first-episode",
        type=int,
        default=0,
        help="starting episode index (default 0)",
    )
    soak_parser.add_argument(
        "--devices", type=int, default=10, help="fleet size (default 10)"
    )
    soak_parser.add_argument(
        "--horizon",
        type=float,
        default=1200.0,
        help="fault horizon per episode in sim seconds (default 1200)",
    )
    soak_parser.add_argument(
        "--settle",
        type=float,
        default=420.0,
        help="fault-free settle window after the horizon (default 420)",
    )
    soak_parser.add_argument(
        "--no-replay-check",
        action="store_true",
        help="skip the same-seed bit-identity re-run of each episode",
    )
    soak_parser.add_argument(
        "--artifact-dir",
        default="soak-failures",
        help="where shrunken reproducer JSONs are written on failure "
        "(default soak-failures/)",
    )
    soak_parser.add_argument(
        "--shrink-budget",
        type=int,
        default=48,
        help="max probe runs the shrinker may spend per failure (default 48)",
    )
    soak_parser.add_argument(
        "--replay",
        metavar="FILE",
        default=None,
        help="replay a shrunken reproducer JSON instead of fuzzing",
    )
    soak_parser.add_argument(
        "--planted-bug",
        default=None,
        help=argparse.SUPPRESS,  # test-only hook: inject a known bug
    )
    soak_parser.set_defaults(func=_cmd_soak)

    storage_parser = subparsers.add_parser(
        "storage",
        help="datastore tooling: conformance-check the selected backend",
    )
    storage_sub = storage_parser.add_subparsers(dest="storage_command", required=True)
    storage_check = storage_sub.add_parser(
        "check",
        help="run the conformance kit against the backend REPRO_DATASTORE "
        "selects (or --spec)",
    )
    storage_check.add_argument(
        "--spec",
        default=None,
        help="backend spec to check (memory, sqlite, sqlite:<path>); "
        "default: the REPRO_DATASTORE environment",
    )
    storage_check.set_defaults(func=_cmd_storage_check)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the service front over stdin/stdout: one JSON request "
        "per input line, one JSON response per output line",
    )
    serve_parser.add_argument(
        "--seed", type=int, default=7, help="backend world seed (default 7)"
    )
    serve_parser.add_argument(
        "--slots",
        type=int,
        default=4,
        help="run slots: requests running at once (default 4)",
    )
    serve_parser.add_argument(
        "--queue-capacity",
        type=int,
        default=256,
        help="requests that may wait for a run slot (default 256)",
    )
    serve_parser.add_argument(
        "--service-time",
        type=float,
        default=0.0,
        help="modelled per-request service time in seconds (default 0)",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    loadgen_parser = subparsers.add_parser(
        "loadgen",
        help="drive the service front with the seeded load generator "
        "and print the latency/RPS report",
    )
    loadgen_parser.add_argument(
        "--seed", type=int, default=7, help="schedule seed (default 7)"
    )
    loadgen_parser.add_argument(
        "--requests", type=int, default=200, help="requests to send (default 200)"
    )
    loadgen_parser.add_argument(
        "--mode",
        default="open",
        choices=["open", "closed"],
        help="open loop (arrival pressure) or closed loop (throughput)",
    )
    loadgen_parser.add_argument(
        "--rate", type=float, default=200.0, help="open-loop arrival rate in rps"
    )
    loadgen_parser.add_argument(
        "--concurrency", type=int, default=4, help="closed-loop worker count"
    )
    loadgen_parser.add_argument(
        "--slots",
        type=int,
        default=4,
        help="run slots: requests the service runs at once (default 4)",
    )
    loadgen_parser.add_argument(
        "--service-time",
        type=float,
        default=0.0,
        help="modelled per-request service time in seconds (default 0)",
    )
    loadgen_parser.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        help="compress scheduled offsets and retry waits by this factor",
    )
    loadgen_parser.add_argument(
        "--retry",
        action="store_true",
        help="retry shed requests per RetryPolicy, honouring Retry-After",
    )
    loadgen_parser.add_argument(
        "--queue-capacity", type=int, default=64, help="admission queue capacity"
    )
    loadgen_parser.add_argument(
        "--service-rate",
        type=float,
        default=50.0,
        help="admission fluid-drain rate in requests/s",
    )
    loadgen_parser.set_defaults(func=_cmd_loadgen)
    return parser


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for sweep experiments (default 1 = serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed result cache; re-runs skip computed points",
    )


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.bench.compare import compare_dirs, write_markdown

    report = compare_dirs(
        baseline_dir=args.baseline,
        current_dir=args.current,
        tolerances_path=args.tolerances,
        strict_missing=args.strict_missing,
    )
    print(report.summary())
    if args.markdown:
        write_markdown(report, args.markdown)
    return 0 if report.passed else 1


def _cmd_bench_update(args: argparse.Namespace) -> int:
    from repro.bench.compare import update_baselines

    copied = update_baselines(current_dir=args.current, baseline_dir=args.baseline)
    if not copied:
        print(f"no BENCH_*.json artifacts found in {args.current}", file=sys.stderr)
        return 2
    for name in copied:
        print(f"updated {name}")
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    import os
    import tempfile

    from repro.soak import (
        SoakHarness,
        build_reproducer,
        load_reproducer,
        replay_reproducer,
        shrink_episode,
        write_reproducer,
    )

    wal_root = tempfile.mkdtemp(prefix="repro-soak-")

    if args.replay is not None:
        try:
            reproducer = load_reproducer(args.replay)
        except (OSError, ValueError) as exc:
            print(f"cannot load reproducer: {exc}", file=sys.stderr)
            return 2
        violations, signature, stats = replay_reproducer(reproducer, wal_root)
        print(
            f"replayed {args.replay}: {len(reproducer['plan']['events'])} "
            f"event(s), seed {reproducer['sim_seed']}"
        )
        for violation in violations:
            print(f"  VIOLATION {violation.code}: {violation.message}")
        if not violations:
            print("  no invariant violations (failure did not reproduce)")
        print(f"  signature {signature[:16]}…  stats {stats}")
        return 1 if violations else 0

    harness = SoakHarness(
        args.seed,
        wal_root=wal_root,
        tier=args.tier,
        n_devices=args.devices,
        horizon_s=args.horizon,
        settle_s=args.settle,
        check_replay=not args.no_replay_check,
        planted_bug=args.planted_bug,
    )
    report = harness.run(args.episodes, first_episode=args.first_episode)
    print(
        f"soak: seed {args.seed}, tier {args.tier}, "
        f"{report.episodes} episode(s), "
        f"pass rate {report.invariant_pass_rate:.0%}"
    )
    for result in report.results:
        verdict = "ok" if result.ok else "FAIL " + ",".join(result.codes())
        print(
            f"  episode {result.episode}: {result.plan_events} fault(s), "
            f"{result.stats['data_points']} data points, "
            f"{result.stats['failovers']} failover(s) — {verdict}"
        )
    failures = report.failures
    if not failures:
        return 0
    os.makedirs(args.artifact_dir, exist_ok=True)
    for result in failures:
        shrunk = shrink_episode(harness, result, max_runs=args.shrink_budget)
        reproducer = build_reproducer(harness, result, shrunk)
        path = os.path.join(
            args.artifact_dir,
            f"soak-seed{args.seed}-ep{result.episode}.json",
        )
        write_reproducer(path, reproducer)
        print(
            f"  episode {result.episode}: shrunk "
            f"{shrunk.original_events} -> {shrunk.shrunk_events} event(s) "
            f"in {shrunk.runs} run(s); reproducer at {path}"
        )
    return 1


def _cmd_storage_check(args: argparse.Namespace) -> int:
    """Conformance-check the backend the current spec resolves to.

    The kit creates and destroys its own scratch instances, so a
    ``sqlite:<path>`` spec is checked on fresh files *next to* the
    named one — never on the live store itself.
    """
    import os
    import tempfile

    from repro.storage import (
        ConformanceError,
        check_backend_conformance,
        default_spec,
        resolve_backend,
    )

    spec = (args.spec or default_spec()).strip()
    if spec.startswith("sqlite"):
        from repro.storage import SqliteBackend

        scratch = tempfile.mkdtemp(prefix="repro-storage-check-")
        counter = iter(range(1_000_000))

        def factory():
            return SqliteBackend(
                os.path.join(scratch, f"conformance-{next(counter)}.sqlite3")
            )

    else:

        def factory():
            return resolve_backend(spec)

    try:
        checks = check_backend_conformance(factory)
    except ConformanceError as exc:
        print(f"storage backend {spec!r} FAILED conformance: {exc}")
        return 1
    except ValueError as exc:
        print(f"bad datastore spec: {exc}", file=sys.stderr)
        return 2
    print(f"storage backend {spec!r} passed {len(checks)} conformance checks")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Newline-delimited-JSON transport for the service front.

    Each stdin line is ``{"kind": ..., "payload": {...}}``; each stdout
    line is the matching :class:`~repro.service.api.ServiceResponse`
    as JSON, printed as soon as it resolves.  Lines are read off the
    event loop, so a request is answered while stdin stays open.  EOF
    drains the service, closes the store (committing what was
    acknowledged) and prints the scorecard to stderr — a real
    request/response loop without needing a socket stack.
    """
    import asyncio
    import json
    from contextlib import closing

    from repro.core.config import OverloadPolicy
    from repro.service import (
        AppServerBackend,
        RequestKind,
        SenseAidService,
        ServiceConfig,
        build_world,
    )

    kinds = {kind.value: kind for kind in RequestKind}

    async def serve() -> dict:
        sim, server, cas = build_world(seed=args.seed)
        backend = AppServerBackend(sim, cas)
        config = ServiceConfig(
            queue_capacity=args.queue_capacity,
            consumers=args.slots,
            concurrency_slots=args.slots,
            service_time_s=args.service_time,
            overload=OverloadPolicy(),
        )
        service = SenseAidService(backend.handle, config)
        loop = asyncio.get_running_loop()
        readline = sys.stdin.readline
        pending = []
        with closing(server.storage):
            async with service:
                while True:
                    line = await loop.run_in_executor(None, readline)
                    if not line:
                        break
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        raw = json.loads(line)
                        kind = kinds[str(raw["kind"])]
                    except (json.JSONDecodeError, KeyError, TypeError) as exc:
                        print(
                            json.dumps({"status": "rejected", "error": str(exc)}),
                            flush=True,
                        )
                        continue

                    async def roundtrip(kind=kind, payload=raw.get("payload")):
                        response = await service.submit(kind, payload)
                        print(json.dumps(response.as_dict()), flush=True)

                    pending.append(loop.create_task(roundtrip()))
                if pending:
                    await asyncio.gather(*pending)
        service.ledger.assert_accounted()
        return service.scorecard()

    scorecard = asyncio.run(serve())
    print(json.dumps(scorecard, indent=2), file=sys.stderr)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json
    from contextlib import closing

    from repro.core.config import OverloadPolicy, RetryPolicy
    from repro.service import (
        AppServerBackend,
        LoadGenerator,
        LoadSpec,
        SenseAidService,
        ServiceConfig,
        build_world,
    )

    spec = LoadSpec(
        seed=args.seed,
        n_requests=args.requests,
        mode=args.mode,
        rate_rps=args.rate,
        concurrency=args.concurrency,
    )
    generator = LoadGenerator(
        spec,
        retry_policy=RetryPolicy() if args.retry else None,
        time_scale=args.time_scale,
    )
    config = ServiceConfig(
        consumers=args.slots,
        concurrency_slots=args.slots,
        service_time_s=args.service_time,
        overload=OverloadPolicy(
            queue_capacity=args.queue_capacity,
            service_rate_per_s=args.service_rate,
        ),
    )

    async def drive():
        sim, server, cas = build_world(seed=args.seed)
        backend = AppServerBackend(sim, cas)
        service = SenseAidService(backend.handle, config)
        # Closing the store commits what the service acknowledged.
        with closing(server.storage):
            async with service:
                report = await generator.run(service)
        service.ledger.assert_accounted()
        return report, service.scorecard()

    report, scorecard = asyncio.run(drive())
    print(json.dumps({"report": report.as_dict(), "service": scorecard}, indent=2))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
