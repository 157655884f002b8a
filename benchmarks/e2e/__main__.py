"""Command line of the end-to-end benchmark.

    python -m benchmarks.e2e run [--workload W] [--seed S] [--repeats N] [--out F]
    python -m benchmarks.e2e compare A.json B.json
    python -m benchmarks.e2e measure --workload W --seed S --seconds T --trace 0|1

``run`` makes N untraced iterations (default 5) and one traced iteration
of each workload, one fresh child process at a time, prints every metric
with its unit, median, quartiles and sample count, and exits non-zero if
any output check fails.  ``measure`` is the fixed-length form that
``benchmarks/e2e/run.py`` exposes: it runs iterations for about
``--seconds`` and prints one JSON line last.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List

from benchmarks.e2e import harness

MIN_ITERATIONS = 3


def _fail(message: str) -> int:
    print(f"e2e benchmark: {message}", file=sys.stderr)
    return 2


def _workload_names() -> List[str]:
    from benchmarks.e2e.workloads import WORKLOADS

    return list(WORKLOADS)


def measure(workload: str, seed: int, seconds: float, traced: bool) -> int:
    """Iterations for about ``seconds`` (at least three); a traced run
    alternates untraced and traced iterations.

    Another iteration starts only if one as long as the mean so far still
    ends within ``seconds``, so a run overshoots by little.
    """
    started = time.monotonic()
    results = []
    while len(results) < MIN_ITERATIONS or (time.monotonic() - started) * (
        len(results) + 1
    ) / len(results) <= seconds:
        results.append(harness.spawn(workload, seed, traced and len(results) % 2 == 1))
    untraced = [r for r in results if not r["traced"]]
    found = harness.problems(results, harness.load_expected().get(workload))
    for line in found:
        print(f"FAIL {workload}: {line}")
    if traced:
        values = harness.per_layer(untraced, [r for r in results if r["traced"]])
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in harness.per_layer_spec()
        }
    else:
        e2e = harness.end_to_end(untraced)
        metrics = {name: {"value": m["value"], "unit": m["unit"]} for name, m in e2e.items()}
    for name, metric in metrics.items():
        print(f"{workload:<8} {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": not found,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0 if not found else 1


def run(workloads: List[str], seed: int, repeats: int, out: str) -> int:
    """``repeats`` untraced and one traced iteration per workload.

    The untraced iterations go round the workloads in turn, so each
    workload's samples spread over the whole run and a minute-long change
    in machine speed moves every workload a little rather than one a lot.
    """
    from benchmarks.e2e.workloads import DEFAULT_SEEDS

    seeds = {w: DEFAULT_SEEDS[w] if seed is None else seed for w in workloads}
    untraced_of = {w: [] for w in workloads}
    for repeat in range(repeats):
        for workload in workloads:
            print(f"iteration {repeat + 1}/{repeats} of {workload}", file=sys.stderr, flush=True)
            untraced_of[workload].append(harness.spawn(workload, seeds[workload], False))
    expected = harness.load_expected()
    report = {"environment": harness.environment(), "repeats": repeats, "workloads": {}}
    all_ok = True
    for workload in workloads:
        workload_seed = seeds[workload]
        print(f"traced iteration of {workload}", file=sys.stderr, flush=True)
        untraced = untraced_of[workload]
        traced = [harness.spawn(workload, workload_seed, True)]
        results = untraced + traced
        found = harness.problems(results, expected.get(workload))
        all_ok &= not found
        e2e = harness.end_to_end(untraced)
        layers = harness.per_layer(untraced, traced)
        report["workloads"][workload] = {
            "seed": workload_seed,
            "correct": not found,
            "problems": found,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "tail_percentile": untraced[0]["tail_percentile"],
            "digests": untraced[0]["digests"],
            "end_to_end": e2e,
            "per_layer": layers,
            "counters": harness.counters_of(traced[0]),
        }
        _print_workload(workload, report["workloads"][workload])
    if out:
        with open(out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2, sort_keys=True)
        print(f"\nwrote {out}")
    return 0 if all_ok else 1


def _print_workload(workload: str, entry: dict) -> None:
    print(f"\n## {workload}  seed {entry['seed']}  "
          f"{'correct' if entry['correct'] else 'INCORRECT'}  "
          f"attempted {entry['attempted']}  failed {entry['failed']}")
    for line in entry["problems"]:
        print(f"FAIL {line}")
    print(f"{'metric':<18} {'unit':<6} {'value':>12} {'q1':>12} {'q3':>12} {'n':>3}")
    for name, m in entry["end_to_end"].items():
        print(f"{name:<18} {m['unit']:<6} {m['value']:>12.5g} {m['q1']:>12.5g} "
              f"{m['q3']:>12.5g} {m['n']:>3}")
    print(f"latency_tail_ms is p{entry['tail_percentile']:.4g} of each iteration's "
          "operations; every value is a median over iterations")
    layers = entry["per_layer"]
    print(f"\n{'layer':<18} {'calls':>10} {'self_s':>10} {'share':>8}")
    for layer in harness.LAYERS + (harness.OTHER,):
        if layers[f"{layer}.calls"]:
            print(f"{layer:<18} {layers[layer + '.calls']:>10.0f} "
                  f"{layers[layer + '.self_s']:>10.4f} {layers[layer + '.share']:>8.3f}")
    for name in ("trace.coverage", "trace.overhead", "trace.wall_s"):
        print(f"{name:<18} {layers[name]:>10.4f}")
    for name, unit in harness.DIAGNOSTICS:
        if layers[name]:
            print(f"{name:<28} {layers[name]:>10.4g} {unit}")
    for name, value in entry["counters"].items():
        if value:
            print(f"{name:<44} {value:>12}")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="repeats of every workload, with a table")
    p_run.add_argument("--workload", action="append", help="default: all")
    p_run.add_argument("--seed", type=int, help="default: each workload's own")
    p_run.add_argument("--repeats", type=int, default=5)
    p_run.add_argument("--out", help="write the results as JSON for `compare`")
    p_cmp = sub.add_parser("compare", help="two `run --out` files against the bounds")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    p_measure = sub.add_parser("measure", help="one fixed-length run, JSON last")
    p_measure.add_argument("--workload", required=True)
    p_measure.add_argument("--seed", type=int, required=True)
    p_measure.add_argument("--seconds", type=float, required=True)
    p_measure.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p_child = sub.add_parser("child", help=argparse.SUPPRESS)
    p_child.add_argument("--workload", required=True)
    p_child.add_argument("--seed", type=int, required=True)
    p_child.add_argument("--traced", type=int, choices=(0, 1), required=True)
    p_child.add_argument("--spawned-at", type=float, required=True)
    p_child.add_argument("--tmp-dir", required=True)
    p_child.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    if args.command == "compare":
        from benchmarks.e2e.compare import compare

        return compare(args.a, args.b)
    if not harness.source_present():
        return _fail(f"no program source under {harness.SRC}")
    if harness.SRC not in sys.path:
        sys.path.insert(0, harness.SRC)
    names = _workload_names()
    if args.command == "child":
        result = harness.child(
            args.workload, args.seed, bool(args.traced), args.spawned_at, args.tmp_dir
        )
        with open(args.result, "w", encoding="utf-8") as f:
            json.dump(result, f)
        return 0
    if args.command == "measure":
        if args.workload not in names:
            return _fail(f"unknown workload {args.workload!r}; expected one of {names}")
        if args.seconds <= 0:
            return _fail("--seconds must be positive")
        return measure(args.workload, args.seed, args.seconds, bool(args.trace))
    workloads = args.workload or names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        return _fail(f"unknown workload(s) {unknown}; expected some of {names}")
    if args.repeats < 1:
        return _fail("--repeats must be at least 1")
    return run(workloads, args.seed, args.repeats, args.out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
