"""``compare A.json B.json``: two ``run --out`` results against the bounds.

For every workload and end-to-end metric it prints each side's value
(the median over iterations; for the latency percentiles, over all
operations), quartiles over iterations and their count, and a verdict:

- ``better`` — every B iteration reads better than every A iteration;
- ``regressed`` — B's value is worse than A's by more than the bound;
- ``unresolved`` — either side's interquartile range exceeds the bound
  (the spread is wider than the change it should detect);
- ``ok`` otherwise.

Exact counters are compared for equality: any difference is a
behaviour change, never noise.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from benchmarks.e2e.harness import ROOT


def load_bounds() -> Dict[str, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    spread = max((s["q3"] - s["q1"]) / s["value"] for s in (a, b))
    worst_b = max(sign * v for v in b["values"])
    if worst_b < min(sign * v for v in a["values"]):
        return "better"
    if spread > bound:
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    return "ok"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as f:
        a_all = json.load(f)
    with open(path_b, encoding="utf-8") as f:
        b_all = json.load(f)
    bounds = load_bounds()
    failed = False
    header = (
        f"{'metric':<16} {'A value [q1, q3] n':<34} {'B value [q1, q3] n':<34} "
        f"{'delta':>8}  verdict"
    )
    for workload in sorted(set(a_all["workloads"]) & set(b_all["workloads"])):
        a, b = a_all["workloads"][workload], b_all["workloads"][workload]
        print(f"\n## {workload}  (bound = share of A's value B may worsen)")
        print(header)
        for name, spec in bounds.items():
            sa, sb = a["end_to_end"][name], b["end_to_end"][name]
            result = verdict(sa, sb, spec["better"], spec["bound"])
            failed |= result == "regressed"
            delta = (sb["value"] - sa["value"]) / sa["value"]
            print(
                f"{name:<16} {_cell(sa):<34} {_cell(sb):<34} {delta:>+8.1%}  "
                f"{result} (bound {spec['bound']:.0%})"
            )
        changed = _counter_changes(a["counters"], b["counters"])
        for line in changed:
            print(f"behaviour change: {line}")
        failed |= bool(changed)
    return 1 if failed else 0


def _cell(s: dict) -> str:
    return f"{s['value']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] {s['n']}"


def _counter_changes(a: dict, b: dict) -> List[str]:
    return [
        f"{name}: {a.get(name)} -> {b.get(name)}"
        for name in sorted(set(a) | set(b))
        if a.get(name) != b.get(name)
    ]
