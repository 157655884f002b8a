"""Delta-debugging minimization of failing fault plans.

Given an episode whose invariant suite flagged violations, the
shrinker searches for the smallest *subsequence* of the plan's events
that still reproduces (a subset of) the target violation codes, using
the classic ddmin strategy: split the event list into chunks, try
each chunk alone, then each complement, halving granularity until
1-minimal or the run budget is exhausted.

Candidates are built from the plan's *serialized* event dicts — never
from shared ``FaultEvent`` objects — so every probe run gets fresh
loss-model instances (a :class:`GilbertElliott` chain mutates as it
steps).  Candidate plans are rebuilt with ``strict=False``: dropping
an outage may orphan its heal, which is exactly the kind of
temporally-lax plan a reproducer is allowed to be (the warning is
suppressed during the search).

The surviving subsequence is serialized as a **reproducer** — a
schema-tagged JSON document carrying the world parameters, seed, and
minimized plan — runnable via ``repro soak --replay <file>``.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List

#: Schema tag for reproducer documents.
REPRODUCER_SCHEMA = "soak-reproducer/v1"


@dataclass
class ShrinkResult:
    """Outcome of one minimization."""

    events: List[dict]
    original_events: int
    runs: int
    target_codes: List[str]
    converged: bool

    @property
    def shrunk_events(self) -> int:
        return len(self.events)

    @property
    def ratio(self) -> float:
        if self.original_events == 0:
            return 1.0
        return self.shrunk_events / self.original_events


def _plan_doc(events: List[dict]) -> dict:
    from repro.faults.plan import PLAN_SCHEMA

    return {"schema": PLAN_SCHEMA, "strict": False, "events": list(events)}


def shrink_events(
    events: List[dict],
    fails: Callable[[dict], bool],
    *,
    max_runs: int = 48,
) -> ShrinkResult:
    """ddmin over serialized plan events.

    ``fails(plan_doc)`` must return True when the candidate still
    reproduces the target violation.  The *full* event list is assumed
    failing (the caller observed it fail); it is not re-run.  Returns
    the smallest failing subsequence found within ``max_runs`` probe
    runs — ``converged`` is False when the budget cut the search short.
    """
    current = list(events)
    runs = 0
    converged = True

    def probe(candidate: List[dict]) -> bool:
        nonlocal runs
        runs += 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return fails(_plan_doc(candidate))

    granularity = 2
    while len(current) >= 2:
        if runs >= max_runs:
            converged = False
            break
        granularity = min(granularity, len(current))
        chunk = max(1, len(current) // granularity)
        chunks = [
            current[i : i + chunk] for i in range(0, len(current), chunk)
        ]
        reduced = False
        # Try each chunk alone (fast path straight to tiny plans) ...
        for piece in chunks:
            if len(piece) == len(current):
                continue
            if runs >= max_runs:
                converged = False
                break
            if probe(piece):
                current = list(piece)
                granularity = 2
                reduced = True
                break
        if reduced:
            continue
        # ... then each complement (drop one chunk at a time).
        for i in range(len(chunks)):
            complement = [
                e for j, piece in enumerate(chunks) if j != i for e in piece
            ]
            if not complement or len(complement) == len(current):
                continue
            if runs >= max_runs:
                converged = False
                break
            if probe(complement):
                current = complement
                granularity = max(2, granularity - 1)
                reduced = True
                break
        if reduced:
            continue
        if granularity >= len(current):
            break  # 1-minimal
        granularity = min(len(current), granularity * 2)

    return ShrinkResult(
        events=current,
        original_events=len(events),
        runs=runs,
        target_codes=[],
        converged=converged,
    )


def shrink_episode(
    harness,
    result,
    *,
    max_runs: int = 48,
) -> ShrinkResult:
    """Minimize a failing :class:`~repro.soak.harness.EpisodeResult`.

    Targets the episode's non-replay violation codes (a candidate
    *fails* when it reproduces at least one of them); when the episode
    only diverged on replay, each probe runs twice and compares
    signatures instead.
    """
    codes = {v.code for v in result.violations if v.code != "REPLAY_DIVERGED"}
    replay_only = not codes
    if replay_only:
        codes = {"REPLAY_DIVERGED"}

    def fails(plan_doc: dict) -> bool:
        violations, signature, _ = harness.run_plan_obj(
            plan_doc,
            result.sim_seed,
            strict=False,
            planted_bug=harness.planted_bug,
            wal_label="shrink",
        )
        if replay_only:
            again, signature_b, _ = harness.run_plan_obj(
                plan_doc,
                result.sim_seed,
                strict=False,
                planted_bug=harness.planted_bug,
                wal_label="shrink-replay",
            )
            return signature_b != signature or sorted(
                v.code for v in again
            ) != sorted(v.code for v in violations)
        return any(v.code in codes for v in violations)

    shrunk = shrink_events(
        list(result.plan_obj["events"]), fails, max_runs=max_runs
    )
    shrunk.target_codes = sorted(codes)
    return shrunk


# ----------------------------------------------------------------------
# Reproducer documents
# ----------------------------------------------------------------------


def build_reproducer(harness, result, shrunk: ShrinkResult) -> dict:
    """A self-contained JSON document that replays the minimized
    failure: world shape + seed + shrunken plan + what to expect."""
    return {
        "schema": REPRODUCER_SCHEMA,
        "master_seed": harness.master_seed,
        "tier": harness.tier.name,
        "episode": result.episode,
        "sim_seed": result.sim_seed,
        "world": harness.world_params(),
        "planted_bug": harness.planted_bug,
        "target_codes": shrunk.target_codes,
        "original_events": shrunk.original_events,
        "shrunk_events": shrunk.shrunk_events,
        "shrink_runs": shrunk.runs,
        "plan": _plan_doc(shrunk.events),
    }


def write_reproducer(path: str, reproducer: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(reproducer, f, indent=2, sort_keys=True)
        f.write("\n")


def load_reproducer(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        obj = json.load(f)
    if not isinstance(obj, dict) or obj.get("schema") != REPRODUCER_SCHEMA:
        raise ValueError(
            f"{path}: not a soak reproducer (expected schema "
            f"{REPRODUCER_SCHEMA!r}, got {obj.get('schema')!r})"
        )
    for key in ("sim_seed", "world", "plan"):
        if key not in obj:
            raise ValueError(f"{path}: reproducer is missing {key!r}")
    return obj


def replay_reproducer(reproducer: dict, wal_root: str):
    """Re-run a reproducer's minimized plan in its recorded world.

    Returns ``(violations, signature, stats)`` from a single arm —
    exactly what the original shrink probes measured.
    """
    from repro.soak.harness import SoakHarness

    world: Dict[str, object] = dict(reproducer["world"])
    harness = SoakHarness(
        int(reproducer.get("master_seed", 0)),
        wal_root=wal_root,
        tier=reproducer.get("tier", "medium"),
        check_replay=False,
        planted_bug=reproducer.get("planted_bug"),
        **world,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return harness.run_plan_obj(
            reproducer["plan"],
            int(reproducer["sim_seed"]),
            strict=False,
            planted_bug=reproducer.get("planted_bug"),
            wal_label="replay",
        )


__all__ = [
    "REPRODUCER_SCHEMA",
    "ShrinkResult",
    "build_reproducer",
    "load_reproducer",
    "replay_reproducer",
    "shrink_episode",
    "shrink_events",
    "write_reproducer",
]
