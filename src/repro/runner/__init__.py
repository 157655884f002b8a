"""Parallel experiment execution engine.

The paper's evaluation was a 60-device campus study; this repo's keeps
growing sweeps, replications, and scenario tiers, and every point of
every sweep is an independent seeded simulation.  ``repro.runner``
fans those points out across a process pool while keeping the results
*bit-identical* to a serial run:

- **Deterministic points** — every point function is a pure function
  of its fully seeded arguments, so a point's world never depends on
  which worker ran it or in what order.
- **Content-addressed caching** — :class:`ResultCache` keys each
  point's result by a stable hash of the point function and its
  arguments; re-running a sweep recomputes only the points that
  changed.
- **Ordered merging** — :meth:`ExperimentEngine.map` returns outcomes
  in submission order regardless of completion order, so downstream
  analysis sees the same sequence a serial loop would produce.
- **Failure isolation** — a point that raises (or a worker process
  that dies) fails that point only; every other point still completes
  and the failure surfaces at the end with its traceback.
"""

from repro.runner.cache import CACHE_SCHEMA_VERSION, ResultCache
from repro.runner.engine import (
    ExperimentEngine,
    PointFailure,
    TaskOutcome,
)
from repro.runner.hashing import (
    canonical_json,
    canonicalize,
    config_hash,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "ExperimentEngine",
    "PointFailure",
    "ResultCache",
    "TaskOutcome",
    "canonical_json",
    "canonicalize",
    "config_hash",
]
