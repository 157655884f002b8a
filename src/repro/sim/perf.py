"""Lightweight performance counters for the simulation's hot paths.

The simulator is deterministic, but how *fast* it runs is not — and the
north star ("as fast as the hardware allows") needs the hot paths to be
observable, not just fast today.  :class:`PerfRegistry` is a namespace
of :class:`PerfProbe` s, one per instrumented operation, each tracking

- ``calls`` — how many times the operation ran,
- ``wall_s`` — cumulative host wall-clock time inside it, and
- ``items`` — how much *work* it touched (devices scanned per query,
  positions re-read per refresh, …), the number that exposes an
  accidental O(fleet) scan even when wall time looks fine.

Wall time is measured with :func:`time.perf_counter` and never feeds
back into the simulation, so instrumentation cannot perturb
determinism; two same-seed runs differ only in their perf numbers.

Probes serialise via :meth:`PerfRegistry.snapshot` into the
``BENCH_*.json`` artifacts, so regressions show up in the benchmark
book (``docs/benchmarks.md``).
"""

from __future__ import annotations

import time
from typing import Dict, Optional


class PerfProbe:
    """Counters for one instrumented operation."""

    __slots__ = ("name", "calls", "wall_s", "items", "max_items")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.wall_s = 0.0
        #: Total work items touched across all calls.
        self.items = 0
        #: Largest single-call work count — the per-query bound the
        #: scalability gate asserts on.
        self.max_items = 0

    def observe(self, wall_s: float = 0.0, items: int = 0) -> None:
        """Record one completed call."""
        self.calls += 1
        self.wall_s += wall_s
        self.items += items
        if items > self.max_items:
            self.max_items = items

    def items_per_call(self) -> float:
        """Mean work per call (0.0 before the first call)."""
        return self.items / self.calls if self.calls else 0.0

    def rate_per_s(self) -> float:
        """Calls per wall-clock second (0.0 when no time accrued)."""
        return self.calls / self.wall_s if self.wall_s > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PerfProbe {self.name} calls={self.calls} "
            f"wall={self.wall_s:.4f}s items={self.items}>"
        )


class _Measurement:
    """Context manager timing one call of a probe.

    ``items`` may be set (or added to) inside the ``with`` block, after
    the workload has revealed how much it touched.
    """

    __slots__ = ("_probe", "_start", "items")

    def __init__(self, probe: PerfProbe) -> None:
        self._probe = probe
        self._start = 0.0
        self.items = 0

    def __enter__(self) -> "_Measurement":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._probe.observe(time.perf_counter() - self._start, self.items)


class PerfRegistry:
    """A namespace of perf probes shared by one simulation."""

    def __init__(self) -> None:
        self._probes: Dict[str, PerfProbe] = {}

    def probe(self, name: str) -> PerfProbe:
        probe = self._probes.get(name)
        if probe is None:
            probe = PerfProbe(name)
            self._probes[name] = probe
        return probe

    def measure(self, name: str) -> _Measurement:
        """``with perf.measure("registry.devices_within") as m: ...``"""
        return _Measurement(self.probe(name))

    def count(self, name: str, items: int = 0) -> None:
        """Record an un-timed call (cheap counters on cache hits etc.)."""
        self.probe(name).observe(0.0, items)

    def probes(self) -> Dict[str, PerfProbe]:
        return dict(self._probes)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """All probes as plain dicts, ready for a BENCH JSON artifact."""
        return {
            name: {
                "calls": probe.calls,
                "wall_s": round(probe.wall_s, 6),
                "items": probe.items,
                "max_items": probe.max_items,
                "items_per_call": round(probe.items_per_call(), 3),
            }
            for name, probe in sorted(self._probes.items())
        }

    def reset(self) -> None:
        self._probes.clear()


def events_per_second(events: int, wall_s: Optional[float]) -> float:
    """Throughput helper for benchmark scorecards."""
    if not wall_s or wall_s <= 0:
        return 0.0
    return events / wall_s
