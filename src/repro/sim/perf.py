"""Exact work counters for the simulation's hot paths.

:class:`PerfRegistry` is a namespace of :class:`PerfProbe` s, one per
instrumented operation, each tracking

- ``calls`` — how many times the operation ran,
- ``items`` — how much *work* it touched (devices scanned per query,
  positions re-read per refresh, …), the number that exposes an
  accidental O(fleet) scan, and
- ``max_items`` — the largest single call.

Probes count work and never read a clock, so they never feed back into
the simulation and two same-seed runs give the same numbers.  Time is
attributed from outside, per layer, by the end-to-end benchmark's
tracer (``benchmarks/e2e``).

Probes serialise via :meth:`PerfRegistry.snapshot` into the
``BENCH_scalability.json`` scorecard, whose ``perf`` block the
regression gate compares exactly (``docs/benchmarks.md``).
"""

from __future__ import annotations

from typing import Dict


class PerfProbe:
    """Counters for one instrumented operation."""

    __slots__ = ("name", "calls", "items", "max_items")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        #: Total work items touched across all calls.
        self.items = 0
        #: Largest single-call work count — the per-query bound the
        #: scalability gate asserts on.
        self.max_items = 0

    def observe(self, items: int = 0) -> None:
        """Record one completed call."""
        self.calls += 1
        self.items += items
        if items > self.max_items:
            self.max_items = items

    def items_per_call(self) -> float:
        """Mean work per call (0.0 before the first call)."""
        return self.items / self.calls if self.calls else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PerfProbe {self.name} calls={self.calls} items={self.items}>"


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

    def count(self, name: str, items: int = 0) -> None:
        """Record one completed call that touched ``items`` work items."""
        self.probe(name).observe(items)

    def probes(self) -> Dict[str, PerfProbe]:
        return dict(self._probes)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """All probes as plain dicts, ready for a BENCH JSON artifact."""
        return {
            name: {
                "calls": probe.calls,
                "items": probe.items,
                "max_items": probe.max_items,
                "items_per_call": round(probe.items_per_call(), 3),
            }
            for name, probe in sorted(self._probes.items())
        }
