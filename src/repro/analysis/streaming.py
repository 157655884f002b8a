"""Streaming/incremental analysis accumulators.

The batch analysis helpers (:mod:`repro.analysis.fairness`,
``quality``, ``heatmap``, ``trace``, ``truth``) all take fully
materialised sequences — fine for a 9-round campaign, hopeless for a
million-reading soak on the sqlite backend, where the whole point is
that readings never sit in process memory at once.  Each accumulator
here folds one observation at a time and holds only O(state) memory:

* :class:`StreamingSelectionCounts` — per-device selection counts and
  the Fig. 9 fairness report, folded from
  :class:`~repro.core.server.SelectionEvent` s (or their dicts as
  stored on the backend's ``selection_log``).
* :class:`StreamingMean` — running mean over values in arrival order;
  the same left-to-right additions the batch ``sum()`` performs, so
  the result is bit-identical to the batch mean on every backend.
* :class:`StreamingLatency` — count/mean/max and *exact* p95 of
  delivery latency.  Exact quantiles of an arbitrary stream require
  retaining the values (any one-pass selection needs Ω(n) memory —
  a kept-tail heap breaks the moment its target size grows past an
  already-discarded element), so each latency is retained as one
  compact 8-byte double rather than the reading that carried it;
  count/mean/max still fold in O(1).  (The batch mean sums in
  *sorted* order, so the streaming mean matches it to float
  tolerance, not bit-for-bit.)
* :class:`StreamingStateTime` — per-radio-state occupancy totals
  folded from transitions, no segment list retained.

``CrowdsensingAppServer`` answers its queries from ``StreamingMean``
aggregates folded as readings arrive.
"""

from __future__ import annotations

from array import array
from typing import Dict, Hashable, Iterable, Optional

from repro.analysis.fairness import fairness_report
from repro.analysis.quality import LatencyStats


class StreamingSelectionCounts:
    """Fold selection events into per-device counts, one at a time."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}
        self.events = 0

    def add(self, selected: Iterable[str]) -> None:
        """Fold one selector execution's picked device ids."""
        self.events += 1
        for device_id in selected:
            self._counts[device_id] = self._counts.get(device_id, 0) + 1

    def add_event(self, event) -> None:
        """Fold a ``SelectionEvent`` (or its stored dict form)."""
        selected = event["selected"] if isinstance(event, dict) else event.selected
        self.add(selected)

    def counts(self) -> Dict[str, int]:
        return dict(self._counts)

    def report(self) -> Dict[str, float]:
        """The same summary ``fairness_report`` computes in batch."""
        return fairness_report(self._counts)


class StreamingMean:
    """Running mean with the batch ``sum()``'s exact addition order."""

    def __init__(self) -> None:
        self.count = 0
        self._total = 0.0

    def add(self, value: float) -> None:
        self._total += value
        self.count += 1

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self._total / self.count


class StreamingLatency:
    """Exact count/mean/max/p95 of delivery latency.

    Feed it latencies (or reading points) in arrival order.  Count,
    mean, and max fold in O(1).  The p95 is exact, which on an
    arbitrary stream forces retaining the values: a "keep only the
    top ``n - int(0.95·n)``" heap fails when that target size grows
    past an element it already discarded (twenty 1.0s then 0.0s —
    the second 1.0 becomes the p95 but is gone).  So each latency is
    kept as one clamped 8-byte double in an ``array('d')`` — the
    readings themselves still never materialise — and ``stats()``
    picks the same ``min(n-1, int(0.95·n))`` sorted element the batch
    :func:`repro.analysis.quality.delivery_latency` picks.
    """

    def __init__(self) -> None:
        self.count = 0
        self._sum = 0.0
        self._max = 0.0
        #: One clamped latency per observation, 8 bytes each.
        self._values = array("d")

    def add(self, latency_s: float) -> None:
        value = max(0.0, latency_s)
        self.count += 1
        self._sum += value
        if value > self._max:
            self._max = value
        self._values.append(value)

    def add_point(self, point) -> None:
        """Fold one ``SensedDataPoint`` (sensing→delivery latency)."""
        self.add(point.delivered_at - point.sensed_at)

    def stats(self) -> LatencyStats:
        if self.count == 0:
            return LatencyStats(count=0, mean_s=0.0, max_s=0.0, p95_s=0.0)
        ordered = sorted(self._values)
        index_95 = min(self.count - 1, int(0.95 * self.count))
        return LatencyStats(
            count=self.count,
            mean_s=self._sum / self.count,
            max_s=self._max,
            p95_s=ordered[index_95],
        )


class StreamingStateTime:
    """Per-radio-state occupancy totals folded from transitions.

    A memory-flat replacement for summing
    :class:`~repro.analysis.trace.RadioTraceRecorder` segments: feed
    it every ``(old, new, time)`` transition and ask for
    :meth:`time_in_state` at any cut-off.  Attach with
    ``modem.add_state_listener(lambda old, new:
    tracker.transition(old, new, sim.now))``.
    """

    def __init__(self, initial_state, start: float = 0.0) -> None:
        self._totals: Dict[Hashable, float] = {}
        self._open_state = initial_state
        self._open_since = start
        self.transitions = 0

    def transition(self, old, new, now: float) -> None:
        if old is not self._open_state:
            raise ValueError(
                f"transition from {old!r} but {self._open_state!r} is open"
            )
        self.transitions += 1
        held = max(0.0, now - self._open_since)
        self._totals[old] = self._totals.get(old, 0.0) + held
        self._open_state = new
        self._open_since = now

    @property
    def current_state(self):
        return self._open_state

    def time_in_state(self, state, *, until: float) -> float:
        total = self._totals.get(state, 0.0)
        if state is self._open_state:
            total += max(0.0, until - self._open_since)
        return total

    def totals(self, *, until: float) -> Dict[Hashable, float]:
        states = set(self._totals) | {self._open_state}
        return {s: self.time_in_state(s, until=until) for s in states}
