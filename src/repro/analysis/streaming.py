"""Streaming accumulator for backend-resident data.

:class:`StreamingMean` folds values one at a time in arrival order and
holds O(1) state: the same left-to-right additions the batch ``sum()``
performs, so the result is bit-identical to the batch mean on every
backend.  ``CrowdsensingAppServer`` answers its queries from
``StreamingMean`` aggregates folded as readings arrive, so a query
never re-reads the readings log.
"""

from __future__ import annotations

from typing import Optional


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
