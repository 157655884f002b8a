"""Per-category energy accounting.

The paper compares frameworks by the energy *attributable to
crowdsensing*; control messages are explicitly excluded ("we ignore
energy consumption for these control messages") and regular app
traffic is the user's own business.  The ledger keeps the three
categories separate so experiments can report exactly what the paper
reports.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from repro.cellular.packets import TrafficCategory

_CROWDSENSING = TrafficCategory.CROWDSENSING.value


class EnergyLedger:
    """Joules charged per :class:`TrafficCategory`, with a reason log.

    Totals are keyed by the category's value, a string whose hash is
    cached, rather than by the enum member, whose hash is a Python-level
    call on every charge.
    """

    def __init__(self) -> None:
        self._totals: Dict[str, float] = defaultdict(float)
        self._by_reason: Dict[Tuple[str, str], float] = defaultdict(float)
        self._entries = 0

    def charge(self, category: TrafficCategory, joules: float, reason: str) -> None:
        if joules < 0:
            raise ValueError(f"cannot charge negative energy ({joules!r}, {reason!r})")
        key = category.value
        self._totals[key] += joules
        self._by_reason[(key, reason)] += joules
        self._entries += 1

    @property
    def entries(self) -> int:
        return self._entries

    def total(self, category: TrafficCategory) -> float:
        """Total Joules charged to one category."""
        return self._totals[category.value]

    def crowdsensing_j(self) -> float:
        """The headline metric: Joules attributable to crowdsensing."""
        return self._totals[_CROWDSENSING]

    def grand_total_j(self) -> float:
        return sum(self._totals.values())

    def breakdown(self, category: TrafficCategory) -> Dict[str, float]:
        """Joules per reason string within one category."""
        key = category.value
        return {
            reason: joules
            for (cat, reason), joules in self._by_reason.items()
            if cat == key
        }

    def as_rows(self) -> List[Tuple[str, str, float]]:
        """(category, reason, joules) rows sorted for reporting."""
        rows = [(cat, reason, joules) for (cat, reason), joules in self._by_reason.items()]
        rows.sort()
        return rows
