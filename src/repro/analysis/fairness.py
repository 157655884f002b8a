"""Fairness metrics for the device selector.

The paper's Fig. 9 argues fairness by showing each of 11 qualified
devices being selected "either once or twice" across 9 rounds of 2
picks.  We quantify the same property two ways: the spread between the
most- and least-selected device, and Jain's fairness index over
selection counts.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple


def jain_index(counts: Iterable[float]) -> float:
    """Jain's fairness index: ``(Σx)² / (n·Σx²)`` ∈ (0, 1].

    1.0 means perfectly even allocation.  An empty or all-zero input
    returns 1.0 (nothing was allocated, so nothing was unfair).  The
    index is scale-free, so values are divided by the largest before
    squaring: squares of tiny values would otherwise be subnormal and
    lose the precision that keeps the index at or below 1.
    """
    values = [float(c) for c in counts]
    peak = max((abs(v) for v in values), default=0.0)
    if peak == 0.0:
        return 1.0
    scaled = [v / peak for v in values]
    total = sum(scaled)
    squares = sum(v * v for v in scaled)
    return total * total / (len(scaled) * squares)


def selection_spread(counts: Iterable[int]) -> Tuple[int, int]:
    """(min, max) selections across devices; equal values = fair."""
    values = list(counts)
    if not values:
        return (0, 0)
    return (min(values), max(values))


def ideal_spread(total_selections: int, device_count: int) -> Tuple[int, int]:
    """The fairest possible (min, max) for a given workload.

    E.g. 18 selections over 11 devices can at best be (1, 2) — exactly
    the Fig. 9 outcome.
    """
    if device_count <= 0:
        raise ValueError("device_count must be positive")
    if total_selections < 0:
        raise ValueError("total_selections must be non-negative")
    base, extra = divmod(total_selections, device_count)
    if extra == 0:
        return (base, base)
    return (base, base + 1)


def is_fair_rotation(
    per_device_counts: Dict[str, int], total_selections: int
) -> bool:
    """Whether selection counts match the ideal rotation's spread.

    Devices that were never qualified are not in ``per_device_counts``
    and do not count against fairness.
    """
    if not per_device_counts:
        return total_selections == 0
    lo, hi = ideal_spread(total_selections, len(per_device_counts))
    actual_lo, actual_hi = selection_spread(per_device_counts.values())
    return actual_lo >= lo and actual_hi <= hi


def fairness_report(per_device_counts: Dict[str, int]) -> Dict[str, float]:
    """A compact fairness summary for experiment output."""
    counts = list(per_device_counts.values())
    lo, hi = selection_spread(counts)
    return {
        "devices": len(counts),
        "total_selections": sum(counts),
        "min_selections": lo,
        "max_selections": hi,
        "jain_index": jain_index(counts),
    }
