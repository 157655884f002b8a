"""Uniform-grid spatial index for the tower registry's device fleet.

``TowerRegistry.devices_within`` answers "which devices are inside this
task's circle right now?" — the single hottest control-plane query.  A
linear scan is O(fleet) per request; at city scale (thousands of
devices, dozens of concurrent campaigns) that dominates the run.  The
fix mirrors cniCloud's lesson for querying cellular state at scale:
index first, scan never.

The index is a uniform grid: the plane is cut into ``cell_size_m``
squares and each device lives in the bucket of its last observed
position.  A circle query touches only the buckets intersecting the
circle's bounding box, so the work per query is bounded by the
occupancy of those buckets — independent of fleet size.  Position
updates are incremental: a device that moved within its cell is a
no-op, a device that crossed a cell border moves between two set
buckets, both O(1).

The index stores *observed* positions; whoever owns it (the registry)
is responsible for refreshing observations before querying.  Exactness
is preserved because the grid only pre-filters: every candidate still
gets the precise circle test against its stored position.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.environment.geometry import Point

Cell = Tuple[int, int]


class UniformGridIndex:
    """Point set with O(1) updates and bucket-bounded circle queries."""

    def __init__(self, cell_size_m: float = 500.0) -> None:
        if cell_size_m <= 0:
            raise ValueError(f"cell_size_m must be positive, got {cell_size_m!r}")
        self.cell_size_m = cell_size_m
        self._buckets: Dict[Cell, Set[str]] = {}
        self._cells: Dict[str, Cell] = {}
        self._points: Dict[str, Point] = {}

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def cell_of(self, point: Point) -> Cell:
        size = self.cell_size_m
        return (int(point.x // size), int(point.y // size))

    def update(self, item_id: str, point: Point) -> bool:
        """Observe an item's position; returns True if it changed bucket."""
        cell = self.cell_of(point)
        old = self._cells.get(item_id)
        self._points[item_id] = point
        if old == cell:
            return False
        if old is not None:
            bucket = self._buckets[old]
            bucket.discard(item_id)
            if not bucket:
                del self._buckets[old]
        self._buckets.setdefault(cell, set()).add(item_id)
        self._cells[item_id] = cell
        return True

    def remove(self, item_id: str) -> None:
        cell = self._cells.pop(item_id, None)
        self._points.pop(item_id, None)
        if cell is None:
            return
        bucket = self._buckets[cell]
        bucket.discard(item_id)
        if not bucket:
            del self._buckets[cell]

    def position(self, item_id: str) -> Optional[Point]:
        """The last observed position, or None if never observed."""
        return self._points.get(item_id)

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._cells

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def candidates_in_circle(self, center: Point, radius_m: float) -> Iterator[str]:
        """Item ids in buckets intersecting the circle's bounding box.

        A superset of the exact answer — callers apply the precise
        distance test.  When the bounding box covers more cells than
        exist (huge radius, sparse world) the occupied buckets are
        walked directly, so a query never costs more than the fleet.
        """
        if radius_m < 0:
            raise ValueError(f"radius must be non-negative, got {radius_m!r}")
        size = self.cell_size_m
        min_cx = int((center.x - radius_m) // size)
        max_cx = int((center.x + radius_m) // size)
        min_cy = int((center.y - radius_m) // size)
        max_cy = int((center.y + radius_m) // size)
        box_cells = (max_cx - min_cx + 1) * (max_cy - min_cy + 1)
        if box_cells >= len(self._buckets):
            for (cx, cy), bucket in self._buckets.items():
                if min_cx <= cx <= max_cx and min_cy <= cy <= max_cy:
                    yield from bucket
            return
        for cx in range(min_cx, max_cx + 1):
            for cy in range(min_cy, max_cy + 1):
                bucket = self._buckets.get((cx, cy))
                if bucket:
                    yield from bucket

    def query_circle(self, center: Point, radius_m: float) -> List[Tuple[float, str]]:
        """Exact members of the circle as ``(distance, id)``, sorted.

        Sorted by distance then id — the registry's deterministic
        ordering contract (nearest first, ids break ties).
        """
        results = []
        for item_id in self.candidates_in_circle(center, radius_m):
            distance = self._points[item_id].distance_to(center)
            if distance <= radius_m:
                results.append((distance, item_id))
        results.sort()
        return results

    # ------------------------------------------------------------------
    # Introspection (perf gates, tests)
    # ------------------------------------------------------------------

    def bucket_count(self) -> int:
        return len(self._buckets)

    def occupancy_stats(self) -> Dict[str, float]:
        """Bucket statistics for scorecards and gates."""
        occupancies = [len(b) for b in self._buckets.values()]
        total = sum(occupancies)
        return {
            "items": total,
            "buckets": len(occupancies),
            "max_bucket": max(occupancies, default=0),
            "mean_bucket": total / len(occupancies) if occupancies else 0.0,
            "cell_size_m": self.cell_size_m,
        }
