"""eNodeBs (cell towers) and the registry the Sense-Aid server queries.

The paper's design point is that the cellular edge *already knows* each
device's coarse location (which cell it is attached to) and its RRC
state, so the middleware gets both for free, without any GPS cost on
the device.  :class:`TowerRegistry` is that source of truth: it tracks
which tower each registered device is attached to and exposes
location/radio-state lookups to the server side.

Devices are referenced by duck type: anything with a ``device_id``
attribute, a ``position()`` method returning an
:class:`~repro.environment.geometry.Point`, and a ``modem`` attribute
(a :class:`~repro.cellular.rrc.RadioModem`).

Scale-out design (see ``docs/performance.md``): the registry keeps a
:class:`~repro.cellular.spatial.UniformGridIndex` of last-observed
device positions, so ``devices_within`` is a bucket lookup bounded by
local occupancy instead of an O(fleet) scan, and position refreshes
are incremental — devices whose mobility model reports them mid-pause
(``position_valid_until``) are skipped outright, and only devices
re-read since their last attachment decision are re-attached.  All of
it is exact: indexed queries return bit-identical results to the
brute-force scan (``devices_within_scan``), which stays available for
verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cellular.spatial import Cell, UniformGridIndex
from repro.environment.geometry import Point
from repro.sim.perf import PerfRegistry


@dataclass(eq=False)
class ENodeB:
    """One cell tower.

    ``operational`` models whole-tower outages (power loss, backhaul
    cut): a failed tower serves no traffic, and the registry
    re-associates its devices with the nearest surviving tower.
    Compared by identity, so towers stay usable as dict keys across
    fail/restore transitions.
    """

    tower_id: str
    position: Point
    coverage_radius_m: float = 1500.0
    operational: bool = True

    def covers(self, point: Point) -> bool:
        return point.within(self.position, self.coverage_radius_m)

    def fail(self) -> None:
        """Take this tower out of service."""
        self.operational = False

    def restore(self) -> None:
        """Bring this tower back into service."""
        self.operational = True


class TowerRegistry:
    """Tracks towers and device attachments.

    Attachment is nearest-tower.  ``refresh_attachments`` re-evaluates
    devices against the towers, which mirrors how a handover updates
    the network's view.  The Sense-Aid server calls it only when a
    request reads the edge view, and every tower fail or restore calls
    it for the whole fleet.  With a bound clock the refresh is
    memoised per simulation instant and skips provably-stationary
    devices, so repeated snapshots within one scheduling round are
    free.

    ``use_spatial_index`` selects the grid-backed ``devices_within``
    (the default); the brute-force scan remains available both as the
    fallback and as the reference implementation the property tests
    compare against.  ``version`` counts membership/topology changes
    and keys the server's qualification caches.
    """

    def __init__(
        self,
        towers: Sequence[ENodeB],
        *,
        cell_size_m: float = 500.0,
        use_spatial_index: bool = True,
    ) -> None:
        if not towers:
            raise ValueError("at least one tower is required")
        ids = [t.tower_id for t in towers]
        if len(set(ids)) != len(ids):
            raise ValueError("tower ids must be unique")
        self._towers: Dict[str, ENodeB] = {t.tower_id: t for t in towers}
        self._devices: Dict[str, object] = {}
        self._attachment: Dict[str, str] = {}
        self.use_spatial_index = use_spatial_index
        self._grid = UniformGridIndex(cell_size_m)
        #: Until when each device's observed position is provably fresh.
        self._position_expiry: Dict[str, float] = {}
        #: Devices re-read since their attachment was last recomputed.
        self._attach_dirty: Set[str] = set()
        self._clock: Optional[object] = None  # set by ``bind``
        self._perf = PerfRegistry()
        #: Membership/topology change counter (cache key for callers).
        self._version = 0
        #: Bumped by tower fail/restore — forces a full re-attachment.
        self._topology_version = 0
        self._attachments_topology = 0
        #: Per-grid-cell candidate towers (see ``_candidate_towers``).
        self._cell_candidates: Dict[Cell, Tuple[ENodeB, ...]] = {}
        self._positions_time: Optional[float] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def bind(self, sim: object) -> None:
        """Adopt a simulator's clock and perf registry.

        The only way to give a registry a clock: ``SenseAidServer``
        calls it at construction, so every registry in a run memoises
        refreshes per simulation instant and counts its work in
        ``sim.perf``.  An unbound registry re-reads positions on every
        refresh and counts in a registry of its own.  Idempotent.
        """
        self._clock = sim
        self._perf = sim.perf

    @property
    def perf(self) -> PerfRegistry:
        """Perf probes for the registry's hot paths."""
        return self._perf

    @property
    def version(self) -> int:
        """Monotone counter of membership and topology changes."""
        return self._version

    def grid_stats(self) -> Dict[str, float]:
        """Spatial-index occupancy statistics (benchmark gates)."""
        return self._grid.occupancy_stats()

    def _now(self) -> Optional[float]:
        return self._clock.now if self._clock is not None else None

    # ------------------------------------------------------------------
    # Towers
    # ------------------------------------------------------------------

    @property
    def towers(self) -> List[ENodeB]:
        return list(self._towers.values())

    def tower(self, tower_id: str) -> ENodeB:
        try:
            return self._towers[tower_id]
        except KeyError:
            raise KeyError(
                f"unknown tower {tower_id!r}; available: {sorted(self._towers)}"
            ) from None

    def nearest_tower(self, point: Point) -> ENodeB:
        """Nearest *operational* tower to a point.

        During a total outage (no tower operational) the plain nearest
        tower is returned — devices stay nominally attached, and the
        fault layer drops their traffic until a tower is restored.
        Exact ties go to the tower registered first.  Only the point's
        grid-cell candidates are examined; the perf probe
        ``registry.nearest_tower`` records how many.
        """
        cell = self._grid.cell_of(point)
        candidates = self._cell_candidates.get(cell)
        if candidates is None:
            candidates = self._cell_candidates[cell] = self._candidate_towers(cell)
        self._perf.count("registry.nearest_tower", len(candidates))
        if len(candidates) == 1:
            return candidates[0]
        return min(candidates, key=lambda t: t.position.distance_to(point))

    def _candidate_towers(self, cell: Cell) -> Tuple[ENodeB, ...]:
        """Every tower that can be nearest to some point of a grid cell.

        Works on the cell padded by ``1e-6 × cell_size``, which absorbs
        float rounding in ``cell_of`` and ``distance_to``.  No point of
        the padded cell is farther from its nearest tower than ``reach``,
        the smallest farthest-corner distance over the pool, so a tower
        whose closest approach to the padded cell exceeds ``reach`` plus
        the pad is strictly beaten everywhere in it and is dropped.  The
        survivors keep registry order, so ``min`` over them breaks exact
        ties as a scan over the whole pool does.
        """
        pool = self.operational_towers() or list(self._towers.values())
        size = self._grid.cell_size_m
        pad = 1e-6 * size
        x0, y0 = cell[0] * size - pad, cell[1] * size - pad
        x1, y1 = x0 + size + 2 * pad, y0 + size + 2 * pad

        def closest(p: Point) -> float:
            return math.hypot(max(x0 - p.x, 0.0, p.x - x1), max(y0 - p.y, 0.0, p.y - y1))

        def farthest(p: Point) -> float:
            return math.hypot(max(p.x - x0, x1 - p.x), max(p.y - y0, y1 - p.y))

        reach = min(farthest(t.position) for t in pool) + pad
        return tuple(t for t in pool if closest(t.position) <= reach)

    def operational_towers(self) -> List[ENodeB]:
        return [t for t in self._towers.values() if t.operational]

    def fail_tower(self, tower_id: str) -> None:
        """Fail a tower and re-associate its devices (handover storm)."""
        self.tower(tower_id).fail()
        self._note_topology_change()
        self.refresh_attachments()

    def restore_tower(self, tower_id: str) -> None:
        """Restore a tower; devices re-associate by proximity."""
        self.tower(tower_id).restore()
        self._note_topology_change()
        self.refresh_attachments()

    def _note_topology_change(self) -> None:
        self._version += 1
        self._topology_version += 1
        self._cell_candidates.clear()

    def towers_covering(self, center: Point, radius_m: float) -> List[ENodeB]:
        """Towers whose coverage intersects a task's circular region."""
        if radius_m < 0:
            raise ValueError(f"radius must be non-negative, got {radius_m!r}")
        return [
            t
            for t in self._towers.values()
            if t.position.distance_to(center) <= t.coverage_radius_m + radius_m
        ]

    # ------------------------------------------------------------------
    # Devices
    # ------------------------------------------------------------------

    def attach_device(self, device: object) -> ENodeB:
        """Register a device with the network; returns its serving tower."""
        device_id = getattr(device, "device_id")
        self._devices[device_id] = device
        position = self._observe_position(device_id, device, self._now())
        tower = self.nearest_tower(position)
        self._attachment[device_id] = tower.tower_id
        self._attach_dirty.discard(device_id)
        self._version += 1
        return tower

    def detach_device(self, device_id: str) -> None:
        if self._devices.pop(device_id, None) is None:
            return
        self._attachment.pop(device_id, None)
        self._grid.remove(device_id)
        self._position_expiry.pop(device_id, None)
        self._attach_dirty.discard(device_id)
        self._version += 1

    def device(self, device_id: str) -> object:
        try:
            return self._devices[device_id]
        except KeyError:
            raise KeyError(f"device {device_id!r} is not attached") from None

    def device_ids(self) -> List[str]:
        return sorted(self._devices)

    def __contains__(self, device_id: object) -> bool:
        """Whether a device is attached — O(1), unlike ``device_ids()``."""
        return device_id in self._devices

    # ------------------------------------------------------------------
    # Position observation (spatial index maintenance)
    # ------------------------------------------------------------------

    def _observe_position(
        self, device_id: str, device: object, now: Optional[float]
    ) -> Point:
        """Read a device's position into the grid; returns it."""
        position = device.position()
        self._grid.update(device_id, position)
        expiry = float("-inf")  # unknown mobility: always re-read
        if now is not None:
            mobility = getattr(device, "mobility", None)
            valid_until = getattr(mobility, "position_valid_until", None)
            if valid_until is not None:
                expiry = valid_until(now)
        self._position_expiry[device_id] = expiry
        return position

    def refresh_positions(self) -> None:
        """Bring observed positions up to date with the mobility models.

        Memoised per simulation instant (positions are pure functions
        of time), and incremental within an instant change: devices
        whose mobility model guarantees they have not moved since the
        last observation are skipped without a position read.
        """
        now = self._now()
        if now is not None and self._positions_time == now:
            self._perf.count("registry.refresh_positions.memo_hit")
            return
        reread = 0
        for device_id, device in self._devices.items():
            if now is not None and self._position_expiry.get(
                device_id, float("-inf")
            ) > now:
                continue
            reread += 1
            self._observe_position(device_id, device, now)
            self._attach_dirty.add(device_id)
        self._perf.count("registry.refresh_positions", reread)
        self._positions_time = now

    def refresh_attachments(self) -> None:
        """Re-associate devices with their nearest towers (handover).

        Only devices re-read since their last attachment decision (plus
        everyone after a tower fail/restore) are re-evaluated, each
        against its grid cell's candidate towers only.
        """
        self.refresh_positions()
        if self._attachments_topology != self._topology_version:
            dirty = list(self._devices)
            self._attachments_topology = self._topology_version
        else:
            dirty = [d for d in self._attach_dirty if d in self._devices]
        position, nearest = self._grid.position, self.nearest_tower
        for device_id in dirty:
            self._attachment[device_id] = nearest(position(device_id)).tower_id
        self._attach_dirty.clear()
        self._perf.count("registry.refresh_attachments", len(dirty))

    def serving_tower(self, device_id: str) -> ENodeB:
        self._require(device_id)
        return self._towers[self._attachment[device_id]]

    def serving_tower_operational(self, device_id: str) -> bool:
        """Whether the device's serving tower is currently in service."""
        return self.serving_tower(device_id).operational

    # ------------------------------------------------------------------
    # Edge visibility used by the Sense-Aid server
    # ------------------------------------------------------------------

    def devices_within(self, center: Point, radius_m: float) -> List[str]:
        """Device ids currently inside a circular region.

        Ordered by distance from the centre, then id — a deterministic
        contract shared with :meth:`devices_within_scan`, so indexed
        and scanned results are interchangeable under the same seed.
        With the spatial index (the default) the query touches only
        the grid buckets intersecting the circle; the perf probe
        ``registry.devices_within`` records how many candidates each
        query actually examined.
        """
        if radius_m < 0:
            raise ValueError(f"radius must be non-negative, got {radius_m!r}")
        if not self.use_spatial_index:
            return self.devices_within_scan(center, radius_m)
        self.refresh_positions()
        touched = 0
        results = []
        for device_id in self._grid.candidates_in_circle(center, radius_m):
            touched += 1
            distance = self._grid.position(device_id).distance_to(center)
            if distance <= radius_m:
                results.append((distance, device_id))
        results.sort()
        self._perf.count("registry.devices_within", touched)
        return [device_id for _, device_id in results]

    def devices_within_scan(self, center: Point, radius_m: float) -> List[str]:
        """Reference O(fleet) implementation of :meth:`devices_within`.

        Reads live positions from every device; kept as the fallback
        (``use_spatial_index=False``) and as the ground truth the
        property tests compare the grid against.
        """
        if radius_m < 0:
            raise ValueError(f"radius must be non-negative, got {radius_m!r}")
        results = []
        for device_id, device in self._devices.items():
            distance = device.position().distance_to(center)
            if distance <= radius_m:
                results.append((distance, device_id))
        results.sort()
        self._perf.count("registry.devices_within_scan", len(self._devices))
        return [device_id for _, device_id in results]

    def candidate_count_within(self, center: Point, radius_m: float) -> int:
        """Cheap upper bound on ``len(devices_within(center, radius_m))``.

        Counts grid candidates without distance tests — every in-region
        device is a candidate, so a count below a request's density
        proves the request unsatisfiable without scoring anyone.
        """
        if radius_m < 0:
            raise ValueError(f"radius must be non-negative, got {radius_m!r}")
        if not self.use_spatial_index:
            return len(self._devices)
        self.refresh_positions()
        return sum(1 for _ in self._grid.candidates_in_circle(center, radius_m))

    def radio_state(self, device_id: str):
        """The RRC state of a device, as visible to its eNodeB."""
        return self._require(device_id).modem.state

    def seconds_since_last_comm(self, device_id: str) -> Optional[float]:
        """The TTL selector factor: age of the device's last transfer."""
        return self._require(device_id).modem.seconds_since_last_comm()

    def _require(self, device_id: str) -> object:
        if device_id not in self._devices:
            raise KeyError(f"device {device_id!r} is not attached")
        return self._devices[device_id]


def grid_towers(
    width_m: float, height_m: float, rows: int = 2, cols: int = 2
) -> List[ENodeB]:
    """Lay out a rows×cols grid of towers (1,500 m coverage radius each)
    covering a rectangle."""
    if rows <= 0 or cols <= 0:
        raise ValueError("rows and cols must be positive")
    towers = []
    for r in range(rows):
        for c in range(cols):
            x = width_m * (2 * c + 1) / (2 * cols)
            y = height_m * (2 * r + 1) / (2 * rows)
            towers.append(
                ENodeB(
                    tower_id=f"enb-{r}{c}",
                    position=Point(x, y),
                    coverage_radius_m=1500.0,
                )
            )
    return towers
