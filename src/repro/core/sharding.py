"""Self-healing fleet of Sense-Aid edge instances (paper §3.2).

One :class:`~repro.core.server.SenseAidServer` per shard.  The default
placement partitions devices by a consistent-hash ring over their ids
(it shards *control-plane load*); :class:`NearestSite` partitions them
by geography instead — each instance "located spatially close to the
mobile devices", with a periodic rebalance handing devices over as
they move.  What this module adds on top of a set of independent
servers is everything needed to keep campaigns running when one of
them dies:

- :class:`ConsistentHashRing` — sha256-based ring with virtual nodes;
  each device id hashes to the shard that owns its control state.
- :class:`PhiAccrualFailureDetector` — Hayashibara-style suspicion
  over heartbeat inter-arrival times on the peer links.  Suspicion is
  a continuous value (phi); crossing a configurable threshold, not a
  hard timeout, triggers failover.
- Epoch-fenced failover — when a shard is declared dead, a standby
  peer *fences* the dead incumbent's write-ahead log (a zombie on the
  wrong side of a partition can keep serving devices but can no longer
  touch the log), replays the WAL into a fresh incarnation whose epoch
  is one past every recorded one, takes over the shard's range, and
  redirects the shard's clients.  Stale assignments from the deposed
  incumbent carry the old epoch and are dropped client-side.
- Anti-entropy reconciliation — after partitions heal,
  :meth:`ShardedSenseAid.anti_entropy_diff` compares what clients know
  was acknowledged (and what deposed zombies burned) against the
  owning shard's idempotency keys; :meth:`ShardedSenseAid.repair`
  merges the difference, so an upload acknowledged by *any* incumbent
  is never re-counted later — the existing ``upload_id`` idempotency
  does the heavy lifting.
- Cross-shard task planning — on the ring, a campaign whose region
  spans ring boundaries is split into per-shard subtasks with the
  spatial density apportioned to each shard's candidate population
  (under :class:`NearestSite` it goes whole to the shard nearest its
  centre); results are re-tagged with the parent task id, and
  :class:`CrossShardTask` flags the window during which any
  participating shard is down (graceful degradation instead of
  silent gaps).

Determinism: the fleet draws no random numbers — ring placement is
sha256, site distances break ties by shard order, heartbeats and
rebalances are fixed-period processes, and all bookkeeping iterates
insertion-ordered dicts — so a fleet run is bit-replayable like
everything else in the simulator.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.cellular.enodeb import ENodeB, TowerRegistry
from repro.cellular.network import CellularNetwork
from repro.core.config import SenseAidConfig
from repro.core.server import SenseAidServer, SensedDataPoint
from repro.core.tasks import TaskSpec
from repro.core.wal import DurableLog
from repro.environment.geometry import Point
from repro.sim.engine import Simulator
from repro.sim.processes import PeriodicProcess
from repro.sim.simlog import SimLogger

DataCallback = Callable[[SensedDataPoint], None]


# ----------------------------------------------------------------------
# Consistent-hash ring
# ----------------------------------------------------------------------


def _ring_hash(key: str) -> int:
    """Stable 64-bit position on the ring (sha256, *not* ``hash()`` —
    Python's string hash is salted per process and would re-shard the
    fleet on every run)."""
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


class ConsistentHashRing:
    """Consistent hashing with virtual nodes.

    :attr:`VNODES` virtual points per shard smooth the range sizes;
    adding or removing one shard moves only the keys in its ranges,
    which is what makes failover a *range handover* instead of a
    reshuffle.
    """

    VNODES = 64

    def __init__(self, shard_ids: Sequence[str]) -> None:
        ids = list(shard_ids)
        if not ids:
            raise ValueError("at least one shard is required")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate shard ids: {sorted(ids)}")
        self._shard_ids = ids
        self._points: List[tuple] = sorted(
            (_ring_hash(f"{shard_id}#{v}"), shard_id)
            for shard_id in ids
            for v in range(self.VNODES)
        )

    @property
    def shard_ids(self) -> List[str]:
        return list(self._shard_ids)

    def _walk(self, key: str) -> Iterable[str]:
        """Shards in ring order starting at the key's position."""
        position = _ring_hash(key)
        points = self._points
        lo, hi = 0, len(points)
        while lo < hi:
            mid = (lo + hi) // 2
            if points[mid][0] < position:
                lo = mid + 1
            else:
                hi = mid
        for i in range(len(points)):
            yield points[(lo + i) % len(points)][1]

    def owner(self, key: str) -> str:
        """The shard owning a key (first point at or after its hash)."""
        return next(iter(self._walk(key)))

    def preference(self, key: str) -> List[str]:
        """Every shard, once each, in ring order from the key.

        ``preference(key)[0]`` is the owner; the rest are the standby
        order a failover consults.
        """
        want = len(self._shard_ids)
        out: List[str] = []
        for shard_id in self._walk(key):
            if shard_id not in out:
                out.append(shard_id)
                if len(out) >= want:
                    break
        return out


# ----------------------------------------------------------------------
# Phi-accrual failure detection
# ----------------------------------------------------------------------


class PhiAccrualFailureDetector:
    """Suspicion level over heartbeat inter-arrival times.

    phi(t) = -log10(P(a heartbeat arrives later than t)), with the
    arrival model a normal fit over the last :attr:`WINDOW` observed
    intervals.  ``min_std_s`` floors the fitted deviation so that the
    metronomic heartbeats of a simulator (zero variance) still yield a
    finite, tunable detection point instead of an instant trip.

    Until the first heartbeat, silence is measured from ``started_at``
    against the expected interval, so a peer that dies before it is
    ever heard is still suspected; without a start time phi stays 0
    until then.
    """

    PHI_CAP = 300.0
    WINDOW = 64

    def __init__(
        self,
        expected_interval_s: float,
        *,
        min_std_s: Optional[float] = None,
        started_at: Optional[float] = None,
    ) -> None:
        if expected_interval_s <= 0:
            raise ValueError("expected_interval_s must be positive")
        self._expected = expected_interval_s
        self._min_std = (
            min_std_s if min_std_s is not None else expected_interval_s / 10.0
        )
        if self._min_std <= 0:
            raise ValueError("min_std_s must be positive")
        self._intervals: List[float] = []
        self._started_at = started_at
        self.last_heartbeat: Optional[float] = None
        self.heartbeats = 0

    def heartbeat(self, now: float) -> None:
        if self.last_heartbeat is not None:
            self._intervals.append(now - self.last_heartbeat)
            if len(self._intervals) > self.WINDOW:
                self._intervals.pop(0)
        self.last_heartbeat = now
        self.heartbeats += 1

    @property
    def silent_since(self) -> Optional[float]:
        """The last heartbeat, else the start time (None if neither)."""
        if self.last_heartbeat is not None:
            return self.last_heartbeat
        return self._started_at

    def phi(self, now: float) -> float:
        """Current suspicion of silence since :attr:`silent_since`."""
        since = self.silent_since
        if since is None:
            return 0.0
        if self._intervals:
            mean = sum(self._intervals) / len(self._intervals)
            var = sum((x - mean) ** 2 for x in self._intervals) / len(self._intervals)
            std = max(math.sqrt(var), self._min_std)
        else:
            mean, std = self._expected, self._min_std
        z = (now - since - mean) / std
        p_later = 0.5 * math.erfc(z / math.sqrt(2.0))
        if p_later <= 10.0 ** (-self.PHI_CAP):
            return self.PHI_CAP
        return -math.log10(p_later)


# ----------------------------------------------------------------------
# Fleet topology
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardSpec:
    """One control-plane shard: an id, a site, and its radio towers.

    When ``towers`` is empty a single wide-coverage eNodeB is placed at
    the site — shards partition control state, not radio coverage, so
    the default tower simply has to hear the shard's devices wherever
    the placement puts them.
    """

    shard_id: str
    site: Point
    towers: Sequence[ENodeB] = ()
    coverage_radius_m: float = 5000.0

    def build_towers(self) -> List[ENodeB]:
        if self.towers:
            return list(self.towers)
        return [
            ENodeB(
                f"{self.shard_id}-t0",
                self.site,
                coverage_radius_m=self.coverage_radius_m,
            )
        ]


@dataclass(frozen=True)
class NearestSite:
    """Geographic placement: each device, task and successor goes to
    the live shard whose site is nearest, and every
    ``rebalance_period_s`` devices that moved are handed over."""

    rebalance_period_s: float = 60.0

    def __post_init__(self) -> None:
        if self.rebalance_period_s <= 0:
            raise ValueError("rebalance_period_s must be positive")


@dataclass
class FailoverRecord:
    """One completed range handover (for tests and the benchmark)."""

    shard_id: str
    standby_id: str
    completed_at: float
    detection_intervals: float
    old_epoch: int
    new_epoch: int
    was_partitioned: bool


class CrossShardTask:
    """Handle for a campaign fanned out over the fleet (split across
    ring boundaries, or whole at its nearest site).

    Collects re-tagged results from every per-shard subtask and tracks
    degradation: while any participating shard's incumbent is down
    (crashed and not yet failed over), delivered points are counted as
    degraded and :attr:`degraded` reads True — the application knows
    its qualification results are partial rather than silently short.
    """

    def __init__(
        self, fleet: "ShardedSenseAid", task: TaskSpec, callback: DataCallback
    ) -> None:
        self.task = task
        self._fleet = fleet
        self._callback = callback
        #: shard id -> subtask id
        self.subtasks: Dict[str, int] = {}
        #: shard id -> spatial density apportioned to it
        self.allocations: Dict[str, int] = {}
        self.points = 0
        self.degraded_points = 0
        self.points_by_shard: Dict[str, int] = {}

    @property
    def degraded(self) -> bool:
        """True while any shard serving a subtask is down."""
        return any(self._fleet.shard_down(sid) for sid in self.subtasks)

    def subtask_callback(self, shard_id: str) -> DataCallback:
        def deliver(point: SensedDataPoint) -> None:
            self._deliver(shard_id, point)

        return deliver

    def _deliver(self, shard_id: str, point: SensedDataPoint) -> None:
        retagged = SensedDataPoint(
            request_id=point.request_id,
            task_id=self.task.task_id,
            sensor_type=point.sensor_type,
            value=point.value,
            sensed_at=point.sensed_at,
            delivered_at=point.delivered_at,
            device_hash=point.device_hash,
        )
        self.points += 1
        self.points_by_shard[shard_id] = self.points_by_shard.get(shard_id, 0) + 1
        if self.degraded:
            self.degraded_points += 1
        self._callback(retagged)


# ----------------------------------------------------------------------
# The sharded fleet
# ----------------------------------------------------------------------


class ShardedSenseAid:
    """A fleet of Sense-Aid servers that heals itself.

    Wraps N :class:`~repro.core.server.SenseAidServer` instances (one
    per :class:`ShardSpec`, each with its own tower registry and —
    when ``wal_root`` is given — its own write-ahead log), a placement
    (the ring over device ids, or :class:`NearestSite`), a
    heartbeat/phi failure detector per shard, and the failover +
    anti-entropy machinery described in the module docstring.
    """

    def __init__(
        self,
        sim: Simulator,
        network: CellularNetwork,
        shards: Sequence[ShardSpec],
        config: Optional[SenseAidConfig] = None,
        *,
        wal_root: Optional[str] = None,
        heartbeat_period_s: float = 5.0,
        phi_threshold: float = 8.0,
        min_std_s: Optional[float] = None,
        redirect_latency_s: float = 0.05,
        placement: Optional[NearestSite] = None,
    ) -> None:
        specs = list(shards)
        if len(specs) < 2:
            raise ValueError("a sharded fleet needs at least 2 shards")
        ids = [s.shard_id for s in specs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate shard ids: {sorted(ids)}")
        if heartbeat_period_s <= 0:
            raise ValueError("heartbeat_period_s must be positive")
        if phi_threshold <= 0:
            raise ValueError("phi_threshold must be positive")
        self._sim = sim
        self._network = network
        self._config = config if config is not None else SenseAidConfig()
        self._specs: Dict[str, ShardSpec] = {s.shard_id: s for s in specs}
        self._wal_root = wal_root
        self._heartbeat_period = heartbeat_period_s
        self._phi_threshold = phi_threshold
        self._min_std = min_std_s
        self._redirect_latency = redirect_latency_s
        self._placement = placement
        self._ring = ConsistentHashRing(ids)
        self.log = SimLogger(sim, "repro.core.sharding")

        self._registries: Dict[str, TowerRegistry] = {}
        self._servers: Dict[str, SenseAidServer] = {}
        #: shard id -> host shard currently running its incumbent.
        self._hosted_by: Dict[str, str] = {}
        for spec in specs:
            registry = TowerRegistry(spec.build_towers())
            self._registries[spec.shard_id] = registry
            self._servers[spec.shard_id] = SenseAidServer(
                sim,
                registry,
                network,
                self._config,
                wal=self._make_wal(spec.shard_id),
            )
            self._hosted_by[spec.shard_id] = spec.shard_id

        #: Shards whose *peer links* are cut: the incumbent may still
        #: serve its devices (split brain) but emits no heartbeats.
        self._partitioned: Set[str] = set()
        #: Deposed incumbents, kept until anti-entropy retires them.
        self._deposed: Dict[str, SenseAidServer] = {}
        self._detectors: Dict[str, PhiAccrualFailureDetector] = {
            sid: self._make_detector() for sid in self._specs
        }
        self._clients: Dict[str, object] = {}
        self._home: Dict[str, str] = {}
        #: subtask id -> {"shard", "callback", "task", "start", "end"}:
        #: the subtask as submitted, and the window its shard computed.
        self._task_meta: Dict[int, dict] = {}

        self.handoffs = 0
        self._fenced_writes_retired = 0
        self.failover_log: List[FailoverRecord] = []
        #: Every epoch transition a shard's serving instance underwent
        #: (failover or in-place recovery), as ``(shard_id, old, new)``.
        #: The soak invariant suite asserts monotonicity over this log.
        self.epoch_log: List[Tuple[str, int, int]] = []
        self._heartbeat_proc = PeriodicProcess(
            sim, heartbeat_period_s, self._heartbeat_tick
        )
        # Only a geographic fleet rebalances: a ring home never moves,
        # and a ring fleet must push no event beyond its heartbeats.
        self._rebalancer = (
            PeriodicProcess(sim, placement.rebalance_period_s, self.rebalance)
            if placement is not None
            else None
        )

    # -- construction helpers ------------------------------------------

    def _make_wal(self, shard_id: str) -> Optional[DurableLog]:
        if self._wal_root is None:
            return None
        return DurableLog(os.path.join(self._wal_root, shard_id))

    def _make_detector(self) -> PhiAccrualFailureDetector:
        # Started now: an incumbent that dies before its first
        # heartbeat (at start, or right after a failover or recovery)
        # is suspected like any other silent one.
        return PhiAccrualFailureDetector(
            self._heartbeat_period,
            min_std_s=self._min_std,
            started_at=self._sim.now,
        )

    # -- topology queries ----------------------------------------------

    @property
    def failovers(self) -> int:
        """Completed range handovers."""
        return len(self.failover_log)

    @property
    def ring(self) -> ConsistentHashRing:
        return self._ring

    def shard_ids(self) -> List[str]:
        return list(self._specs)

    def instance(self, shard_id: str) -> SenseAidServer:
        """The server currently serving a shard's range."""
        try:
            return self._servers[shard_id]
        except KeyError:
            raise KeyError(
                f"unknown shard {shard_id!r}; available: {sorted(self._specs)}"
            ) from None

    def hosted_by(self, shard_id: str) -> str:
        """Which peer currently hosts a shard's incumbent process."""
        self.instance(shard_id)
        return self._hosted_by[shard_id]

    def deposed_instance(self, shard_id: str) -> Optional[SenseAidServer]:
        return self._deposed.get(shard_id)

    def shard_down(self, shard_id: str) -> bool:
        """Down for *devices*: the serving incumbent has crashed and no
        successor has taken over yet.  A partitioned-but-alive zombie
        still serves its devices, so it does not count."""
        return self.instance(shard_id).crashed

    def home_shard(self, device_id: str) -> str:
        try:
            return self._home[device_id]
        except KeyError:
            raise KeyError(f"unknown device {device_id!r}") from None

    def devices_per_shard(self) -> Dict[str, int]:
        counts = {sid: 0 for sid in self._specs}
        for home in self._home.values():
            counts[home] += 1
        return counts

    def phi(self, shard_id: str) -> float:
        """Current suspicion level for a shard (test/inspection hook)."""
        return self._detectors[shard_id].phi(self._sim.now)

    def writes_fenced(self) -> int:
        """Total zombie writes dropped at the WAL across all deposed
        (and since-retired) incumbents."""
        total = self._fenced_writes_retired
        for server in self._deposed.values():
            if server._wal is not None:
                total += server._wal.writes_fenced
        return total

    # -- registration ---------------------------------------------------

    def register(self, client) -> str:
        """Register a client at its home shard.

        The home is the ring owner of the device id, or under
        :class:`NearestSite` the shard nearest the device.  If that
        incumbent is down, the next live shard in the same order takes
        it (and stays its home — a later failover of the original
        owner does not steal devices back).  A later failover or
        recovery of the home shard redirects the client
        (:meth:`_redirect_clients`).
        """
        device_id = client.device.device_id
        shard_id = self._place(device_id, client.device.position())
        client.bind_server(self._servers[shard_id])
        client.register()
        self._clients[device_id] = client
        self._home[device_id] = shard_id
        return shard_id

    def _order(self, key: str, point: Point) -> List[str]:
        """Shards in placement preference for a ``(key, point)`` pair:
        ring order from the key, or nearest site to the point first
        (``sorted`` is stable, so ties go to the first spec)."""
        if self._placement is None:
            return self._ring.preference(key)
        return sorted(self._specs, key=lambda sid: self._specs[sid].site.distance_to(point))

    def _place(self, key: str, point: Point) -> str:
        """The first live shard in placement order, or the first shard
        if none is live."""
        order = self._order(key, point)
        for shard_id in order:
            if not self._servers[shard_id].crashed:
                return shard_id
        return order[0]

    def deregister(self, device_id: str) -> None:
        client = self._clients.pop(device_id, None)
        self._home.pop(device_id, None)
        if client is not None and client.registered:
            client.deregister()

    def rebalance(self) -> int:
        """Under :class:`NearestSite`, hand devices over to the live
        shard nearest their position; returns the number of handoffs.

        The fleet's periodic process calls this.  Clients that
        deregistered or lost power are skipped: a handover they never
        asked for must not resurrect an ended session.  On the ring it
        is a no-op returning 0: a ring home never moves.
        """
        if self._placement is None:
            return 0
        moved = 0
        for device_id, client in self._clients.items():
            if not client.registered or not client.powered:
                continue
            target = self._place(device_id, client.device.position())
            if target == self._home[device_id]:
                continue
            client.migrate(self._servers[target])
            self._home[device_id] = target
            moved += 1
        self.handoffs += moved
        return moved

    # -- heartbeats and failure detection -------------------------------

    def _emits_heartbeat(self, shard_id: str) -> bool:
        return (
            not self._servers[shard_id].crashed
            and shard_id not in self._partitioned
        )

    def _heartbeat_tick(self) -> None:
        now = self._sim.now
        for shard_id in self._specs:
            if self._emits_heartbeat(shard_id):
                self._detectors[shard_id].heartbeat(now)
        for shard_id in list(self._specs):
            detector = self._detectors[shard_id]
            if detector.phi(now) > self._phi_threshold:
                self.fail_over(shard_id)

    # -- fault surface (driven by repro.faults or tests) -----------------

    def crash_shard(self, shard_id: str) -> None:
        """Hard-kill a shard's incumbent (process death)."""
        self.instance(shard_id).crash()
        self.log.event("shard_crash", shard=shard_id)

    def partition_shard(self, shard_id: str) -> None:
        """Cut a shard's *peer links* only: heartbeats stop reaching
        the others while the incumbent keeps serving its devices — the
        split-brain case epoch fencing exists for."""
        self.instance(shard_id)
        self._partitioned.add(shard_id)
        self.log.event("shard_partition", shard=shard_id)

    def heal_shard(self, shard_id: str) -> None:
        """Restore a shard's peer links.

        If failover already replaced the incumbent, the old one stays
        deposed (a zombie) until :meth:`repair` reconciles and retires
        it; nothing here undoes a completed handover.
        """
        self.instance(shard_id)
        self._partitioned.discard(shard_id)
        self.log.event("shard_heal", shard=shard_id)

    def recover_shard(self, shard_id: str) -> None:
        """Operator-driven recovery of a crashed incumbent *in place*
        (no failover happened — e.g. no standby was available): cold
        restart and client redirects."""
        server = self.instance(shard_id)
        if not server.crashed:
            return
        old_epoch = server.epoch
        server.restart()
        self.epoch_log.append((shard_id, old_epoch, server.epoch))
        self._detectors[shard_id] = self._make_detector()
        self._sim.schedule(
            self._redirect_latency, self._redirect_clients, shard_id, server
        )
        self.log.event("shard_recover", shard=shard_id, epoch=server.epoch)

    # -- epoch-fenced failover -------------------------------------------

    def _standby_for(self, shard_id: str) -> Optional[str]:
        site = self._specs[shard_id].site
        for candidate in self._order(f"range:{shard_id}", site):
            if candidate == shard_id:
                continue
            if self._servers[candidate].crashed:
                continue
            if candidate in self._partitioned:
                continue
            return candidate
        return None

    def fail_over(self, shard_id: str) -> bool:
        """Hand a shard's range to a standby-hosted successor.

        Fences the old incumbent's WAL (zombie writes are dropped from
        here on), builds a fresh server over the same registry and WAL
        directory, replays the log — which bumps the incarnation epoch
        past every recorded one, the fence stale assignments die on —
        and redirects the shard's clients after one control latency.
        Returns False when no live standby exists (the outage simply
        persists; a later tick retries).
        """
        old = self.instance(shard_id)
        standby = self._standby_for(shard_id)
        if standby is None:
            self.log.event("failover_no_standby", shard=shard_id)
            return False
        detector = self._detectors[shard_id]
        now = self._sim.now
        silent_since = detector.silent_since
        last_beat = silent_since if silent_since is not None else now
        was_partitioned = shard_id in self._partitioned
        old_epoch = old.epoch

        if old._wal is not None:
            old._wal.fence()
        replacement = SenseAidServer(
            self._sim,
            self._registries[shard_id],
            self._network,
            self._config,
            wal=self._make_wal(shard_id),
        )
        if replacement._wal is not None:
            # WAL replay resumes this shard's subtasks under their
            # original task ids, each with its delivery callback.
            replacement.take_over(
                {
                    str(task_id): meta["callback"]
                    for task_id, meta in self._task_meta.items()
                    if meta["shard"] == shard_id
                }
            )
        else:
            # No durable log: epoch fencing still works (count past the
            # deposed incumbent), and the shard's subtasks resume on
            # their own grid, as a restart resumes its tasks.
            replacement.epoch = old_epoch
            replacement.take_over({})
            self._resubmit_tasks(shard_id, replacement)

        self._servers[shard_id] = replacement
        self._hosted_by[shard_id] = standby
        self._deposed[shard_id] = old
        self._partitioned.discard(shard_id)
        self._detectors[shard_id] = self._make_detector()
        self.epoch_log.append((shard_id, old_epoch, replacement.epoch))
        self.failover_log.append(
            FailoverRecord(
                shard_id=shard_id,
                standby_id=standby,
                completed_at=now,
                detection_intervals=(now - last_beat) / self._heartbeat_period,
                old_epoch=old_epoch,
                new_epoch=replacement.epoch,
                was_partitioned=was_partitioned,
            )
        )
        self.log.event(
            "shard_failover",
            shard=shard_id,
            standby=standby,
            old_epoch=old_epoch,
            new_epoch=replacement.epoch,
            was_partitioned=was_partitioned,
        )
        self._sim.schedule(
            self._redirect_latency, self._redirect_clients, shard_id, replacement
        )
        # The range has a live incumbent again; restore the shared
        # Sense-Aid path flag a crash cleared.
        self._network.set_sense_aid_path_available(True)
        return True

    def _resubmit_tasks(self, shard_id: str, replacement: SenseAidServer) -> None:
        now = self._sim.now
        for meta in self._task_meta.values():
            if meta["shard"] != shard_id:
                continue
            remainder = meta["task"].resumed(meta["start"], meta["end"], now)
            if remainder is not None:
                replacement.submit_task(remainder, meta["callback"], resume=True)

    def _redirect_clients(self, shard_id: str, server: SenseAidServer) -> None:
        for device_id, home in self._home.items():
            if home != shard_id:
                continue
            client = self._clients[device_id]
            if not client.powered:
                continue
            client.redirect(server)

    # -- cross-shard task planning ---------------------------------------

    def submit_task(self, task: TaskSpec, callback: DataCallback) -> CrossShardTask:
        """Split a campaign across the fleet and fan it out.

        Under :class:`NearestSite` the whole task goes to the live shard
        nearest its centre.  On the ring the spatial density is
        apportioned to shards in proportion to their candidate
        populations (registered, powered devices inside the task
        region carrying the sensor), largest-remainder rounded with
        deterministic shard-id tie-breaks, capped at each shard's
        candidate count while any shard has spare capacity.  Shards
        whose incumbent is down get no allocation (their share goes to
        the survivors) — the surviving subtasks run at full strength
        and the handle flags degradation instead.
        """
        handle = CrossShardTask(self, task, callback)
        allocation = self._split_density(task)
        handle.allocations = dict(allocation)
        for shard_id, density in allocation.items():
            if density <= 0:
                continue
            subtask = TaskSpec(
                sensor_type=task.sensor_type,
                center=task.center,
                area_radius_m=task.area_radius_m,
                spatial_density=density,
                sampling_period_s=task.sampling_period_s,
                sampling_duration_s=task.sampling_duration_s,
                start_time=task.start_time,
                end_time=task.end_time,
                device_type=task.device_type,
                origin=f"{task.origin}@{shard_id}",
            )
            subtask_callback = handle.subtask_callback(shard_id)
            server = self._servers[shard_id]
            server.submit_task(subtask, subtask_callback)
            handle.subtasks[shard_id] = subtask.task_id
            start = server._task_starts[subtask.task_id]
            self._task_meta[subtask.task_id] = {
                "shard": shard_id,
                "callback": subtask_callback,
                "task": subtask,
                "start": start,
                "end": server._task_end(subtask, start),
            }
        self.log.event(
            "cross_shard_task",
            task_id=task.task_id,
            allocations=dict(allocation),
        )
        return handle

    def _candidates(self, task: TaskSpec) -> Dict[str, int]:
        counts = {sid: 0 for sid in self._specs}
        for device_id, client in self._clients.items():
            if not client.registered or not client.powered:
                continue
            device = client.device
            if not device.sensors.has(task.sensor_type):
                continue
            if device.position().distance_to(task.center) > task.area_radius_m:
                continue
            counts[self._home[device_id]] += 1
        return counts

    def _split_density(self, task: TaskSpec) -> Dict[str, int]:
        if self._placement is not None:
            shard_id = self._place(f"task:{task.task_id}", task.center)
            return {shard_id: task.spatial_density}
        candidates = self._candidates(task)
        live = {
            sid: n
            for sid, n in candidates.items()
            if n > 0 and not self._servers[sid].crashed
        }
        total = sum(live.values())
        if total == 0:
            # Nobody qualifies right now: park the whole task on the
            # ring owner of its id so late-arriving devices serve it.
            owner = self._ring.owner(f"task:{task.task_id}")
            if self._servers[owner].crashed:
                standby = self._standby_for(owner)
                owner = standby if standby is not None else owner
            return {owner: task.spatial_density}
        density = task.spatial_density
        shares = {
            sid: (density * n) // total for sid, n in sorted(live.items())
        }
        remainders = sorted(
            live,
            key=lambda sid: ((density * live[sid]) % total, sid),
            reverse=True,
        )
        short = density - sum(shares.values())
        for sid in remainders[:short]:
            shares[sid] += 1
        # Cap at capacity while someone has headroom to take the rest.
        overflow = 0
        for sid in sorted(shares):
            if shares[sid] > live[sid]:
                overflow += shares[sid] - live[sid]
                shares[sid] = live[sid]
        for sid in sorted(shares):
            if overflow <= 0:
                break
            headroom = live[sid] - shares[sid]
            take = min(headroom, overflow)
            shares[sid] += take
            overflow -= take
        if overflow > 0:
            # Demand exceeds the whole fleet's candidates: the largest
            # shard absorbs the surplus and under-satisfies visibly.
            biggest = max(sorted(live), key=lambda sid: live[sid])
            shares[biggest] += overflow
        return shares

    # -- anti-entropy reconciliation -------------------------------------

    def _held(self, upload_id: str, home: str) -> bool:
        """Whether a current incumbent holds an upload's idempotency
        key: the device's home, or another shard — under
        :class:`NearestSite` the acks a device got before a handoff
        stay at the shard that gave them."""
        if upload_id in self._servers[home]._seen_upload_ids:
            return True
        return any(upload_id in s._seen_upload_ids for s in self._servers.values())

    def anti_entropy_diff(self) -> Dict[str, List[str]]:
        """Upload ids acknowledged somewhere but unburned at the owner.

        Two divergence sources after a partition/failover: (a) a client
        holds an ack for an upload no current incumbent saw (a zombie
        acknowledged it after being fenced), listed under the client's
        home, and (b) a deposed incumbent burned keys its successor
        lacks.  Empty dict == the fleet is convergent.
        """
        missing: Dict[str, Set[str]] = {}
        for device_id, keys in self.acked_upload_audit().items():
            missing.setdefault(self._home[device_id], set()).update(keys)
        for shard_id, zombie in self._deposed.items():
            current = self._servers[shard_id]
            for upload_id in zombie._seen_upload_ids:
                if upload_id not in current._seen_upload_ids:
                    missing.setdefault(shard_id, set()).add(upload_id)
        return {sid: sorted(keys) for sid, keys in sorted(missing.items())}

    def acked_upload_audit(self) -> Dict[str, List[str]]:
        """Client-held accepted acks no current incumbent remembers.

        Maps ``device_id -> sorted upload ids`` for every acknowledged
        upload whose idempotency key neither the device's current home
        incumbent nor any other current incumbent holds.  After
        :meth:`repair` this must be empty: an acknowledged reading no
        live incumbent remembers is double-countable on retransmit —
        acknowledged-upload loss from the campaign's point of view.
        """
        lost: Dict[str, Set[str]] = {}
        for device_id, client in sorted(self._clients.items()):
            home = self._home.get(device_id)
            if home is None:
                continue
            for upload_id in getattr(client, "acked_uploads", ()):
                if not self._held(upload_id, home):
                    lost.setdefault(device_id, set()).add(upload_id)
        return {did: sorted(keys) for did, keys in sorted(lost.items())}

    def repair(self) -> dict:
        """Merge divergent idempotency state and retire zombies.

        Burned keys flow one way — into the current owner — so a
        reading acknowledged during the split can never be double
        counted after it.  Deposed incumbents are then shut down for
        good and every live shard checkpoints, making the merged keys
        durable.  Returns a report; ``clean`` means a follow-up diff
        found nothing.
        """
        diff = self.anti_entropy_diff()
        repaired = 0
        for shard_id, keys in diff.items():
            self._servers[shard_id]._seen_upload_ids.update(keys)
            repaired += len(keys)
        for shard_id, zombie in list(self._deposed.items()):
            zombie.shutdown()
            if zombie._wal is not None:
                self._fenced_writes_retired += zombie._wal.writes_fenced
            # Quiet retirement: mark dead without flapping the shared
            # network path flag a real crash() toggles.
            zombie._crashed = True
            del self._deposed[shard_id]
            self.log.event("zombie_retired", shard=shard_id)
        for shard_id, server in self._servers.items():
            if server._wal is not None and not server.crashed:
                server._wal.checkpoint(server)
        after = self.anti_entropy_diff()
        report = {
            "repaired_keys": repaired,
            "diff_before": diff,
            "diff_after": after,
            "clean": not after,
        }
        self.log.event(
            "anti_entropy_repair", repaired=repaired, clean=report["clean"]
        )
        return report

    # -- lifecycle -------------------------------------------------------

    def shutdown(self) -> None:
        self._heartbeat_proc.stop()
        if self._rebalancer is not None:
            self._rebalancer.stop()
        for server in self._servers.values():
            server.shutdown()
        for zombie in self._deposed.values():
            zombie.shutdown()

    def total_data_points(self) -> int:
        return sum(s.stats.data_points for s in self._servers.values())


__all__ = [
    "ConsistentHashRing",
    "PhiAccrualFailureDetector",
    "ShardSpec",
    "NearestSite",
    "FailoverRecord",
    "CrossShardTask",
    "ShardedSenseAid",
]
