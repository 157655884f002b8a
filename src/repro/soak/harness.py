"""The soak harness: build world → inject plan → settle → judge.

One *episode* is a full crowdsensing campaign on a 3-shard WAL-backed
fleet, with a nemesis-generated :class:`FaultPlan` firing against it.
After the fault horizon the harness force-heals anything still broken
(the nemesis pairs most outages itself; shard crashes recover through
failover), lets the fleet settle, runs anti-entropy repair, and then
judges the world against the cross-layer invariant suite
(:mod:`repro.soak.invariants`).

Determinism is the load-bearing property: an episode is a pure
function of ``(master seed, episode index, tier, world shape)``.  The
plan is canonicalized to JSON before the first run and each arm
rebuilds its own plan from that document, because a
:class:`~repro.faults.models.GilbertElliott` loss model steps *in
place* — sharing one instance across runs would leak chain state and
break bit-identity.  ``check_replay`` runs every episode twice and
diffs structured-log signatures and verdicts, emitting
``REPLAY_DIVERGED`` on mismatch.

``planted_bug`` is a test-only hook that tampers with the settled
world before judgement (e.g. ``"lost_ack"`` discards one burned
idempotency key), giving the shrinker and the CI reproducer path a
guaranteed-failing episode to minimize.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cellular.network import CellularNetwork
from repro.clientlib import SenseAidClient
from repro.core.config import (
    OverloadPolicy,
    RetryPolicy,
    SelectorWeights,
    SenseAidConfig,
    ServerMode,
)
from repro.core.sharding import ShardSpec, ShardedSenseAid
from repro.core.tasks import TaskSpec
from repro.devices.device import SimDevice
from repro.devices.sensors import SensorType
from repro.environment.geometry import Point
from repro.environment.mobility import StaticMobility
from repro.faults import FaultInjector, FaultPlan, reset_global_ids
from repro.sim.engine import Simulator
from repro.sim.simlog import structured_log
from repro.soak.invariants import (
    InvariantViolation,
    check_wal_recovery,
    run_invariant_suite,
)
from repro.soak.nemesis import (
    NemesisGenerator,
    WorldSpec,
    episode_seed,
    resolve_tier,
)

#: Shard sites, one default tower each (``<shard>-t0``).
_SITES = (
    ("s1", Point(500.0, 500.0)),
    ("s2", Point(1500.0, 500.0)),
    ("s3", Point(2500.0, 500.0)),
)
_CENTER = Point(1500.0, 500.0)
_HEARTBEAT_S = 5.0
_PHI_THRESHOLD = 8.0

_RETRY = RetryPolicy(
    max_attempts=6,
    ack_timeout_s=20.0,
    backoff_base_s=15.0,
    backoff_multiplier=2.0,
    jitter_fraction=0.0,
    tail_wait_max_s=30.0,
)

#: Fairness-dominant weights — selection depends only on durable
#: counters, the strongest convergence signal WAL replay can give.
_FAIR = SelectorWeights(alpha=0.0, beta=1.0, gamma=0.0, phi=0.0)

#: Known planted bugs (test-only): name -> applied post-repair.
PLANTED_BUGS = ("lost_ack",)


@dataclass
class EpisodeResult:
    """Verdict for one soak episode (one seed, one plan)."""

    episode: int
    sim_seed: int
    plan_obj: dict
    violations: List[InvariantViolation]
    signature: str
    stats: Dict[str, object]
    replay_checked: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def plan_events(self) -> int:
        return len(self.plan_obj["events"])

    def codes(self) -> List[str]:
        return sorted({v.code for v in self.violations})

    def as_dict(self) -> dict:
        return {
            "episode": self.episode,
            "sim_seed": self.sim_seed,
            "plan_events": self.plan_events,
            "ok": self.ok,
            "codes": self.codes(),
            "violations": [v.as_dict() for v in self.violations],
            "signature": self.signature,
            "stats": dict(self.stats),
            "replay_checked": self.replay_checked,
        }


@dataclass
class SoakReport:
    """Aggregate over a soak run."""

    master_seed: int
    tier: str
    results: List[EpisodeResult] = field(default_factory=list)

    @property
    def episodes(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> List[EpisodeResult]:
        return [r for r in self.results if not r.ok]

    @property
    def invariant_pass_rate(self) -> float:
        if not self.results:
            return 1.0
        return 1.0 - len(self.failures) / len(self.results)

    def as_dict(self) -> dict:
        return {
            "master_seed": self.master_seed,
            "tier": self.tier,
            "episodes": self.episodes,
            "invariant_pass_rate": self.invariant_pass_rate,
            "mean_plan_events": (
                sum(r.plan_events for r in self.results) / len(self.results)
                if self.results
                else 0.0
            ),
            "results": [r.as_dict() for r in self.results],
        }


class SoakHarness:
    """Runs seeded soak episodes against the sharded fleet."""

    def __init__(
        self,
        master_seed: int,
        *,
        wal_root: str,
        tier="medium",
        n_devices: int = 10,
        horizon_s: float = 1200.0,
        settle_s: float = 420.0,
        sampling_period_s: float = 150.0,
        spatial_density: int = 3,
        check_replay: bool = True,
        planted_bug: Optional[str] = None,
    ) -> None:
        if planted_bug is not None and planted_bug not in PLANTED_BUGS:
            raise ValueError(
                f"unknown planted bug {planted_bug!r}; known: {PLANTED_BUGS}"
            )
        self.master_seed = master_seed
        self.tier = resolve_tier(tier)
        self.wal_root = wal_root
        self.n_devices = n_devices
        self.horizon_s = float(horizon_s)
        self.settle_s = float(settle_s)
        self.sampling_period_s = float(sampling_period_s)
        self.spatial_density = spatial_density
        self.check_replay = check_replay
        self.planted_bug = planted_bug
        self._generator = NemesisGenerator(master_seed)
        self._run_counter = 0

    # ------------------------------------------------------------------
    # World description (shared with the nemesis and the reproducers)
    # ------------------------------------------------------------------

    def device_ids(self) -> Tuple[str, ...]:
        return tuple(f"d{i:02d}" for i in range(self.n_devices))

    def world_spec(self) -> WorldSpec:
        """What the nemesis may target.  Tower and deregistration
        faults are scoped to the injector's front shard (the first),
        since a :class:`FaultInjector` binds one registry/server."""
        devices = self.device_ids()
        front = _SITES[0][0]
        return WorldSpec(
            horizon_s=self.horizon_s,
            shard_ids=tuple(sid for sid, _ in _SITES),
            tower_ids=(f"{front}-t0",),
            killable_device_ids=devices,
            deregisterable_device_ids=devices,
            overload_enabled=True,
        )

    def world_params(self) -> dict:
        """Everything a reproducer needs to rebuild this harness."""
        return {
            "n_devices": self.n_devices,
            "horizon_s": self.horizon_s,
            "settle_s": self.settle_s,
            "sampling_period_s": self.sampling_period_s,
            "spatial_density": self.spatial_density,
        }

    # ------------------------------------------------------------------
    # One simulated run
    # ------------------------------------------------------------------

    def _fresh_wal_dir(self, label: str) -> str:
        self._run_counter += 1
        return os.path.join(self.wal_root, f"{label}-{self._run_counter:04d}")

    def run_plan_obj(
        self,
        plan_obj: dict,
        sim_seed: int,
        *,
        strict: bool = True,
        planted_bug: Optional[str] = None,
        wal_label: str = "run",
    ) -> Tuple[List[InvariantViolation], str, Dict[str, object]]:
        """Execute one serialized plan and judge the settled world.

        Returns ``(violations, signature, stats)``.  The signature is
        captured *before* the destructive WAL-recovery probe so two
        arms of a replay check compare identically-scoped logs.
        """
        plan = FaultPlan.from_json_obj(plan_obj, strict=strict)
        wal_dir = self._fresh_wal_dir(wal_label)

        reset_global_ids()
        sim = Simulator(seed=sim_seed)
        network = CellularNetwork(sim)
        fleet = ShardedSenseAid(
            sim,
            network,
            [ShardSpec(sid, site) for sid, site in _SITES],
            SenseAidConfig(
                mode=ServerMode.COMPLETE,
                weights=_FAIR,
                overload=OverloadPolicy(),
            ),
            wal_root=wal_dir,
            heartbeat_period_s=_HEARTBEAT_S,
            phi_threshold=_PHI_THRESHOLD,
            min_std_s=_HEARTBEAT_S / 10.0,
            redirect_latency_s=0.05,
        )
        clients: Dict[str, SenseAidClient] = {}
        for device_id in self.device_ids():
            device = SimDevice(sim, device_id, mobility=StaticMobility(_CENTER))
            client = SenseAidClient(
                sim,
                device,
                fleet.instance(fleet.shard_ids()[0]),
                network,
                retry_policy=_RETRY,
            )
            fleet.register(client)
            clients[device_id] = client

        front = fleet.shard_ids()[0]
        injector = FaultInjector(
            sim,
            network,
            fleet._registries[front],
            server=fleet.instance(front),
            fleet=fleet,
            plan=plan,
        )
        for client in clients.values():
            injector.adopt_client(client)

        data: List[object] = []
        handle = fleet.submit_task(
            TaskSpec(
                sensor_type=SensorType.BAROMETER,
                center=_CENTER,
                area_radius_m=3000.0,
                spatial_density=self.spatial_density,
                sampling_period_s=self.sampling_period_s,
                start_time=0.0,
                end_time=self.horizon_s,
            ),
            data.append,
        )

        sim.run(until=self.horizon_s)
        self._force_heal(network, fleet, injector)
        sim.run(until=self.horizon_s + self.settle_s)

        repair = fleet.repair()
        self._apply_planted_bug(planted_bug, fleet, clients)
        violations = run_invariant_suite(fleet, clients, repair)
        signature = structured_log(sim).signature()
        # Quiesce the client fleet before the destructive WAL probe
        # (Jepsen's "stop the load before the final reads").  A live
        # client reacts to the probe's restart notification with an
        # epoch resync, and resync of a device the server no longer
        # knows (e.g. one a deregister fault removed) falls back to a
        # full re-registration — mutating durable state between the
        # pre and post snapshots and reporting a phantom divergence.
        for client in clients.values():
            client.power_off()
        violations.extend(check_wal_recovery(fleet))

        stats = {
            "data_points": len(data),
            "degraded_points": handle.degraded_points,
            "failovers": fleet.failovers,
            "writes_fenced": fleet.writes_fenced(),
            "repaired_keys": repair["repaired_keys"],
            "acked_uploads": sum(
                len(c.acked_uploads) for c in clients.values()
            ),
            "faults_executed": injector.stats.events_executed,
            "messages_seen": injector.stats.messages_seen,
            "losses_injected": injector.stats.losses_injected,
            "duplicates_injected": injector.stats.duplicates_injected,
            "burst_requests": injector.stats.burst_requests,
        }
        fleet.shutdown()
        return violations, signature, stats

    def _force_heal(self, network, fleet, injector) -> None:
        """The Jepsen ``:stop`` phase: un-break whatever the plan (or a
        shrunken subset of it) left broken, so the settle window always
        measures convergence, never an ongoing outage."""
        for shard_id in sorted(fleet._partitioned):
            fleet.heal_shard(shard_id)
        for shard_id in fleet.shard_ids():
            registry = fleet._registries[shard_id]
            for tower in registry.towers:
                if not tower.operational:
                    registry.restore_tower(tower.tower_id)
        injector._do_clear_loss_model()
        injector._do_set_delay(0.0, (0.0, 0.0))
        injector._do_set_duplication(0.0)
        network.set_sense_aid_path_available(True)
        # Crashed incumbents recover through detection + failover
        # during the settle window; force the stragglers whose standby
        # only just healed.
        for shard_id in fleet.shard_ids():
            if fleet.instance(shard_id).crashed:
                if not fleet.fail_over(shard_id):
                    fleet.recover_shard(shard_id)

    def _apply_planted_bug(self, name, fleet, clients) -> None:
        """Deterministically sabotage the settled world (tests only).

        ``lost_ack`` discards one burned idempotency key — the smallest
        acked upload id of the first device whose home owner holds it —
        but only when the episode's fleet actually failed over, so the
        shrinker converges on the fault event that caused the failover.
        """
        if name is None:
            return
        if name == "lost_ack":
            if fleet.failovers == 0:
                return
            for device_id in sorted(clients):
                client = clients[device_id]
                if not client.acked_uploads:
                    continue
                owner = fleet.instance(fleet.home_shard(device_id))
                burned = sorted(
                    uid
                    for uid in client.acked_uploads
                    if uid in owner._seen_upload_ids
                )
                if burned:
                    owner._seen_upload_ids.discard(burned[0])
                    return

    # ------------------------------------------------------------------
    # Episodes
    # ------------------------------------------------------------------

    def plan_for_episode(self, episode: int) -> dict:
        """The episode's canonical (serialized) fault plan."""
        plan = self._generator.plan_for_episode(
            episode, self.world_spec(), self.tier
        )
        return plan.to_json_obj()

    def run_episode(self, episode: int) -> EpisodeResult:
        plan_obj = self.plan_for_episode(episode)
        sim_seed = episode_seed(self.master_seed, episode)
        violations, signature, stats = self.run_plan_obj(
            plan_obj,
            sim_seed,
            planted_bug=self.planted_bug,
            wal_label=f"ep{episode}",
        )
        if self.check_replay:
            re_violations, re_signature, _ = self.run_plan_obj(
                plan_obj,
                sim_seed,
                planted_bug=self.planted_bug,
                wal_label=f"ep{episode}-replay",
            )
            if re_signature != signature or sorted(
                v.code for v in re_violations
            ) != sorted(v.code for v in violations):
                violations.append(
                    InvariantViolation(
                        "REPLAY_DIVERGED",
                        "same-seed re-run produced a different signature "
                        "or verdict set",
                        {
                            "signature_a": signature,
                            "signature_b": re_signature,
                            "codes_a": sorted(v.code for v in violations),
                            "codes_b": sorted(v.code for v in re_violations),
                        },
                    )
                )
        return EpisodeResult(
            episode=episode,
            sim_seed=sim_seed,
            plan_obj=plan_obj,
            violations=violations,
            signature=signature,
            stats=stats,
            replay_checked=self.check_replay,
        )

    def run(self, episodes: int, *, first_episode: int = 0) -> SoakReport:
        report = SoakReport(master_seed=self.master_seed, tier=self.tier.name)
        for episode in range(first_episode, first_episode + episodes):
            report.results.append(self.run_episode(episode))
        return report


__all__ = [
    "EpisodeResult",
    "PLANTED_BUGS",
    "SoakHarness",
    "SoakReport",
]
