"""The Sense-Aid server (Algorithm 1).

Lifecycle of a task:

1. An application server submits a :class:`TaskSpec`; it lands in the
   task datastore and is expanded into deadline-stamped
   :class:`SensingRequest` s, each scheduled for issue at its sampling
   instant.
2. At issue time a request enters the **run queue** and the drain loop
   runs: the server computes the request's *qualified devices* (signed
   up, inside the task region, carrying the needed sensor, matching
   any device-type restriction), then asks the device selector for the
   best ``spatial_density`` of them.
3. If too few devices qualify, the request moves to the **wait queue**,
   re-checked periodically (``wait_check_thread``) until it becomes
   satisfiable or its deadline passes.
4. Selected devices receive assignments over the control plane (the
   paper measures and then explicitly excludes control-message energy,
   so the control plane costs no device energy here; see DESIGN.md).
   Devices upload sensor data over the cellular data path — that is
   where the energy model bites.
5. Arriving data is validated (region and value plausibility), folded
   into the device record, and forwarded to the originating
   application server.  Sense-Aid sits on the data path, so no raw
   device identity ever reaches the application server — it sees
   hashed identifiers only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.cellular.enodeb import TowerRegistry
from repro.cellular.network import CellularNetwork, DeliveryReceipt
from repro.cellular.packets import Message, MessageKind
from repro.core.config import ControlPlane, SenseAidConfig, ServerMode
from repro.core.overload import AdmissionController, RequestClass, ServerOverloadedError
from repro.core.privacy import PrivacyFilter, PrivacyPolicy, scrub_payload
from repro.core.datastores import DeviceDatastore, DeviceRecord, TaskDatastore
from repro.core.queues import RequestQueue
from repro.core.selector import DeviceSelector
from repro.core.tasks import ONE_SHOT_DEADLINE_S, SensingRequest, TaskSpec
from repro.devices.sensors import SensorType
from repro.sim.engine import Simulator
from repro.sim.processes import PeriodicProcess
from repro.sim.simlog import SimLogger
from repro.storage import StorageBackend, resolve_backend

#: Plausibility window for barometric readings (hPa); arriving values
#: outside it are counted as invalid data (one of the paper's two
#: disqualification causes).
PRESSURE_VALID_RANGE = (850.0, 1100.0)
#: Period of the wait-queue satisfiability re-check (Algorithm 1's
#: ``wait_check_thread``).
WAIT_CHECK_PERIOD_S = 30.0
#: Seconds from issuing an assignment to its handler at the client
#: (the pull control plane's server-to-device transit).
CONTROL_LATENCY_S = 0.05
#: Consecutive missed deliveries after which a device is marked
#: unresponsive and excluded from selection ("if a mobile device
#: becomes unresponsive, then the Sense-Aid server can exclude it from
#: future selections", §3.2).  A successful upload clears the strikes
#: and restores the device.
UNRESPONSIVE_STRIKES = 3


@dataclass(frozen=True)
class Assignment:
    """A scheduling decision delivered to one device.

    ``epoch`` is the server incarnation that issued it; a client whose
    known epoch differs must resync before trusting new assignments.
    """

    request: SensingRequest
    device_id: str
    assigned_at: float
    epoch: int = 1

    @property
    def deadline(self) -> float:
        return self.request.deadline

    @property
    def sensor_type(self) -> SensorType:
        return self.request.task.sensor_type


@dataclass(frozen=True)
class SelectionEvent:
    """One execution of the device selector — the Fig. 9 unit."""

    time: float
    request_id: str
    task_id: int
    qualified: Tuple[str, ...]
    selected: Tuple[str, ...]


@dataclass(frozen=True)
class SensedDataPoint:
    """What a crowdsensing application server receives.

    Identified by the device's hashed IMEI only — the privacy filter
    the paper describes.
    """

    request_id: str
    task_id: int
    sensor_type: SensorType
    value: float
    sensed_at: float
    delivered_at: float
    device_hash: str


@dataclass(frozen=True)
class UploadAck:
    """The server's verdict on one SENSOR_DATA delivery.

    ``accepted`` means the reading counts (now, or — for
    ``duplicate`` — when its first copy landed).  ``reason`` is one of
    ``accepted``, ``duplicate``, ``shed``, ``stale_epoch``,
    ``crashed``, ``invalid``, ``unassigned``, or ``untracked``.  A
    ``shed`` ack carries a Retry-After hint; a ``stale_epoch`` ack
    tells the client its view of the server incarnation is outdated
    and it must resync before retrying.
    """

    accepted: bool
    reason: str
    epoch: int
    retry_after_s: float = 0.0


@dataclass
class _RequestTracking:
    request: SensingRequest
    assigned: Set[str] = field(default_factory=set)
    received: Set[str] = field(default_factory=set)
    satisfied: bool = False


@dataclass
class ServerStats:
    """Aggregate outcome counters for one run."""

    requests_issued: int = 0
    requests_scheduled: int = 0
    requests_waitlisted: int = 0
    requests_expired: int = 0
    requests_satisfied: int = 0
    data_points: int = 0
    invalid_data: int = 0
    assignments: int = 0
    requests_lost_to_crash: int = 0
    reassignments: int = 0
    duplicate_uploads: int = 0
    uploads_shed: int = 0
    queries_shed: int = 0
    registrations_shed: int = 0
    stale_epoch_uploads: int = 0


DataCallback = Callable[[SensedDataPoint], None]
AssignmentHandler = Callable[[Assignment], None]


class SenseAidServer:
    """The edge middleware orchestrating crowdsensing devices."""

    def __init__(
        self,
        sim: Simulator,
        registry: TowerRegistry,
        network: CellularNetwork,
        config: Optional[SenseAidConfig] = None,
        *,
        privacy_policy: Optional[PrivacyPolicy] = None,
        wal=None,
        storage: Optional[StorageBackend] = None,
    ) -> None:
        self._sim = sim
        self._registry = registry
        self._network = network
        # Share the simulation clock (refresh memoisation) and perf
        # probes with the registry's spatial index.
        self._registry.bind(sim)
        self._perf = sim.perf
        self.config = config if config is not None else SenseAidConfig()
        #: Pluggable storage backend (``REPRO_DATASTORE``) that app
        #: servers attach to and keep their readings on; every server
        #: gets its own unless one is handed in explicitly.  The
        #: server's own state is durable through the WAL alone.
        self.storage: StorageBackend = (
            storage if storage is not None else resolve_backend()
        )
        self.devices = DeviceDatastore()
        self.tasks = TaskDatastore()
        self.run_queue = RequestQueue("run")
        self.wait_queue = RequestQueue("wait")
        self.selector = DeviceSelector(self.config.weights)
        self.stats = ServerStats()
        self.selection_log: List[SelectionEvent] = []
        self._assignment_handlers: Dict[str, AssignmentHandler] = {}
        self._data_callbacks: Dict[str, DataCallback] = {}
        self._tracking: Dict[str, _RequestTracking] = {}
        self._seen_upload_ids: Set[str] = set()
        self._crashed = False
        #: Server *incarnation* epoch, stamped on assignments and acks.
        #: Bumped by every cold :meth:`restart`.
        self.epoch = 1
        #: Effective start per task id — the anchor the request grid
        #: was expanded from, needed to resume with original numbering.
        self._task_starts: Dict[int, float] = {}
        #: Durable log (``repro.core.wal.DurableLog``-shaped, duck
        #: typed so core.server never imports the persistence stack).
        self._wal = wal
        # --- Incremental qualification (see docs/performance.md) ---
        #: Registration-membership change counter; together with the
        #: registry's version it keys the qualification caches, so
        #: candidate sets are invalidated by events, not recomputed
        #: per request.
        self._membership_version = 0
        #: Per-(sensor, device_type) candidate sets — the static half
        #: of qualification, maintained on register/deregister.
        self._eligible_by_filter: Dict[Tuple[SensorType, Optional[str]], Set[str]] = {}
        #: Per-task qualified-device memo for the current instant.
        self._qual_cache: Dict[int, Tuple[tuple, List[str]]] = {}
        self._qual_cache_time: Optional[float] = None
        #: Edge-view snapshot key: (now, registry version, membership).
        self._edge_view_key: Optional[tuple] = None
        #: Admission controller, present only when the config opts in.
        self.admission: Optional[AdmissionController] = (
            AdmissionController(sim, self.config.overload)
            if self.config.overload is not None
            else None
        )
        self.log = SimLogger(sim, "repro.core.server")
        self.privacy = (
            PrivacyFilter(privacy_policy) if privacy_policy is not None else None
        )
        self._wait_checker = PeriodicProcess(
            sim, WAIT_CHECK_PERIOD_S, self._check_wait_queue
        )

    # ------------------------------------------------------------------
    # Mode / policy
    # ------------------------------------------------------------------

    @property
    def mode(self) -> ServerMode:
        return self.config.mode

    def crowdsensing_resets_tail(self) -> bool:
        """Basic resets the tail on upload; Complete does not."""
        return self.mode is ServerMode.BASIC

    def shutdown(self) -> None:
        """Stop the wait-queue checker.

        Flushes — but does not close — the storage backend, so callers
        (experiments, benchmarks) can still read results afterwards.
        """
        self._wait_checker.stop()
        self.storage.flush()

    # ------------------------------------------------------------------
    # Failure handling (the paper's fail-safe: path 1 survives a
    # Sense-Aid server crash)
    # ------------------------------------------------------------------

    @property
    def crashed(self) -> bool:
        return self._crashed

    def crash(self) -> None:
        """Take the server down.

        The eNodeBs immediately fall back to path 1 for all traffic
        (regular traffic is unaffected); orchestration stops and
        requests that come due while the server is down are lost.
        """
        if self._crashed:
            return
        self._crashed = True
        self.log.warning("server crashed; eNodeBs fail over to path 1")
        self._network.set_sense_aid_path_available(False)
        self._wait_checker.stop()

    def take_over(self, data_callbacks: Dict[str, DataCallback]) -> None:
        """First start of a successor built to take a failed server's
        place: a :meth:`restart` (WAL replay, epoch bump) without the
        crash, since the successor never ran.  ``data_callbacks`` maps
        each task id the successor inherits to its delivery callback,
        so replay resumes those tasks under their original ids.  It
        logs no crash warning and leaves the shared Sense-Aid path flag
        alone; the wait checker its constructor started is replaced at
        this instant, exactly as a restart replaces it."""
        self._data_callbacks.update(data_callbacks)
        self._crashed = True
        self._wait_checker.stop()
        self.restart()

    def restart(self) -> None:
        """Cold restart: the process is replaced, volatile state is gone.

        A restart clears in-memory tracking and assignment handlers,
        bumps the incarnation :attr:`epoch`, and — when a write-ahead
        log is attached — rebuilds the durable state from the last
        checkpoint plus WAL replay.  Without a WAL the datastores are
        treated as persistent storage and survive as-is.  Either way
        every surviving periodic task resumes under the new epoch with
        its original identity (:meth:`TaskSpec.resumed`); expired and
        one-shot tasks stay down, and instants that came due during
        the outage stay lost.  Clients notice the epoch bump and
        resync; stale-epoch uploads are rejected until they do.
        A task resumed from the WAL keeps the delivery callback
        registered under its id; one without a callback stays down.
        """
        if not self._crashed:
            self.crash()
        self._tracking.clear()
        self._assignment_handlers.clear()
        self.run_queue = RequestQueue("run")
        self.wait_queue = RequestQueue("wait")
        # The replacement process starts with cold qualification caches.
        self._eligible_by_filter.clear()
        self._qual_cache.clear()
        self._qual_cache_time = None
        self._edge_view_key = None
        self._membership_version += 1
        if self._wal is not None:
            self.devices = DeviceDatastore()
            self.tasks = TaskDatastore()
            self.stats = ServerStats()
            self._seen_upload_ids = set()
            self._task_starts = {}
            self._crashed = False  # recovery replays submit_task et al.
            self._wal.recover_into(self)
        else:
            # Datastores stand in for persistent storage: the
            # incarnation number moves forward and every surviving task
            # is re-expanded under it (the old epoch's issue events are
            # dropped as stale).
            self._crashed = False
            self.epoch += 1
            now = self._sim.now
            for task_id, start in sorted(self._task_starts.items()):
                task = self.tasks.get(task_id)
                remainder = task.resumed(start, self._task_end(task, start), now)
                if remainder is not None:
                    self.tasks.remove(task_id)
                    self.submit_task(
                        remainder, self._data_callbacks[str(task_id)], resume=True
                    )
        self.log.event("server_restart", epoch=self.epoch)
        self.log.warning("server restarted as epoch %d", self.epoch)
        self._network.set_sense_aid_path_available(True)
        self._wait_checker = PeriodicProcess(
            self._sim, WAIT_CHECK_PERIOD_S, self._check_wait_queue
        )

    # ------------------------------------------------------------------
    # Device-facing API (called by the client-side library)
    # ------------------------------------------------------------------

    def register_device(
        self, device, assignment_handler: AssignmentHandler
    ) -> DeviceRecord:
        """Sign a device up for crowdsensing campaigns.

        The record is seeded from the registration payload: hashed
        IMEI, energy budget, critical battery level, battery level, and
        the device's sensor complement.

        Raises :class:`ServerOverloadedError` when the admission
        controller sheds the registration (only ever at a completely
        full queue — registrations are the last class to go).
        """
        self._admit_or_raise(RequestClass.REGISTRATION)
        record = DeviceRecord(
            device_id=device.device_id,
            imei_hash=device.imei_hash,
            device_model=device.profile.model,
            energy_budget_j=device.preferences.energy_budget_j,
            critical_battery_pct=device.preferences.critical_battery_pct,
            battery_pct=device.battery.level_pct,
            registered_at=self._sim.now,
            sensors=frozenset(device.sensors.equipped()),
        )
        self.devices.register(record)
        self._registry.attach_device(device)
        self._assignment_handlers[device.device_id] = assignment_handler
        self._note_device_added(record)
        if self._wal is not None:
            self._wal.record_register(record)
        return record

    def resync_device(
        self, device, assignment_handler: AssignmentHandler
    ) -> DeviceRecord:
        """Re-establish a session after a server epoch change.

        The durable record (fairness counters included) survived the
        restart; what was lost is the volatile session — the live
        assignment handler.  A device the restarted server has no
        record of (e.g. it registered after the last durable event)
        falls back to a full registration.
        """
        if device.device_id not in self.devices:
            return self.register_device(device, assignment_handler)
        self._admit_or_raise(RequestClass.REGISTRATION)
        self._assignment_handlers[device.device_id] = assignment_handler
        try:
            self._registry.device(device.device_id)
        except KeyError:
            self._registry.attach_device(device)
        record = self.devices.record(device.device_id)
        self.devices.update_state(
            device.device_id,
            battery_pct=device.battery.level_pct,
            last_comm_time=self._sim.now,
        )
        return record

    def _admit_or_raise(self, request_class: RequestClass) -> None:
        if self.admission is None:
            return
        decision = self.admission.admit(request_class)
        if decision.admitted:
            return
        if request_class is RequestClass.REGISTRATION:
            self.stats.registrations_shed += 1
        raise ServerOverloadedError(decision)

    def deregister_device(self, device_id: str) -> None:
        self.devices.deregister(device_id)
        self._registry.detach_device(device_id)
        self._assignment_handlers.pop(device_id, None)
        self._note_device_removed(device_id)
        if self._wal is not None:
            self._wal.record_deregister(device_id)

    def _note_device_added(self, record: DeviceRecord) -> None:
        """Fold a new registration into the standing candidate sets."""
        for (sensor, device_type), eligible in self._eligible_by_filter.items():
            if sensor in record.sensors and (
                device_type is None or record.device_model == device_type
            ):
                eligible.add(record.device_id)
        self._membership_version += 1

    def _note_device_removed(self, device_id: str) -> None:
        for eligible in self._eligible_by_filter.values():
            eligible.discard(device_id)
        self._membership_version += 1

    def update_preferences(
        self,
        device_id: str,
        *,
        energy_budget_j: Optional[float] = None,
        critical_battery_pct: Optional[float] = None,
    ) -> None:
        record = self.devices.record(device_id)
        if energy_budget_j is not None:
            if energy_budget_j < 0:
                raise ValueError("energy budget must be non-negative")
            record.energy_budget_j = energy_budget_j
        if critical_battery_pct is not None:
            if not 0.0 <= critical_battery_pct <= 100.0:
                raise ValueError("critical battery level must be in [0, 100]")
            record.critical_battery_pct = critical_battery_pct

    def report_device_state(
        self, device_id: str, battery_pct: float, energy_used_j: float
    ) -> None:
        """Fold a control-plane state ping into the device record.

        State pings are the lowest-priority class: under overload they
        are silently shed (the client refreshes on its next ping).
        """
        if self.admission is not None:
            decision = self.admission.admit(RequestClass.QUERY)
            if not decision.admitted:
                self.stats.queries_shed += 1
                return
        if device_id not in self.devices:
            return
        self.devices.update_state(
            device_id,
            battery_pct=battery_pct,
            energy_used_j=energy_used_j,
        )

    # ------------------------------------------------------------------
    # Application-server-facing API
    # ------------------------------------------------------------------

    def submit_task(
        self, task: TaskSpec, data_callback: DataCallback, *, resume: bool = False
    ) -> int:
        """Accept a task; expand it into requests and schedule them.

        ``resume=True`` re-admits a task recovered from a checkpoint or
        WAL: the request grid keeps its original anchoring and sequence
        numbers, and only not-yet-issued requests are scheduled.
        """
        now = self._sim.now
        self.tasks.add(task)
        self._data_callbacks[str(task.task_id)] = data_callback
        self.run_queue.allow_task(task.task_id)
        self.wait_queue.allow_task(task.task_id)
        start = task.effective_start(now)
        if start < now and not resume:
            start = now
        self._task_starts[task.task_id] = start
        requests = task.expand_requests(now, resume=resume)
        self.log.info(
            "task %d from %s %s: %d requests, density %d",
            task.task_id,
            task.origin,
            "resumed" if resume else "accepted",
            len(requests),
            task.spatial_density,
        )
        if self._wal is not None:
            self._wal.record_task_submitted(task, start, self._task_end(task, start))
        for request in requests:
            delay = max(0.0, request.issue_time - now)
            self._sim.schedule(delay, self._issue_request, request, self.epoch)
        return task.task_id

    def _task_end(self, task: TaskSpec, start: float) -> float:
        """Absolute end of a task's sensing window."""
        if task.end_time is not None:
            return task.end_time
        duration = task.duration_s()
        if duration is not None:
            return start + duration
        return start + ONE_SHOT_DEADLINE_S

    def update_task(self, task_id: int, **changes) -> TaskSpec:
        """Update parameters of an existing task.

        Pending (not yet issued) requests of the old spec are
        retracted and the updated task is re-expanded from now.
        """
        now = self._sim.now
        old = self.tasks.get(task_id)
        updated = old.with_updates(**changes)
        self.tasks.replace(updated)
        self.run_queue.retract_task(task_id)
        self.wait_queue.retract_task(task_id)
        self.run_queue.allow_task(task_id)
        self.wait_queue.allow_task(task_id)
        start = max(updated.effective_start(now), now)
        self._task_starts[task_id] = start
        if self._wal is not None:
            self._wal.record_task_updated(
                updated, start, self._task_end(updated, start)
            )
        for request in updated.expand_requests(now):
            delay = max(0.0, request.issue_time - now)
            self._sim.schedule(delay, self._issue_request, request, self.epoch)
        return updated

    def delete_task(self, task_id: int) -> None:
        self.tasks.remove(task_id)
        self.run_queue.retract_task(task_id)
        self.wait_queue.retract_task(task_id)
        self._data_callbacks.pop(str(task_id), None)
        self._task_starts.pop(task_id, None)
        if self._wal is not None:
            self._wal.record_task_deleted(task_id)

    # ------------------------------------------------------------------
    # Scheduling core (Algorithm 1)
    # ------------------------------------------------------------------

    def qualified_devices(self, request: SensingRequest) -> List[str]:
        """Devices that can serve this request right now.

        Signed up, currently inside the task's circular region (the
        edge's location view), carrying the required sensor, and
        matching any device-type restriction.  Ordered nearest-first
        (distance to the task centre, then device id).

        Qualification is incremental: the sensor/device-type half is a
        standing per-filter candidate set maintained on registration
        events, the region half is a spatial-index bucket query, and
        the combined answer is memoised per (task, instant) — so
        wait-queue re-checks and same-deadline reassignments reuse one
        computation instead of re-deriving the set per request.
        """
        task = request.task
        now = self._sim.now
        if self._qual_cache_time != now:
            self._qual_cache.clear()
            self._qual_cache_time = now
        cache_key = (task, self._registry.version, self._membership_version)
        hit = self._qual_cache.get(task.task_id)
        if hit is not None and hit[0] == cache_key:
            self._perf.count("server.qualified_devices.memo_hit")
            return list(hit[1])
        in_region = self._registry.devices_within(task.center, task.area_radius_m)
        eligible = self._eligible_for(task)
        qualified = [d for d in in_region if d in eligible]
        self._perf.count("server.qualified_devices", len(in_region))
        self._qual_cache[task.task_id] = (cache_key, list(qualified))
        return qualified

    def _eligible_for(self, task: TaskSpec) -> Set[str]:
        """The standing (sensor, device-type) candidate set for a task.

        Built once per distinct filter pair by a single datastore scan,
        then maintained incrementally by registration events — never
        recomputed per request.
        """
        key = (task.sensor_type, task.device_type)
        eligible = self._eligible_by_filter.get(key)
        if eligible is None:
            eligible = {
                record.device_id
                for record in self.devices.records()
                if task.sensor_type in record.sensors
                and (
                    task.device_type is None
                    or record.device_model == task.device_type
                )
            }
            self._eligible_by_filter[key] = eligible
        return eligible

    def _issue_request(
        self, request: SensingRequest, epoch: Optional[int] = None
    ) -> None:
        if epoch is not None and epoch != self.epoch:
            # Scheduled by a previous incarnation; a cold restart
            # re-expanded every surviving task under the new epoch, so
            # this event would double-issue the request.
            return
        if self._crashed:
            self.stats.requests_lost_to_crash += 1
            return
        if request.task.task_id not in self.tasks:
            return  # task deleted while the issue event was in flight
        if self.tasks.get(request.task.task_id) != request.task:
            return  # task updated since this request was expanded
        self.stats.requests_issued += 1
        self.run_queue.push(request)
        self._drain_run_queue()

    def _drain_run_queue(self) -> None:
        while True:
            request = self.run_queue.pop()
            if request is None:
                return
            self._schedule_request(request)

    def _schedule_request(self, request: SensingRequest) -> None:
        now = self._sim.now
        if request.deadline <= now:
            self.stats.requests_expired += 1
            return
        self._refresh_edge_view()
        qualified_ids = self.qualified_devices(request)
        records = [self.devices.record(d) for d in qualified_ids]
        needed = request.devices_needed
        if self.config.select_all_qualified:
            ranked = self.selector.rank(records, now)
            selected = [s.device_id for s in ranked] if len(ranked) >= needed else None
        else:
            selected = self.selector.select(records, needed, now)
        if selected is None:
            self.stats.requests_waitlisted += 1
            self.log.debug(
                "request %s unsatisfiable (%d qualified, %d needed); waitlisted",
                request.request_id,
                len(qualified_ids),
                needed,
            )
            self.wait_queue.push(request)
            return
        self.stats.requests_scheduled += 1
        self.log.debug(
            "request %s: selected %s of %d qualified",
            request.request_id,
            selected,
            len(qualified_ids),
        )
        event = SelectionEvent(
            time=now,
            request_id=request.request_id,
            task_id=request.task.task_id,
            qualified=tuple(qualified_ids),
            selected=tuple(selected),
        )
        self.selection_log.append(event)
        tracking = _RequestTracking(request=request)
        self._tracking[request.request_id] = tracking
        if self.privacy is not None:
            self._sim.schedule_at(
                request.deadline, self.privacy.close_request, request.request_id
            )
        if self.config.reassignment_enabled:
            check_at = request.deadline - self.config.reassign_margin_s
            if check_at > now:
                self._sim.schedule_at(
                    check_at, self._reassign_missing, request.request_id
                )
        for device_id in selected:
            self._assign(request, device_id, tracking)

    def _assign(
        self, request: SensingRequest, device_id: str, tracking: _RequestTracking
    ) -> None:
        self.devices.mark_selected(device_id)
        tracking.assigned.add(device_id)
        self.stats.assignments += 1
        if self._wal is not None:
            self._wal.record_assign(request, device_id)
        assignment = Assignment(
            request=request,
            device_id=device_id,
            assigned_at=self._sim.now,
            epoch=self.epoch,
        )
        handler = self._assignment_handlers.get(device_id)
        if handler is None:
            # Registered but its client vanished: treat as unresponsive.
            self.devices.mark_unresponsive(device_id)
            return
        if self.config.control_plane is ControlPlane.PUSH_PAGED:
            self._page_assignment(device_id, handler, assignment)
        else:
            self._sim.schedule(CONTROL_LATENCY_S, handler, assignment)

    def _page_assignment(
        self, device_id: str, handler: AssignmentHandler, assignment: Assignment
    ) -> None:
        """Deliver an assignment by paging the device's radio.

        The downlink transfer is crowdsensing-caused radio activity, so
        it is charged to the crowdsensing account — the cost the pull
        design avoids.
        """
        from repro.cellular.packets import ASSIGNMENT_BYTES, TrafficCategory

        try:
            device = self._registry.device(device_id)
        except KeyError:
            self.devices.mark_unresponsive(device_id)
            return
        message = Message(
            kind=MessageKind.TASK_ASSIGNMENT,
            sender="sense-aid",
            size_bytes=ASSIGNMENT_BYTES,
            category=TrafficCategory.CROWDSENSING,
            payload={"request_id": assignment.request.request_id},
        )
        self._network.downlink(
            device,
            message,
            on_delivered=lambda msg, receipt: handler(assignment),
        )

    def _reassign_missing(self, request_id: str) -> None:
        """Shortly before a request's deadline, draft substitutes for
        any readings that have not arrived (lost in the network, or the
        device disappeared)."""
        if self._crashed:
            return
        tracking = self._tracking.get(request_id)
        if tracking is None:
            return
        if tracking.request.task.task_id not in self.tasks:
            return  # task deleted after scheduling; nothing to top up
        missing = len(tracking.assigned) - len(tracking.received)
        if missing <= 0:
            return
        # Strike the silent originals; repeat offenders get excluded.
        for device_id in tracking.assigned - tracking.received:
            if device_id not in self.devices:
                continue
            record = self.devices.record(device_id)
            record.missed_deliveries += 1
            if record.missed_deliveries >= UNRESPONSIVE_STRIKES:
                self.log.warning(
                    "device %s missed %d deliveries; marked unresponsive",
                    device_id,
                    record.missed_deliveries,
                )
                self.devices.mark_unresponsive(device_id)
        self._refresh_edge_view()
        candidates = [
            self.devices.record(d)
            for d in self.qualified_devices(tracking.request)
            if d not in tracking.assigned
        ]
        substitutes = self.selector.rank(candidates, self._sim.now)[:missing]
        if substitutes:
            self.log.info(
                "request %s short %d reading(s); drafting %s",
                request_id,
                missing,
                [s.device_id for s in substitutes],
            )
        for scored in substitutes:
            self.stats.reassignments += 1
            self._assign(tracking.request, scored.device_id, tracking)

    def _check_wait_queue(self) -> None:
        """Periodic wait-queue drain; an idle tick does no fleet work.

        The tick itself never refreshes the edge view.  Each waiting
        request pulls it before its re-check, and the memo in
        :meth:`_refresh_edge_view` makes every pull after the first at
        one instant free, so a tick with an empty wait queue touches no
        device.  Requests of the same task share one qualification via
        the per-instant memo, so a drain costs one snapshot plus one
        bucket query per distinct waiting task, not one fleet scan per
        request.  A spatial candidate count (an upper bound on the
        qualified set) rejects still-starved requests before any
        record is scored.
        """
        expired = self.wait_queue.drop_expired(self._sim.now)
        self.stats.requests_expired += len(expired)

        def satisfiable(request: SensingRequest) -> bool:
            self._refresh_edge_view()
            task = request.task
            upper_bound = self._registry.candidate_count_within(
                task.center, task.area_radius_m
            )
            if upper_bound < request.devices_needed:
                self._perf.count("server.wait_check.early_reject")
                return False
            qualified = [
                self.devices.record(d) for d in self.qualified_devices(request)
            ]
            return (
                self.selector.select(
                    qualified, request.devices_needed, self._sim.now
                )
                is not None
            )

        drained = self.wait_queue.drain_satisfiable(satisfiable)
        self._perf.count("server.wait_check", len(drained))
        for request in drained:
            self.run_queue.push(request)
        self._drain_run_queue()

    def _refresh_edge_view(self) -> None:
        """Pull the eNodeBs' current view: attachment + last-comm age.

        Only the paths that read the view call this, each just before
        it reads: :meth:`_schedule_request`, the wait-queue re-check and
        :meth:`_reassign_missing`.  Instants at which none of them runs
        do no fleet work, and skipping them changes no decision:

        1. *Positions.*  Positions are pure functions of time (each
           device's itinerary draws only from its own ``mobility:{i}``
           stream), and a refresh re-reads every device whose validity
           window has ended.  After a refresh at ``t`` the observed
           positions are therefore ``position_at(t)``, whichever
           earlier instants were refreshed.  ``devices_within`` sorts by
           (distance, id), so the order of a bucket set never leaks
           into results.
        2. *Attachments.*  A device attaches to the operational tower
           nearest its observed position.  The one reader off these
           paths, the fault layer's ``serving_tower_operational``,
           cannot see when attachments were last refreshed: every tower
           fail and restore re-attaches the whole fleet, so a device
           sits on a failed tower only during a total outage.
        3. *Last-comm sync.*  The sync writes ``now - age`` into each
           record.  Every reader of ``last_comm_time`` is the selector
           on one of the three paths, right after a refresh at the same
           instant.  Checkpoints and storage flushes copy the field
           too, but a restored record is re-synced before it is read.

        A third-party (non-carrier) deployment has no live RRC
        visibility, so its records keep whatever last-comm times the
        devices reported themselves.

        Memoised per (instant, registry version, membership version):
        positions are pure functions of simulation time and radio
        completions fire at ``PRIORITY_RADIO`` before any scheduling
        event at the same instant, so within one instant a second
        snapshot could only ever recompute identical values.
        """
        now = self._sim.now
        key = (now, self._registry.version, self._membership_version)
        if self._edge_view_key == key:
            self._perf.count("server.edge_refresh.memo_hit")
            return
        self._registry.refresh_attachments()
        synced = 0
        if self.config.carrier_integrated:
            for device_id in self.devices.device_ids():
                try:
                    age = self._registry.seconds_since_last_comm(device_id)
                except KeyError:
                    continue
                if age is not None:
                    self.devices.update_state(device_id, last_comm_time=now - age)
                synced += 1
        self._perf.count("server.edge_refresh", synced)
        # Attachment refresh does not bump the registry version, so the
        # key computed above is still current.
        self._edge_view_key = (now, self._registry.version, self._membership_version)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def receive_sensed_data(
        self, message: Message, receipt: DeliveryReceipt
    ) -> Optional[UploadAck]:
        """Network delivery callback for SENSOR_DATA uploads.

        Idempotent: each upload carries an attempt-independent
        ``upload_id`` (``device:request``), and only the first arrival
        is processed.  Network duplicates and client retries of an
        already-delivered attempt are acknowledged (delivery *is* the
        ack trigger on the client side) but counted exactly once, so
        the application server never double-counts a reading.

        Returns an :class:`UploadAck` describing the verdict; legacy
        callers may ignore it.  Uploads are subject to admission
        control (``shed`` acks carry a Retry-After hint) and to epoch
        validation — a payload stamped with a previous incarnation's
        epoch is rejected with ``stale_epoch`` so the client resyncs
        instead of trusting pre-restart assignments.
        """
        if message.kind is not MessageKind.SENSOR_DATA:
            return None
        if self._crashed:
            return UploadAck(accepted=False, reason="crashed", epoch=self.epoch)
        payload = message.payload
        device_id = payload["device_id"]
        request_id = payload["request_id"]
        if self.admission is not None:
            decision = self.admission.admit(RequestClass.UPLOAD)
            if not decision.admitted:
                self.stats.uploads_shed += 1
                return UploadAck(
                    accepted=False,
                    reason="shed",
                    epoch=self.epoch,
                    retry_after_s=decision.retry_after_s,
                )
        client_epoch = payload.get("epoch")
        if client_epoch is not None and client_epoch != self.epoch:
            self.stats.stale_epoch_uploads += 1
            self.log.event(
                "stale_epoch",
                device_id=device_id,
                request_id=request_id,
                client_epoch=client_epoch,
                server_epoch=self.epoch,
            )
            return UploadAck(accepted=False, reason="stale_epoch", epoch=self.epoch)
        explicit_id = payload.get("upload_id")
        upload_id = explicit_id or f"{device_id}:{request_id}"
        if explicit_id is not None and upload_id in self._seen_upload_ids:
            # A retransmission (or network duplicate) of an upload we
            # already accepted: short-circuit before any bookkeeping.
            # Only explicit ids — stamped by retry-capable clients and
            # identical across attempts — qualify for this fast path;
            # derived keys go through validation first, like always.
            self._note_duplicate(upload_id, device_id, request_id, payload)
            return UploadAck(accepted=True, reason="duplicate", epoch=self.epoch)
        if device_id in self.devices:
            self.devices.update_state(
                device_id,
                battery_pct=payload.get("battery_pct"),
                energy_used_j=payload.get("energy_used_j"),
                last_comm_time=receipt.radio_complete_at,
            )
        tracking = self._tracking.get(request_id)
        if tracking is None:
            return UploadAck(accepted=False, reason="untracked", epoch=self.epoch)
        if not self._validate_reading(tracking.request, device_id, payload):
            self.stats.invalid_data += 1
            if device_id in self.devices:
                self.devices.note_invalid_data(device_id)
            return UploadAck(accepted=False, reason="invalid", epoch=self.epoch)
        if device_id not in tracking.assigned:
            # Upload from a device this request never selected.
            return UploadAck(accepted=False, reason="unassigned", epoch=self.epoch)
        if device_id in tracking.received:
            self._note_duplicate(upload_id, device_id, request_id, payload)
            return UploadAck(accepted=True, reason="duplicate", epoch=self.epoch)
        tracking.received.add(device_id)
        # Only *accepted* readings burn their idempotency key: an
        # invalid or unassigned arrival above is not "the" upload, and
        # a later legitimate one must still be able to land.
        self._seen_upload_ids.add(upload_id)
        # A delivery proves the device is alive: clear its strikes and
        # restore eligibility.
        record = self.devices.record(device_id)
        record.missed_deliveries = 0
        if not record.responsive:
            self.devices.mark_responsive(device_id)
        self.stats.data_points += 1
        satisfied_now = (
            not tracking.satisfied
            and len(tracking.received) >= tracking.request.devices_needed
        )
        if satisfied_now:
            tracking.satisfied = True
            self.stats.requests_satisfied += 1
        if self._wal is not None:
            self._wal.record_upload_accept(
                upload_id, device_id, request_id, satisfied_now
            )
        self._forward_to_application(tracking.request, device_id, payload)
        return UploadAck(accepted=True, reason="accepted", epoch=self.epoch)

    def _note_duplicate(
        self, upload_id: str, device_id: str, request_id: str, payload: dict
    ) -> None:
        """Count and log a deduplicated upload (acked, never forwarded)."""
        self.stats.duplicate_uploads += 1
        self.log.event(
            "dedup",
            upload_id=upload_id,
            device_id=device_id,
            request_id=request_id,
            attempt=payload.get("attempt"),
        )

    def idempotency_audit(self) -> dict:
        """Cross-check accepted-upload accounting against burned keys.

        Every accepted reading burns exactly one fresh idempotency key,
        so ``accepted`` can never exceed ``burned_keys`` on an honest
        incarnation — a positive ``overcount`` means some reading was
        counted twice (the double-counted-reading soak invariant).
        Burned keys *can* exceed accepts (anti-entropy merges keys
        accepted elsewhere), so only the one-sided gap is a violation.
        """
        accepted = self.stats.data_points
        burned = len(self._seen_upload_ids)
        return {
            "accepted": accepted,
            "burned_keys": burned,
            "overcount": max(0, accepted - burned),
        }

    def _validate_reading(
        self, request: SensingRequest, device_id: str, payload: dict
    ) -> bool:
        if device_id not in self.devices:
            return False
        value = payload.get("value")
        if value is None:
            return False
        if request.task.sensor_type is SensorType.BAROMETER:
            low, high = PRESSURE_VALID_RANGE
            if not low <= value <= high:
                return False
        return True

    def _forward_to_application(
        self, request: SensingRequest, device_id: str, payload: dict
    ) -> None:
        callback = self._data_callbacks.get(str(request.task.task_id))
        if callback is None:
            return
        record = self.devices.record(device_id)
        safe_payload = scrub_payload(payload)
        point = SensedDataPoint(
            request_id=request.request_id,
            task_id=request.task.task_id,
            sensor_type=request.task.sensor_type,
            value=safe_payload["value"],
            sensed_at=safe_payload.get("sensed_at", self._sim.now),
            delivered_at=self._sim.now,
            device_hash=record.imei_hash,
        )
        if self.privacy is not None:
            self.privacy.offer(point, request.task.origin, callback)
        else:
            callback(point)

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------

    def selections_per_device(self) -> Dict[str, int]:
        """How many times each device was selected (Fig. 9 fairness)."""
        counts: Dict[str, int] = {}
        for event in self.selection_log:
            for device_id in event.selected:
                counts[device_id] = counts.get(device_id, 0) + 1
        return counts
