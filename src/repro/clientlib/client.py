"""The Sense-Aid client-side library.

Strategy for an incoming assignment:

- radio already CONNECTED (active or in its tail) → sense and upload
  immediately; the upload is nearly free (and under Sense-Aid Complete
  it does not even extend the tail);
- radio IDLE → hold the assignment and watch radio state; the next
  tail the user's own traffic opens is the upload opportunity;
- deadline approaching with no tail → force the upload anyway (paying
  a promotion) so data quality never suffers — the paper's
  "prerequisite of not harming crowdsensing data".

State reports (battery level, cumulative crowdsensing energy) ride the
control plane at each tail entry, mirroring the paper's service thread
that "sends these control messages to the proxy server only when the
radio tail time is found" — and, like the paper, their energy is
excluded from the crowdsensing account.

Hardening against the chaos layer (see :mod:`repro.faults`):

- with a :class:`~repro.core.config.RetryPolicy`, every upload is
  tracked until the server's ack arrives; unacknowledged uploads are
  retried with exponential backoff and deterministic jitter, capped
  attempts, and tail-aware scheduling (a due retry waits for the next
  CONNECTED window before paying a cold promotion).  Retransmissions
  reuse the original reading and carry an attempt-independent
  ``upload_id``, so the server's idempotency keys count them once;
- while the Sense-Aid path is down (crash or partition), regular
  traffic takes path 1 (the paper's §3 fail-safe) and uploads keep
  their retry schedule; when the path comes back from a server
  restart, the client resyncs with the new incarnation (state report
  + replay of every unacknowledged upload), the same way
  :meth:`SenseAidClient.redirect` follows a fleet failover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.cellular.network import CellularNetwork
from repro.cellular.packets import sensor_data_message
from repro.cellular.rrc import RRCState
from repro.core.config import RetryPolicy
from repro.core.overload import ServerOverloadedError
from repro.core.server import Assignment, SenseAidServer
from repro.devices.device import SimDevice
from repro.devices.sensors import SensorReading
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.simlog import SimLogger


@dataclass
class PendingAssignment:
    """An assignment waiting for an upload opportunity."""

    assignment: Assignment
    force_timer: Optional[Event] = None
    completed: bool = False


@dataclass
class _UploadState:
    """One upload awaiting the server's ack (retry bookkeeping)."""

    assignment: Assignment
    reading: SensorReading
    upload_id: str
    attempts: int = 0
    acked: bool = False
    waiting_for_tail: bool = False
    ack_timer: Optional[Event] = None
    retry_timer: Optional[Event] = None


@dataclass
class ClientStats:
    """Where this client's uploads happened (for diagnostics/tests)."""

    assignments_received: int = 0
    uploads_in_tail: int = 0
    uploads_piggybacked: int = 0
    uploads_forced: int = 0
    state_reports: int = 0
    uploads_retried: int = 0
    uploads_acked: int = 0
    uploads_abandoned: int = 0
    retries_in_tail: int = 0
    resync_uploads: int = 0
    epoch_resyncs: int = 0
    stale_assignments_dropped: int = 0
    uploads_shed: int = 0
    stale_epoch_resends: int = 0
    registrations_deferred: int = 0
    shard_redirects: int = 0

    @property
    def uploads_total(self) -> int:
        return self.uploads_in_tail + self.uploads_piggybacked + self.uploads_forced


class SenseAidClient:
    """Per-device middleware endpoint."""

    def __init__(
        self,
        sim: Simulator,
        device: SimDevice,
        server: SenseAidServer,
        network: CellularNetwork,
        *,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self._sim = sim
        self._device = device
        self._server = server
        self._network = network
        self._pending: Dict[str, PendingAssignment] = {}
        self._registered = False
        self._powered = True
        self.stats = ClientStats()
        self.retry_policy = retry_policy
        self._inflight: Dict[str, _UploadState] = {}
        #: Upload ids the server has *accepted* (ground truth for
        #: anti-entropy reconciliation after partitions/failovers).
        #: Only tracked when a retry policy is active — legacy
        #: fire-and-forget uploads never see their ack.
        self.acked_uploads: Set[str] = set()
        #: How many times each upload id came back with a *fresh*
        #: ``accepted`` verdict (duplicates ack with reason
        #: ``"duplicate"`` and don't count).  Any id at 2+ means a
        #: server double-counted the reading — see
        #: :meth:`double_accepted_uploads`.
        self._accepted_acks: Dict[str, int] = {}
        self.log = SimLogger(sim, "repro.clientlib")
        # The retry jitter stream is created only when retries are on,
        # so legacy (no-retry) runs make exactly the draws they used to.
        self._retry_rng = (
            sim.rng.stream(f"retry:{device.device_id}")
            if retry_policy is not None
            else None
        )
        #: Last server incarnation this client has synced with; stamped
        #: on every upload so a restarted server can refuse stale ones.
        self._server_epoch = server.epoch
        device.modem.add_state_listener(self._on_radio_state)
        # Watch the Sense-Aid path: a restoration is how the client
        # learns the server may have restarted (epoch resync).
        network.add_path_listener(self._on_path_change)

    @property
    def device(self) -> SimDevice:
        return self._device

    @property
    def server(self) -> SenseAidServer:
        return self._server

    @property
    def registered(self) -> bool:
        return self._registered

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def inflight_count(self) -> int:
        """Uploads transmitted but not yet acknowledged (retry mode)."""
        return len(self._inflight)

    def double_accepted_uploads(self) -> Dict[str, int]:
        """Upload ids freshly *accepted* more than once by some server.

        A retransmit of an already-accepted upload must come back as
        ``"duplicate"``; a second ``"accepted"`` verdict means the
        reading was counted twice (e.g. by a fenced zombie and its
        successor).  Empty dict == idempotency held for this device.
        """
        return {
            upload_id: count
            for upload_id, count in sorted(self._accepted_acks.items())
            if count > 1
        }

    @property
    def powered(self) -> bool:
        return self._powered

    # ------------------------------------------------------------------
    # The paper's five-call client API
    # ------------------------------------------------------------------

    def register(self) -> None:
        """Sign up for crowdsensing campaigns.

        If the server sheds the registration (overload), the attempt is
        deferred and automatically repeated after the server's
        Retry-After hint rather than failing outright.
        """
        if self._registered:
            raise RuntimeError(f"{self._device.device_id} is already registered")
        try:
            self._server.register_device(self._device, self._on_assignment)
        except ServerOverloadedError as exc:
            self.stats.registrations_deferred += 1
            self.log.event(
                "registration_deferred",
                device_id=self._device.device_id,
                retry_after_s=round(exc.retry_after_s, 6),
            )
            self._sim.schedule(max(exc.retry_after_s, 0.1), self._retry_register)
            return
        self._registered = True
        self._server_epoch = self._server.epoch

    def _retry_register(self) -> None:
        if self._registered or not self._powered:
            return
        self.register()

    def deregister(self) -> None:
        if not self._registered:
            raise RuntimeError(f"{self._device.device_id} is not registered")
        for pending in self._pending.values():
            self._cancel_force_timer(pending)
        self._pending.clear()
        self._abandon_inflight()
        # The server may have lost our record independently (fault
        # injection, failover to an instance that never knew us); a
        # goodbye to someone who already forgot us is still a goodbye.
        if self._device.device_id in self._server.devices:
            self._server.deregister_device(self._device.device_id)
        self._registered = False

    def bind_server(self, server: SenseAidServer) -> None:
        """Point this client at a (different) edge instance.

        Only allowed while unregistered; a registered client moves via
        :meth:`migrate`.
        """
        if self._registered:
            raise RuntimeError("deregister (or migrate) before re-binding")
        self._server = server

    def migrate(self, server: SenseAidServer) -> None:
        """Hand this client over to another edge instance.

        Used by a :class:`~repro.core.sharding.NearestSite` fleet's
        rebalance when the user walks nearer another instance's site:
        pending assignments at the old instance are abandoned (its
        scheduler will see the device as unqualified there anyway) and
        the client re-registers at the new one.
        """
        if self._registered:
            self.deregister()
        self._server = server
        self.register()

    def redirect(self, server: SenseAidServer) -> None:
        """Follow this device's home shard to a new incumbent.

        Unlike :meth:`migrate` (a geographic handover between peers
        that never met this device), the failover target has replayed
        the home shard's WAL and already holds our registration — so
        the session *resyncs* rather than re-registers: handlers are
        re-attached under the new incarnation epoch, a state report is
        sent, and every unacknowledged upload is replayed (idempotency
        keys make the replay safe).  An unregistered client only
        rebinds.
        """
        if not self._powered:
            return
        if server is self._server and self._server_epoch == server.epoch:
            return
        if not self._registered:
            # A session the user ended stays ended; a registration that
            # overload deferred lands here through its scheduled retry.
            self._server = server
            return
        try:
            server.resync_device(self._device, self._on_assignment)
        except ServerOverloadedError as exc:
            self._sim.schedule(max(exc.retry_after_s, 0.1), self.redirect, server)
            return
        old_epoch = self._server_epoch
        self._server = server
        self._server_epoch = server.epoch
        self.stats.shard_redirects += 1
        self.log.event(
            "shard_redirect",
            device_id=self._device.device_id,
            old_epoch=old_epoch,
            new_epoch=server.epoch,
        )
        self._send_state_report()
        self._replay_inflight()

    def update_preferences(
        self,
        *,
        energy_budget_j: Optional[float] = None,
        critical_battery_pct: Optional[float] = None,
    ) -> None:
        """Change the user's participation preferences, locally and
        at the server."""
        if energy_budget_j is not None:
            self._device.preferences.energy_budget_j = energy_budget_j
        if critical_battery_pct is not None:
            self._device.preferences.critical_battery_pct = critical_battery_pct
        if self._registered:
            self._server.update_preferences(
                self._device.device_id,
                energy_budget_j=energy_budget_j,
                critical_battery_pct=critical_battery_pct,
            )

    def start_sensing(self, assignment: Assignment) -> SensorReading:
        """Sample the sensor an assignment asks for."""
        return self._device.sample(assignment.sensor_type)

    def send_sense_data(
        self, assignment: Assignment, reading: SensorReading
    ) -> None:
        """Upload one reading for an assignment over the data path.

        Without a retry policy this is the legacy fire-and-forget
        transfer; with one, the upload is tracked until acknowledged
        and retransmitted on timeout.
        """
        if self.retry_policy is None:
            self._transmit_legacy(assignment, reading)
            return
        request_id = assignment.request.request_id
        state = _UploadState(
            assignment=assignment,
            reading=reading,
            upload_id=f"{self._device.device_id}:{request_id}",
        )
        self._inflight[request_id] = state
        self._transmit_upload(state)

    # ------------------------------------------------------------------
    # Upload transmission, acks, and retries
    # ------------------------------------------------------------------

    def _upload_payload(self, assignment: Assignment, reading: SensorReading) -> dict:
        return {
            "device_id": self._device.device_id,
            "request_id": assignment.request.request_id,
            "value": reading.value,
            "sensed_at": reading.time,
            "epoch": self._server_epoch,
        }

    def _transmit_legacy(
        self, assignment: Assignment, reading: SensorReading
    ) -> None:
        message = sensor_data_message(
            self._device.device_id, self._upload_payload(assignment, reading)
        )
        self._network.uplink(
            self._device,
            message,
            on_delivered=self._server.receive_sensed_data,
            resets_tail=self._server.crowdsensing_resets_tail(),
        )
        # Stamp the state fields after the radio has accepted (and
        # charged) the transfer, so the server's record reflects this
        # very upload's cost — not the counter from before it.
        message.payload["battery_pct"] = self._device.battery.level_pct
        message.payload["energy_used_j"] = self._device.crowdsensing_energy_j()

    def _transmit_upload(self, state: _UploadState) -> None:
        state.attempts += 1
        state.waiting_for_tail = False
        self._cancel_timer(state, "retry_timer")
        request_id = state.assignment.request.request_id
        payload = self._upload_payload(state.assignment, state.reading)
        upload_id = state.upload_id
        payload["upload_id"] = upload_id
        payload["attempt"] = state.attempts
        message = sensor_data_message(self._device.device_id, payload)

        def delivered(msg, receipt) -> None:
            # The server's processing is idempotent; delivery also
            # triggers the ack back to this client after one more core
            # transit.  A duplicated delivery acks twice — harmless.
            # Shed and stale-epoch verdicts route to their handlers so
            # the client backs off (honoring Retry-After) or resyncs.
            ack = self._server.receive_sensed_data(msg, receipt)
            latency = self._network.core_latency_s
            if ack is not None and ack.accepted and ack.reason == "accepted":
                # Ledger for the soak idempotency invariant: a correct
                # server accepts each upload id fresh at most once.
                self._accepted_acks[upload_id] = (
                    self._accepted_acks.get(upload_id, 0) + 1
                )
            if ack is not None and not ack.accepted and ack.reason == "shed":
                self._sim.schedule(
                    latency, self._on_upload_shed, request_id, ack.retry_after_s
                )
            elif ack is not None and not ack.accepted and ack.reason == "stale_epoch":
                self._sim.schedule(latency, self._on_stale_epoch, request_id)
            elif ack is not None and not ack.accepted and ack.reason == "crashed":
                # A dead instance reached over a live radio path (multi-
                # shard topologies): no real ack will ever come.  Leave
                # the upload in flight — the ack timeout drives the
                # retry, and the fleet's redirect to the successor
                # replays it.
                pass
            else:
                accepted = ack is None or ack.accepted
                self._sim.schedule(
                    latency, self._on_upload_acked, request_id, accepted
                )

        self._network.uplink(
            self._device,
            message,
            on_delivered=delivered,
            resets_tail=self._server.crowdsensing_resets_tail(),
        )
        message.payload["battery_pct"] = self._device.battery.level_pct
        message.payload["energy_used_j"] = self._device.crowdsensing_energy_j()
        if state.attempts > 1:
            self.stats.uploads_retried += 1
            self.log.event(
                "retry",
                device_id=self._device.device_id,
                request_id=request_id,
                attempt=state.attempts,
            )
        self._cancel_timer(state, "ack_timer")
        state.ack_timer = self._sim.schedule(
            self.retry_policy.ack_timeout_s, self._on_ack_timeout, request_id
        )

    def _on_upload_acked(self, request_id: str, accepted: bool = True) -> None:
        state = self._inflight.pop(request_id, None)
        if state is None:
            return  # already acked (duplicate delivery) or abandoned
        state.acked = True
        self._cancel_timer(state, "ack_timer")
        self._cancel_timer(state, "retry_timer")
        if accepted:
            self.acked_uploads.add(state.upload_id)
        self.stats.uploads_acked += 1
        self.log.event(
            "upload_acked",
            device_id=self._device.device_id,
            request_id=request_id,
            attempts=state.attempts,
        )

    def _on_ack_timeout(self, request_id: str) -> None:
        state = self._inflight.get(request_id)
        if state is None or not self._powered:
            return
        if self._give_up(request_id, state):
            return
        backoff = self.retry_policy.backoff_s(state.attempts)
        jitter = self.retry_policy.jitter_fraction
        if jitter > 0.0:
            backoff *= 1.0 + jitter * (2.0 * self._retry_rng.random() - 1.0)
        state.retry_timer = self._sim.schedule(
            backoff, self._on_retry_due, request_id
        )

    def _on_upload_shed(self, request_id: str, retry_after_s: float) -> None:
        """The server refused the upload under overload: back off for at
        least its Retry-After hint, then retry through the normal
        tail-aware path."""
        state = self._inflight.get(request_id)
        if state is None or not self._powered:
            return
        self._cancel_timer(state, "ack_timer")
        self.stats.uploads_shed += 1
        self.log.event(
            "upload_shed",
            device_id=self._device.device_id,
            request_id=request_id,
            attempt=state.attempts,
            retry_after_s=round(retry_after_s, 6),
        )
        if self._give_up(request_id, state):
            return
        self._cancel_timer(state, "retry_timer")
        state.retry_timer = self._sim.schedule(
            self.retry_policy.shed_delay_s(state.attempts, retry_after_s),
            self._on_retry_due,
            request_id,
        )

    def _on_stale_epoch(self, request_id: str) -> None:
        """The upload was stamped with a previous server incarnation:
        resync, then retransmit under the new epoch (the request's
        bookkeeping survived the restart via the WAL)."""
        state = self._inflight.get(request_id)
        if state is None or not self._powered:
            return
        self._cancel_timer(state, "ack_timer")
        self.stats.stale_epoch_resends += 1
        self.log.event(
            "stale_epoch_resend",
            device_id=self._device.device_id,
            request_id=request_id,
            known_epoch=self._server_epoch,
            server_epoch=self._server.epoch,
        )
        self._resync_epoch()
        if self._give_up(request_id, state):
            return
        self._transmit_upload(state)

    def _on_retry_due(self, request_id: str) -> None:
        state = self._inflight.get(request_id)
        if state is None or not self._powered:
            return
        if self._device.modem.is_connected or self._device.modem.in_tail:
            self.stats.retries_in_tail += 1
            self._transmit_upload(state)
            return
        # Radio idle: wait for the next CONNECTED window, but never
        # past the deadline-grace point (or the policy's patience cap)
        # — retries keep the same energy/deadline discipline as first
        # uploads.
        state.waiting_for_tail = True
        force_at = self._sim.now + self.retry_policy.tail_wait_max_s
        grace_at = (
            state.assignment.deadline - self._server.config.deadline_grace_s
        )
        if grace_at > self._sim.now:
            force_at = min(force_at, grace_at)
        state.retry_timer = self._sim.schedule_at(
            force_at, self._on_retry_forced, request_id
        )

    def _on_retry_forced(self, request_id: str) -> None:
        state = self._inflight.get(request_id)
        if state is None or not self._powered:
            return
        if state.waiting_for_tail:
            self._transmit_upload(state)

    def _give_up(self, request_id: str, state: _UploadState) -> bool:
        """Abandon an upload that has used all its attempts.

        Returns True when it did, so the caller stops its retry path.
        """
        if state.attempts < self.retry_policy.max_attempts:
            return False
        self._inflight.pop(request_id, None)
        self.stats.uploads_abandoned += 1
        self.log.event(
            "upload_abandoned",
            device_id=self._device.device_id,
            request_id=request_id,
            attempts=state.attempts,
        )
        return True

    def _replay_inflight(self) -> None:
        """Retransmit every unacknowledged upload after a resync; the
        server's idempotency keys count an already-accepted one once."""
        for state in list(self._inflight.values()):
            self.stats.resync_uploads += 1
            self._transmit_upload(state)

    def _abandon_inflight(self) -> None:
        for state in self._inflight.values():
            self._cancel_timer(state, "ack_timer")
            self._cancel_timer(state, "retry_timer")
        self._inflight.clear()

    def _cancel_timer(self, state: _UploadState, name: str) -> None:
        timer = getattr(state, name)
        if timer is not None:
            self._sim.cancel(timer)
            setattr(state, name, None)

    # ------------------------------------------------------------------
    # Resync after a server restart
    # ------------------------------------------------------------------

    def _on_path_change(self, available: bool) -> None:
        # Path restored: find out whether the server we knew is the one
        # that came back, and if not, resync and replay every
        # unacknowledged upload under the new incarnation.
        if available:
            self._resync_epoch(replay=True)

    def _resync_epoch(self, replay: bool = False) -> None:
        """Adopt the server's current incarnation.

        Re-establishes the session (handler re-attachment; full
        registration if the restarted server lost us entirely), sends a
        fresh state report, and optionally replays unacknowledged
        uploads under the new epoch.  A shed resync reschedules itself
        after the server's Retry-After hint.
        """
        if not self._powered or not self._registered:
            return
        server = self._server
        if self._server_epoch == server.epoch:
            return
        try:
            server.resync_device(self._device, self._on_assignment)
        except ServerOverloadedError as exc:
            self._sim.schedule(
                max(exc.retry_after_s, 0.1), self._resync_epoch, replay
            )
            return
        old_epoch = self._server_epoch
        self._server_epoch = server.epoch
        self.stats.epoch_resyncs += 1
        self.log.event(
            "epoch_resync",
            device_id=self._device.device_id,
            old_epoch=old_epoch,
            new_epoch=server.epoch,
        )
        self._send_state_report()
        if replay:
            self._replay_inflight()

    # ------------------------------------------------------------------
    # Device churn (chaos layer)
    # ------------------------------------------------------------------

    def power_off(self) -> None:
        """Abrupt death: battery out, no deregistration, no goodbyes.

        All client-side timers stop and future assignments are
        ignored; the server only learns through missed deliveries
        (unresponsive strikes) or reassignment.
        """
        if not self._powered:
            return
        self._powered = False
        for pending in self._pending.values():
            self._cancel_force_timer(pending)
        self._pending.clear()
        self._abandon_inflight()
        if self._device.traffic.running:
            self._device.traffic.stop()
        self.log.event("power_off", device_id=self._device.device_id)

    # ------------------------------------------------------------------
    # Assignment handling
    # ------------------------------------------------------------------

    def _on_assignment(self, assignment: Assignment) -> None:
        if not self._powered:
            return
        if assignment.epoch != self._server_epoch:
            if assignment.epoch < self._server_epoch:
                # Issued by a dead incarnation (e.g. delivered in
                # flight across a restart): never act on it.
                self.stats.stale_assignments_dropped += 1
                self.log.event(
                    "stale_assignment_dropped",
                    device_id=self._device.device_id,
                    request_id=assignment.request.request_id,
                    assignment_epoch=assignment.epoch,
                    known_epoch=self._server_epoch,
                )
                return
            # The server moved ahead of us: resync before trusting it.
            self._resync_epoch()
            if self._server_epoch != assignment.epoch:
                return  # resync deferred (overload); drop for now
        self.stats.assignments_received += 1
        pending = PendingAssignment(assignment=assignment)
        self._pending[assignment.request.request_id] = pending
        if self._device.modem.state in (RRCState.ACTIVE, RRCState.PROMOTING):
            self._complete(pending, "piggyback")
            return
        if self._device.modem.in_tail:
            self._complete(pending, "tail")
            return
        grace = self._server.config.deadline_grace_s
        fire_at = max(self._sim.now, assignment.deadline - grace)
        pending.force_timer = self._sim.schedule_at(
            fire_at, self._force_upload, assignment.request.request_id
        )

    def _on_radio_state(self, old: RRCState, new: RRCState) -> None:
        if new is not RRCState.TAIL or not self._powered:
            return
        self._flush_pending_in_tail()
        self._flush_retries_in_tail()
        if self._registered:
            self._send_state_report()

    def _flush_pending_in_tail(self) -> None:
        for request_id in list(self._pending):
            pending = self._pending.get(request_id)
            if pending is None or pending.completed:
                continue
            self._complete(pending, "tail")

    def _flush_retries_in_tail(self) -> None:
        if self.retry_policy is None:
            return
        for request_id in list(self._inflight):
            state = self._inflight.get(request_id)
            if state is None or not state.waiting_for_tail:
                continue
            self.stats.retries_in_tail += 1
            self._transmit_upload(state)

    def _force_upload(self, request_id: str) -> None:
        pending = self._pending.get(request_id)
        if pending is None or pending.completed:
            return
        self._complete(pending, "forced")

    def _complete(self, pending: PendingAssignment, how: str) -> None:
        pending.completed = True
        self._cancel_force_timer(pending)
        self._pending.pop(pending.assignment.request.request_id, None)
        reading = self.start_sensing(pending.assignment)
        self.send_sense_data(pending.assignment, reading)
        if how == "tail":
            self.stats.uploads_in_tail += 1
        elif how == "piggyback":
            self.stats.uploads_piggybacked += 1
        else:
            self.stats.uploads_forced += 1

    def _cancel_force_timer(self, pending: PendingAssignment) -> None:
        if pending.force_timer is not None:
            self._sim.cancel(pending.force_timer)
            pending.force_timer = None

    def _send_state_report(self) -> None:
        """Control-plane battery/energy report (energy excluded per paper)."""
        self.stats.state_reports += 1
        self._server.report_device_state(
            self._device.device_id,
            self._device.battery.level_pct,
            self._device.crowdsensing_energy_j(),
        )
