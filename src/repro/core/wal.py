"""Write-ahead logging and crash recovery for the Sense-Aid server.

A carrier-edge control plane cannot afford to lose registration,
assignment, or accounting state across a process crash.  This module
makes :class:`~repro.core.server.SenseAidServer` durable:

- :class:`WriteAheadLog` — the storage layer: an append-only JSON-lines
  log (``wal.jsonl``) plus an atomically-replaced checkpoint file
  (``checkpoint.json``).  ``compact()`` snapshots the full durable
  state and truncates the log, bounding replay time.
- :func:`checkpoint_server` — the checkpoint format: device records,
  each task with the absolute window its remainder resumes in, the
  aggregate :class:`~repro.core.server.ServerStats`, the burned
  idempotency keys and the pending per-request assignment bookkeeping,
  as one JSON-compatible dict.
- :class:`DurableLog` — the server-facing recorder: one ``record_*``
  method per state-mutating control-plane event (register, deregister,
  task submit/update/delete, selection, upload accept + key burn), and
  :meth:`DurableLog.recover_into`, which rebuilds a restarted server
  from checkpoint + replay and bumps its incarnation epoch.
- :func:`durable_state` / :func:`check_recovery_invariants` — a
  projection of exactly the state recovery promises to preserve, and a
  checker proving a recovered server matches its pre-crash self: no
  lost or double-counted accepted uploads, no resurrected burned
  idempotency keys, monotone (exactly-reconstructed) fairness
  counters, and an epoch strictly one past the pre-crash incarnation.

The server never imports this module; it calls the duck-typed ``wal``
object handed to its constructor, so the dependency points one way
(wal → server).
"""

from __future__ import annotations

import dataclasses
import json
import os
import zlib
from typing import Dict, List, Optional, TextIO, Tuple

from repro.core.datastores import (
    record_from_dict,
    record_to_dict,
    task_from_dict,
    task_to_dict,
)
from repro.core.server import (
    DataCallback,
    SenseAidServer,
    ServerStats,
    _RequestTracking,
)
from repro.core.tasks import SensingRequest, TaskSpec
from repro.storage import atomic_write

#: Version of the :func:`checkpoint_server` format, the only one read.
FORMAT_VERSION = 2

CRC_FIELD = "crc32"
#: Checkpoint field holding the highest log ``seq`` the snapshot covers.
SEQ_FIELD = "last_seq"


# ----------------------------------------------------------------------
# The checkpoint format
# ----------------------------------------------------------------------


def pending_to_dict(tracking: _RequestTracking) -> dict:
    """One in-flight request's assignment bookkeeping, serialised."""
    request = tracking.request
    return {
        "request_id": request.request_id,
        "task_id": request.task.task_id,
        "sequence": request.sequence,
        "issue_time": request.issue_time,
        "deadline": request.deadline,
        "assigned": sorted(tracking.assigned),
        "received": sorted(tracking.received),
        "satisfied": tracking.satisfied,
    }


def checkpoint_server(server: SenseAidServer) -> dict:
    """Snapshot the server's durable state as a JSON-compatible dict.

    Tasks are stored with an absolute end time *and* their effective
    start so a restore at a later point can re-submit exactly the
    unexpired remainder, numbered like the original requests.
    """
    now = server._sim.now
    tasks = []
    for task in server.tasks.all_tasks():
        entry = task_to_dict(task)
        start = server._task_starts[task.task_id]
        entry["absolute_end"] = server._task_end(task, start)
        entry["effective_start"] = start
        tasks.append(entry)
    pending = [
        pending_to_dict(tracking)
        for _, tracking in sorted(server._tracking.items())
    ]
    return {
        "version": FORMAT_VERSION,
        "taken_at": now,
        "epoch": server.epoch,
        "devices": [record_to_dict(r) for r in server.devices.records()],
        "tasks": tasks,
        "stats": dataclasses.asdict(server.stats),
        "seen_upload_ids": sorted(server._seen_upload_ids),
        "pending": pending,
    }


# ----------------------------------------------------------------------
# The write-ahead log
# ----------------------------------------------------------------------


class CheckpointCorruptError(ValueError):
    """A checkpoint file failed its integrity check (torn write or
    bit rot): unparseable JSON or a CRC footer mismatch."""


def checkpoint_crc(snapshot: dict) -> int:
    """CRC32 over the canonical JSON encoding of the snapshot body
    (everything except the footer field itself)."""
    body = json.dumps(
        {k: v for k, v in snapshot.items() if k != CRC_FIELD}, sort_keys=True
    )
    return zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF


class WriteAheadLog:
    """Append-only JSON-lines log with an atomic checkpoint.

    Entries are sequence-numbered, and :meth:`compact` stamps each
    checkpoint with the highest ``seq`` it covers before it truncates
    the log.  Recovery replays only entries above the stamp, so a crash
    between installing the checkpoint and truncating the log replays
    nothing twice — ``assign`` and ``upload_accept`` are not
    idempotent.

    Checkpoints carry a CRC32 footer over their canonical JSON body; a
    checkpoint without the footer or the stamp is corrupt.
    :meth:`compact` keeps the superseded checkpoint and the log entries
    it subsumed (``checkpoint.prev.json`` / ``wal.prev.jsonl``) so that
    a torn or bit-rotted current checkpoint degrades recovery to
    "previous checkpoint + full replay" instead of data loss — see
    :meth:`recovery_base`.

    The first append opens the log and later appends reuse the handle;
    :meth:`compact` and :meth:`recovery_base`, which rewrite or reread
    the file by path, close it first, and :meth:`close` releases it.
    """

    LOG_NAME = "wal.jsonl"
    CHECKPOINT_NAME = "checkpoint.json"
    PREV_LOG_NAME = "wal.prev.jsonl"
    PREV_CHECKPOINT_NAME = "checkpoint.prev.json"

    #: The open append handle, if any (a class default, so ``close``
    #: is safe on an instance whose ``__init__`` raised).
    _handle: Optional[TextIO] = None

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.log_path = os.path.join(directory, self.LOG_NAME)
        self.checkpoint_path = os.path.join(directory, self.CHECKPOINT_NAME)
        self.prev_log_path = os.path.join(directory, self.PREV_LOG_NAME)
        self.prev_checkpoint_path = os.path.join(
            directory, self.PREV_CHECKPOINT_NAME
        )
        self.fallbacks = 0
        # Number new entries above everything on disk, the checkpoint
        # stamps included: two compactions in a row leave both logs
        # empty, and an entry numbered at or below a stamp would be
        # skipped on replay.
        self._seq = max(
            [
                self._stamp_at(path)
                for path in (self.prev_checkpoint_path, self.checkpoint_path)
            ]
            + [
                entry["seq"]
                for path in (self.prev_log_path, self.log_path)
                for entry in self._entries_at(path)
            ]
        )

    def append(self, kind: str, **fields) -> dict:
        """Durably append one event; returns the stored entry."""
        self._seq += 1
        entry = {"seq": self._seq, "kind": kind, **fields}
        if self._handle is None:
            self._handle = open(self.log_path, "a", encoding="utf-8")
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        return entry

    def close(self) -> None:
        """Release the append handle; the next append reopens the log."""
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    __del__ = close

    def entries(self) -> List[dict]:
        """All intact entries, in append order.

        A torn final line (crash mid-append) is silently dropped, as is
        everything after it — a hole in the sequence means nothing past
        it can be trusted.
        """
        return self._entries_at(self.log_path)

    @staticmethod
    def _entries_at(path: str) -> List[dict]:
        if not os.path.exists(path):
            return []
        out: List[dict] = []
        with open(path, "r", encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    break
                out.append(entry)
        return out

    def load_checkpoint(self) -> Optional[dict]:
        return self._load_checkpoint_at(self.checkpoint_path)

    @staticmethod
    def _load_checkpoint_at(path: str) -> Optional[dict]:
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as f:
                snapshot = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointCorruptError(f"unparseable checkpoint {path}: {exc}")
        if not isinstance(snapshot, dict):
            raise CheckpointCorruptError(f"checkpoint {path} is not an object")
        if CRC_FIELD not in snapshot or SEQ_FIELD not in snapshot:
            raise CheckpointCorruptError(
                f"checkpoint {path} lacks its {CRC_FIELD} footer or "
                f"{SEQ_FIELD} stamp"
            )
        if snapshot[CRC_FIELD] != checkpoint_crc(snapshot):
            raise CheckpointCorruptError(
                f"checkpoint {path} CRC mismatch: stored={snapshot[CRC_FIELD]} "
                f"computed={checkpoint_crc(snapshot)}"
            )
        if snapshot.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {snapshot.get('version')!r}"
            )
        return snapshot

    @classmethod
    def _stamp_at(cls, path: str) -> int:
        """The ``seq`` stamp of the checkpoint at ``path``; 0 if it is
        missing or unreadable (the other files bound it)."""
        try:
            snapshot = cls._load_checkpoint_at(path)
        except ValueError:
            return 0
        return snapshot[SEQ_FIELD] if snapshot else 0

    def recovery_base(self) -> Tuple[Optional[dict], List[dict], bool]:
        """The (checkpoint, entries, degraded) triple recovery starts from.

        Normally that is the current checkpoint plus the live log.  If
        the current checkpoint fails its integrity check, fall back to
        the previous checkpoint plus a replay of *both* retained logs —
        every durable event since the previous checkpoint is in
        ``wal.prev.jsonl`` + ``wal.jsonl``, so the rebuilt state is
        identical, just reached the slow way.  ``degraded`` reports
        that the fallback was taken (also counted in ``fallbacks``).
        Either way, entries at or below the checkpoint's ``seq`` stamp
        are dropped: the snapshot already holds their effect.
        """
        self.close()
        try:
            snapshot, entries, degraded = self.load_checkpoint(), self.entries(), False
        except CheckpointCorruptError:
            self.fallbacks += 1
            try:
                snapshot = self._load_checkpoint_at(self.prev_checkpoint_path)
            except CheckpointCorruptError:
                snapshot = None
            entries = self._entries_at(self.prev_log_path) + self.entries()
            degraded = True
        covered = snapshot[SEQ_FIELD] if snapshot else 0
        return snapshot, [e for e in entries if e["seq"] > covered], degraded

    def compact(self, snapshot: dict) -> None:
        """Install ``snapshot`` as the recovery base and truncate the log.

        Order of operations preserves a valid recovery base at every
        crash point: first the superseded checkpoint and the log
        entries it subsumes are retained as ``*.prev`` files, then the
        new checkpoint (stamped with the last ``seq`` it covers and its
        CRC footer) replaces atomically, and only then is the log
        truncated.
        """
        snapshot = dict(snapshot)
        snapshot[SEQ_FIELD] = self._seq
        snapshot[CRC_FIELD] = checkpoint_crc(snapshot)
        self.close()
        self._retain_previous()
        atomic_write(
            self.checkpoint_path, json.dumps(snapshot, indent=2).encode("utf-8")
        )
        with open(self.log_path, "w", encoding="utf-8") as f:
            f.flush()
            os.fsync(f.fileno())

    def _retain_previous(self) -> None:
        """Keep the current checkpoint + log as the one-step-back base."""
        self._copy_atomic(self.checkpoint_path, self.prev_checkpoint_path)
        self._copy_atomic(self.log_path, self.prev_log_path)

    @staticmethod
    def _copy_atomic(src: str, dst: str) -> None:
        if not os.path.exists(src):
            if os.path.exists(dst):
                os.remove(dst)
            return
        with open(src, "rb") as f:
            atomic_write(dst, f.read())


# ----------------------------------------------------------------------
# Recovery steps shared by checkpoint restore and log replay
# ----------------------------------------------------------------------


def _register_missing(server: SenseAidServer, data: dict) -> None:
    """Register a recorded device unless the server already knows it."""
    record = record_from_dict(data)
    if record.device_id not in server.devices:
        server.devices.register(record)


def _resume_remainder(
    server: SenseAidServer, entry: dict, callback: Optional[DataCallback]
) -> None:
    """Re-submit a recorded task's unexpired remainder under its original
    identity (:meth:`TaskSpec.resumed`); expired, one-shot,
    already-resumed and callback-less tasks stay down."""
    now = server._sim.now
    remainder = task_from_dict(entry).resumed(
        entry["effective_start"], entry["absolute_end"], now
    )
    if remainder is None or remainder.task_id in server.tasks or callback is None:
        return
    server.submit_task(remainder, callback, resume=True)


def _live_tracking(
    server: SenseAidServer, entry: dict
) -> Optional[_RequestTracking]:
    """The tracking of a recorded request, rebuilt if missing.

    Only a request whose task is open and whose deadline is still ahead
    comes back; ``None`` means the request is history.
    """
    task_id = entry["task_id"]
    if task_id not in server.tasks or entry["deadline"] <= server._sim.now:
        return None
    tracking = server._tracking.get(entry["request_id"])
    if tracking is None:
        request = SensingRequest(
            task=server.tasks.get(task_id),
            sequence=entry["sequence"],
            issue_time=entry["issue_time"],
            deadline=entry["deadline"],
        )
        tracking = _RequestTracking(request=request)
        server._tracking[request.request_id] = tracking
    return tracking


class DurableLog:
    """Records a server's state-mutating events and replays them.

    Attach one via ``SenseAidServer(..., wal=DurableLog(directory))``;
    the server calls the ``record_*`` hooks at each durable transition.
    Call :meth:`checkpoint` periodically to bound the log, and rely on
    :meth:`~repro.core.server.SenseAidServer.restart` (which calls
    :meth:`recover_into`) after a crash.
    """

    def __init__(self, directory: str) -> None:
        self.wal = WriteAheadLog(directory)
        self.fenced = False
        self.writes_fenced = 0

    # ------------------------------------------------------------------
    # Fencing
    # ------------------------------------------------------------------

    def fence(self) -> None:
        """Revoke this writer's lease on the log.

        Called when a failover hands the shard's range (and WAL
        directory) to a new incumbent.  The deposed process may still
        be running on the wrong side of a partition; from here on its
        ``record_*`` calls are dropped and counted rather than written,
        so a zombie can never corrupt the log its successor recovered
        from.  A durable ``fenced`` marker is appended first so the
        hand-off itself is visible in the history (replay skips it as
        an unknown kind on older readers).
        """
        if self.fenced:
            return
        self.wal.append("fenced", epoch_fenced_at=self.wal._seq)
        self.fenced = True

    def _append(self, kind: str, **fields) -> Optional[dict]:
        if self.fenced:
            self.writes_fenced += 1
            return None
        return self.wal.append(kind, **fields)

    # ------------------------------------------------------------------
    # Recording hooks (called by the server)
    # ------------------------------------------------------------------

    def record_register(self, record) -> None:
        self._append("register", record=record_to_dict(record))

    def record_deregister(self, device_id: str) -> None:
        self._append("deregister", device_id=device_id)

    def record_task_submitted(
        self, task: TaskSpec, effective_start: float, absolute_end: float
    ) -> None:
        self._append(
            "task_submitted",
            task=task_to_dict(task),
            effective_start=effective_start,
            absolute_end=absolute_end,
        )

    def record_task_updated(
        self, task: TaskSpec, effective_start: float, absolute_end: float
    ) -> None:
        self._append(
            "task_updated",
            task=task_to_dict(task),
            effective_start=effective_start,
            absolute_end=absolute_end,
        )

    def record_task_deleted(self, task_id: int) -> None:
        self._append("task_deleted", task_id=task_id)

    def record_assign(self, request: SensingRequest, device_id: str) -> None:
        self._append(
            "assign",
            request_id=request.request_id,
            task_id=request.task.task_id,
            sequence=request.sequence,
            issue_time=request.issue_time,
            deadline=request.deadline,
            device_id=device_id,
        )

    def record_upload_accept(
        self, upload_id: str, device_id: str, request_id: str, satisfied: bool
    ) -> None:
        self._append(
            "upload_accept",
            upload_id=upload_id,
            device_id=device_id,
            request_id=request_id,
            satisfied=satisfied,
        )

    def record_restart(self, epoch: int) -> None:
        self._append("restart", epoch=epoch)

    # ------------------------------------------------------------------
    # Checkpointing / recovery
    # ------------------------------------------------------------------

    def checkpoint(self, server: SenseAidServer) -> None:
        """Snapshot the server and truncate the log behind it."""
        if self.fenced:
            self.writes_fenced += 1
            return
        # A WAL checkpoint is a durability point for the app readings
        # on an open storage backend too.
        if server._storage is not None:
            server._storage.flush()
        self.wal.compact(checkpoint_server(server))

    def recover_into(self, server: SenseAidServer) -> None:
        """Rebuild a (cleared) server from checkpoint + WAL replay.

        Called by ``SenseAidServer.restart()`` with the datastores,
        tracking, and stats already reset.  Each resumed task gets the
        delivery callback registered under its id before replay began
        (:meth:`~repro.core.server.SenseAidServer.take_over` hands a
        successor its callbacks).  Ends by bumping the incarnation
        epoch past every recorded one and compacting, so the new epoch
        is itself durable.
        """
        # Replay's own deletes drop callbacks, so read from a copy.
        callbacks = dict(server._data_callbacks)
        snapshot, entries, degraded = self.wal.recovery_base()
        if degraded:
            server.log.event(
                "wal_checkpoint_corrupt",
                directory=self.wal.directory,
                fallbacks=self.wal.fallbacks,
            )
        recovered_epoch = snapshot["epoch"] if snapshot else 1
        for entry in entries:
            if entry["kind"] == "restart":
                recovered_epoch = max(recovered_epoch, entry["epoch"])
        # Bump *before* replaying so resumed tasks schedule their issue
        # events under the new incarnation (the server drops events
        # stamped with a stale epoch).
        server.epoch = recovered_epoch + 1
        wal_ref = server._wal
        server._wal = None  # replay must not re-log itself
        try:
            if snapshot is not None:
                self._apply_checkpoint(server, snapshot, callbacks)
            for entry in entries:
                self._replay_entry(server, entry, callbacks)
        finally:
            server._wal = wal_ref
        self.record_restart(server.epoch)
        self.checkpoint(server)

    def _apply_checkpoint(
        self,
        server: SenseAidServer,
        snapshot: dict,
        callbacks: Dict[str, DataCallback],
    ) -> None:
        for data in snapshot["devices"]:
            _register_missing(server, data)
        server.stats = ServerStats(**snapshot["stats"])
        server._seen_upload_ids.update(snapshot["seen_upload_ids"])
        for entry in snapshot["tasks"]:
            _resume_remainder(server, entry, callbacks.get(str(entry["task_id"])))
        for entry in snapshot["pending"]:
            tracking = _live_tracking(server, entry)
            if tracking is not None:
                tracking.assigned.update(entry["assigned"])
                tracking.received.update(entry["received"])
                tracking.satisfied = entry["satisfied"]

    def _replay_entry(
        self,
        server: SenseAidServer,
        entry: dict,
        callbacks: Dict[str, DataCallback],
    ) -> None:
        kind = entry["kind"]
        if kind == "register":
            _register_missing(server, entry["record"])
        elif kind == "deregister":
            if entry["device_id"] in server.devices:
                server.devices.deregister(entry["device_id"])
        elif kind in ("task_submitted", "task_updated"):
            task_dict = entry["task"]
            task_id = task_dict["task_id"]
            if task_id in server.tasks:
                server.delete_task(task_id)
            _resume_remainder(
                server,
                {
                    **task_dict,
                    "effective_start": entry["effective_start"],
                    "absolute_end": entry["absolute_end"],
                },
                callbacks.get(str(task_id)),
            )
        elif kind == "task_deleted":
            if entry["task_id"] in server.tasks:
                server.delete_task(entry["task_id"])
        elif kind == "assign":
            device_id = entry["device_id"]
            if device_id in server.devices:
                # Fairness counters are durable: re-count the selection.
                server.devices.record(device_id).times_selected += 1
            tracking = _live_tracking(server, entry)
            if tracking is not None:
                tracking.assigned.add(device_id)
        elif kind == "upload_accept":
            server._seen_upload_ids.add(entry["upload_id"])
            server.stats.data_points += 1
            if entry["satisfied"]:
                server.stats.requests_satisfied += 1
            tracking = server._tracking.get(entry["request_id"])
            if tracking is not None:
                tracking.received.add(entry["device_id"])
                if entry["satisfied"]:
                    tracking.satisfied = True
        elif kind == "restart":
            server.epoch = max(server.epoch, entry["epoch"])
        # Unknown kinds are skipped: a newer writer's entries must not
        # crash an older reader mid-recovery.


# ----------------------------------------------------------------------
# Recovery invariants
# ----------------------------------------------------------------------


def _live_task_ids(server: SenseAidServer) -> List[int]:
    """Tasks whose sensing window is still open.

    Expired tasks linger in the datastore on a live server but are not
    resumed by recovery, so the durable projection only counts open
    ones — the state both sides promise to agree on.
    """
    now = server._sim.now
    live: List[int] = []
    for task in server.tasks.all_tasks():
        if task.one_shot:
            # One-shot supplemental samples are fire-and-forget: their
            # single request is not re-issued by recovery, so they are
            # not part of the durable contract.
            continue
        if server._task_end(task, server._task_starts[task.task_id]) > now:
            live.append(task.task_id)
    return sorted(live)


def durable_state(server: SenseAidServer) -> dict:
    """Project exactly the state crash recovery promises to preserve.

    Volatile per-device telemetry (battery, energy, last-comm,
    responsiveness) and scheduler-side counters are
    excluded by design; what remains — identities, fairness counters,
    open tasks, burned idempotency keys, accepted-upload accounting,
    and in-flight assignment bookkeeping — must survive a crash
    bit-for-bit.
    """
    now = server._sim.now
    live_tasks = set(_live_task_ids(server))
    assignments = {}
    for request_id, tracking in server._tracking.items():
        if tracking.request.task.task_id not in live_tasks:
            continue
        if tracking.request.deadline <= now:
            continue
        assignments[request_id] = {
            "assigned": sorted(tracking.assigned),
            "received": sorted(tracking.received),
            "satisfied": tracking.satisfied,
        }
    devices = {
        record.device_id: {
            "imei_hash": record.imei_hash,
            "device_model": record.device_model,
            "times_selected": record.times_selected,
            "registered_at": record.registered_at,
        }
        for record in server.devices.records()
    }
    return {
        "epoch": server.epoch,
        "devices": devices,
        "tasks": sorted(live_tasks),
        "burned_upload_ids": sorted(server._seen_upload_ids),
        "accepted_uploads": server.stats.data_points,
        "requests_satisfied": server.stats.requests_satisfied,
        "assignments": assignments,
    }


class RecoveryViolation(str):
    """One recovery-invariant violation, structured *and* stringly.

    Subclasses ``str`` (the value is the human-readable message) so
    every pre-existing caller — ``"\\n".join(violations)``, substring
    asserts, ``== []`` — keeps working, while new callers (the soak
    invariant suite) assert on :attr:`code` and :attr:`keys` instead
    of parsing prose.
    """

    code: str
    keys: Tuple[str, ...]

    def __new__(
        cls, code: str, message: str, keys: Tuple[str, ...] = ()
    ) -> "RecoveryViolation":
        obj = super().__new__(cls, message)
        obj.code = code
        obj.keys = tuple(str(k) for k in keys)
        return obj

    @property
    def message(self) -> str:
        return str(self)

    def as_dict(self) -> dict:
        return {"code": self.code, "message": str(self), "keys": list(self.keys)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecoveryViolation({self.code!r}, {str(self)!r}, {self.keys!r})"


def check_recovery_invariants(pre: dict, post: dict) -> List[RecoveryViolation]:
    """Compare pre-crash and post-recovery durable state.

    Returns a list of :class:`RecoveryViolation` records (each one a
    ``str`` carrying a stable ``code`` and the offending ``keys``);
    empty means recovery was exact.  The checks encode the durability
    contract:

    - accepted uploads are neither lost nor double-counted;
    - burned idempotency keys are never resurrected (and none appear
      from nowhere);
    - fairness counters (``times_selected``) and device identities
      match exactly — in particular they are monotone w.r.t. the last
      checkpoint, since replay can only re-add recorded selections;
    - open tasks and in-flight assignment bookkeeping match;
    - the recovered server runs exactly one incarnation ahead.
    """
    violations: List[RecoveryViolation] = []
    if post["accepted_uploads"] != pre["accepted_uploads"]:
        violations.append(
            RecoveryViolation(
                "UPLOADS_DIVERGED",
                f"accepted uploads diverged: pre={pre['accepted_uploads']} "
                f"post={post['accepted_uploads']}",
            )
        )
    if post["requests_satisfied"] != pre["requests_satisfied"]:
        violations.append(
            RecoveryViolation(
                "SATISFIED_DIVERGED",
                f"requests_satisfied diverged: pre={pre['requests_satisfied']} "
                f"post={post['requests_satisfied']}",
            )
        )
    pre_burned = set(pre["burned_upload_ids"])
    post_burned = set(post["burned_upload_ids"])
    resurrected = pre_burned - post_burned
    if resurrected:
        violations.append(
            RecoveryViolation(
                "KEYS_RESURRECTED",
                f"burned keys resurrected: {sorted(resurrected)}",
                tuple(sorted(resurrected)),
            )
        )
    conjured = post_burned - pre_burned
    if conjured:
        violations.append(
            RecoveryViolation(
                "KEYS_CONJURED",
                f"burned keys appeared from nowhere: {sorted(conjured)}",
                tuple(sorted(conjured)),
            )
        )
    if post["devices"] != pre["devices"]:
        pre_ids = set(pre["devices"])
        post_ids = set(post["devices"])
        if pre_ids != post_ids:
            violations.append(
                RecoveryViolation(
                    "DEVICE_SET_DIVERGED",
                    f"device sets diverged: lost={sorted(pre_ids - post_ids)} "
                    f"gained={sorted(post_ids - pre_ids)}",
                    tuple(sorted(pre_ids ^ post_ids)),
                )
            )
        else:
            for device_id in sorted(pre_ids):
                if pre["devices"][device_id] != post["devices"][device_id]:
                    violations.append(
                        RecoveryViolation(
                            "DEVICE_RECORD_DIVERGED",
                            f"device {device_id} diverged: "
                            f"pre={pre['devices'][device_id]} "
                            f"post={post['devices'][device_id]}",
                            (device_id,),
                        )
                    )
    if post["tasks"] != pre["tasks"]:
        violations.append(
            RecoveryViolation(
                "TASKS_DIVERGED",
                f"open tasks diverged: pre={pre['tasks']} post={post['tasks']}",
                tuple(sorted(set(pre["tasks"]) ^ set(post["tasks"]))),
            )
        )
    if post["assignments"] != pre["assignments"]:
        pre_keys = set(pre["assignments"])
        post_keys = set(post["assignments"])
        for key in sorted(pre_keys ^ post_keys):
            violations.append(
                RecoveryViolation(
                    "ASSIGNMENT_ONE_SIDED",
                    f"assignment bookkeeping for {key} on one side only",
                    (key,),
                )
            )
        for key in sorted(pre_keys & post_keys):
            if pre["assignments"][key] != post["assignments"][key]:
                violations.append(
                    RecoveryViolation(
                        "ASSIGNMENT_DIVERGED",
                        f"assignment {key} diverged: "
                        f"pre={pre['assignments'][key]} "
                        f"post={post['assignments'][key]}",
                        (key,),
                    )
                )
    if post["epoch"] != pre["epoch"] + 1:
        violations.append(
            RecoveryViolation(
                "EPOCH_SKEW",
                f"epoch did not advance by one: pre={pre['epoch']} "
                f"post={post['epoch']}",
            )
        )
    return violations


__all__ = [
    "CheckpointCorruptError",
    "WriteAheadLog",
    "DurableLog",
    "checkpoint_crc",
    "checkpoint_server",
    "durable_state",
    "RecoveryViolation",
    "check_recovery_invariants",
]
