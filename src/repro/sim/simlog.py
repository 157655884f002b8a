"""Simulation-time-aware logging.

Standard :mod:`logging`, but every record carries the *simulation*
clock rather than the wall clock — `t=1234.5s` is what you need when
debugging a scheduling decision.  Loggers are namespaced under
``repro.*`` and silent unless the host application configures logging,
like any library.

Usage::

    log = SimLogger(sim, "repro.core.server")
    log.info("scheduled %s on %s", request_id, device_ids)

Besides free-text records, components emit **structured events**
(``log.event("retry", device_id=..., attempt=...)``) into a per-run
:class:`StructuredEventLog`, so a chaos run is auditable — which
messages were dropped, delayed, duplicated; which uploads were retried
and which duplicates the server discarded — from the log alone, and a
whole run can be fingerprinted (:meth:`StructuredEventLog.signature`)
to prove two same-seed runs were bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from repro.sim.engine import Simulator


@dataclass(frozen=True)
class SimEventRecord:
    """One structured event: what happened, where, when, with what."""

    time: float
    source: str
    kind: str
    fields: Mapping[str, Any]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "time": self.time,
            "source": self.source,
            "kind": self.kind,
            **dict(self.fields),
        }


class StructuredEventLog:
    """Append-only record of structured simulation events.

    One instance per :class:`Simulator`, shared by every
    :class:`SimLogger` attached to that simulator — obtain it with
    :func:`structured_log`.
    """

    def __init__(self) -> None:
        self._records: List[SimEventRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def append(self, record: SimEventRecord) -> None:
        self._records.append(record)

    def records(
        self, kind: Optional[str] = None, source: Optional[str] = None
    ) -> List[SimEventRecord]:
        """Events, optionally filtered by kind and/or source logger."""
        return [
            r
            for r in self._records
            if (kind is None or r.kind == kind)
            and (source is None or r.source == source)
        ]

    def counts(self) -> Dict[str, int]:
        """How many events of each kind were recorded."""
        out: Dict[str, int] = {}
        for record in self._records:
            out[record.kind] = out.get(record.kind, 0) + 1
        return out

    def signature(self) -> str:
        """SHA-256 over the canonical serialisation of every event.

        Two runs with the same seed and scenario must produce the same
        signature — the determinism check the chaos benchmark asserts.
        """
        payload = json.dumps(
            [r.as_dict() for r in self._records],
            sort_keys=True,
            separators=(",", ":"),
            default=str,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def structured_log(sim: Simulator) -> StructuredEventLog:
    """The per-simulator structured event log (created on first use)."""
    existing = getattr(sim, "_structured_event_log", None)
    if existing is None:
        existing = StructuredEventLog()
        sim._structured_event_log = existing
    return existing


class SimLogger:
    """A thin logging facade that prefixes simulation time."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self._sim = sim
        self._logger = logging.getLogger(name)

    @property
    def name(self) -> str:
        return self._logger.name

    def isEnabledFor(self, level: int) -> bool:
        return self._logger.isEnabledFor(level)

    def debug(self, message: str, *args: Any) -> None:
        self._log(logging.DEBUG, message, args)

    def info(self, message: str, *args: Any) -> None:
        self._log(logging.INFO, message, args)

    def warning(self, message: str, *args: Any) -> None:
        self._log(logging.WARNING, message, args)

    def error(self, message: str, *args: Any) -> None:
        self._log(logging.ERROR, message, args)

    def event(self, kind: str, **fields: Any) -> SimEventRecord:
        """Record a structured event (and mirror it at DEBUG level).

        The record lands in the simulator's :class:`StructuredEventLog`
        unconditionally — structured auditability must not depend on
        the host application's logging configuration.
        """
        record = SimEventRecord(
            time=self._sim.now,
            source=self._logger.name,
            kind=kind,
            fields=fields,
        )
        structured_log(self._sim).append(record)
        if self._logger.isEnabledFor(logging.DEBUG):
            rendered = " ".join(f"{k}={v!r}" for k, v in fields.items())
            self._logger.log(
                logging.DEBUG, "[t=%.2fs] %s %s", self._sim.now, kind, rendered
            )
        return record

    def _log(self, level: int, message: str, args: tuple) -> None:
        if not self._logger.isEnabledFor(level):
            return
        rendered = message % args if args else message
        self._logger.log(level, "[t=%.2fs] %s", self._sim.now, rendered)
