"""The pluggable datastore interface.

Every Sense-Aid server owns a :class:`StorageBackend` holding its
durable-ish state: the device and task datastores (document KV
namespaces) and append-only logs (selection events, stored readings).
The in-memory backend reproduces the seed's plain-dict behaviour; the
sqlite backend keeps the same state on disk so it survives the process
and so reading logs never have to live in RAM.

Two shapes of state, two sets of operations:

* **Documents** — small mutable records addressed by ``(namespace,
  key)``.  Docs are JSON-compatible dicts; ``keys()`` always returns
  them sorted, so iteration order is a property of the interface, not
  of any backend's hash function (the selector depends on it).
* **Logs** — append-only sequences per namespace, each entry a doc
  with an optional ``tag`` secondary key (readings tag by task id).
  Entries come back in append order; a tag filter preserves that
  order.  ``prune_tagged`` exists because deleting a task purges its
  readings.

Checkpoints snapshot the document namespaces plus per-log watermarks
(entry counts) into one JSON-compatible dict, and ``restore`` rolls
the backend back to it (documents replaced, logs truncated to the
watermark).  Both backends share the format, so a checkpoint taken on
one backend restores onto the other.  The server's crash recovery
does not use them: :mod:`repro.core.wal` keeps its own log and
checkpoint files.

Conformance: :func:`check_backend_conformance` drives any backend
factory through the full contract; the test suite runs it over every
shipped backend, and ``repro storage check`` runs it from the CLI.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Iterator, List, Optional

#: Version stamp of the checkpoint snapshot format.
CHECKPOINT_SCHEMA_VERSION = 1

Doc = Dict[str, Any]


class StorageBackend(abc.ABC):
    """Abstract namespaced document store + append-only log store."""

    #: Short name used in diagnostics and ``REPRO_DATASTORE`` specs.
    name: str = "abstract"

    # -- documents ------------------------------------------------------

    @abc.abstractmethod
    def put_doc(self, ns: str, key: str, doc: Doc) -> None:
        """Insert or replace the document at ``(ns, key)``."""

    @abc.abstractmethod
    def get_doc(self, ns: str, key: str) -> Optional[Doc]:
        """The document at ``(ns, key)``, or None."""

    @abc.abstractmethod
    def delete_doc(self, ns: str, key: str) -> bool:
        """Remove the document; returns whether it existed."""

    @abc.abstractmethod
    def doc_keys(self, ns: str) -> List[str]:
        """All keys in ``ns``, sorted lexicographically."""

    @abc.abstractmethod
    def doc_count(self, ns: str) -> int:
        """Number of documents in ``ns``."""

    def has_doc(self, ns: str, key: str) -> bool:
        return self.get_doc(ns, key) is not None

    @abc.abstractmethod
    def clear_docs(self, ns: str) -> None:
        """Drop every document in ``ns``."""

    # -- logs -----------------------------------------------------------

    @abc.abstractmethod
    def append_log(self, ns: str, doc: Doc, *, tag: Optional[str] = None) -> int:
        """Append one entry; returns its sequence number (0-based)."""

    @abc.abstractmethod
    def scan_log(self, ns: str, *, tag: Optional[str] = None) -> Iterator[Doc]:
        """Entries in append order, optionally only those with ``tag``."""

    @abc.abstractmethod
    def log_count(self, ns: str, *, tag: Optional[str] = None) -> int:
        """Number of (optionally tagged) entries in ``ns``."""

    @abc.abstractmethod
    def prune_tagged(self, ns: str, tag: str) -> int:
        """Delete every entry tagged ``tag``; returns how many went."""

    @abc.abstractmethod
    def clear_log(self, ns: str) -> None:
        """Drop every entry in ``ns``."""

    # -- checkpoints ----------------------------------------------------

    @abc.abstractmethod
    def checkpoint(self, tag: str) -> Doc:
        """Atomically snapshot docs + log watermarks under ``tag``.

        Returns the snapshot (see :func:`snapshot_dict`); the backend
        also retains it so :meth:`restore` can find it by tag.
        """

    @abc.abstractmethod
    def restore(self, tag: str) -> bool:
        """Roll back to the checkpoint ``tag``.

        Documents are replaced wholesale; every log is truncated to
        the checkpointed watermark.  Returns False when no checkpoint
        with that tag exists (the backend is left untouched).
        """

    @abc.abstractmethod
    def checkpoint_tags(self) -> List[str]:
        """Tags of retained checkpoints, oldest first."""

    # -- lifecycle ------------------------------------------------------

    def flush(self) -> None:
        """Push buffered writes to the durable medium (no-op default)."""

    def close(self) -> None:
        """Release resources (no-op default)."""

    # -- introspection --------------------------------------------------

    @abc.abstractmethod
    def namespaces(self) -> Dict[str, List[str]]:
        """``{"docs": [...], "logs": [...]}`` namespaces currently held."""


def snapshot_dict(backend: StorageBackend, tag: str) -> Doc:
    """The shared checkpoint payload: docs + log watermarks.

    Backends build their checkpoints from this helper so the on-disk
    format is identical everywhere (and therefore portable between
    backends).
    """
    spaces = backend.namespaces()
    return {
        "schema": CHECKPOINT_SCHEMA_VERSION,
        "tag": tag,
        "docs": {
            ns: {key: backend.get_doc(ns, key) for key in backend.doc_keys(ns)}
            for ns in spaces["docs"]
        },
        "log_watermarks": {ns: backend.log_count(ns) for ns in spaces["logs"]},
    }


class ConformanceError(AssertionError):
    """A backend violated the :class:`StorageBackend` contract."""


def check_backend_conformance(factory) -> List[str]:
    """Drive a fresh backend through the interface contract.

    ``factory`` must return a new empty backend each call.  Returns
    the list of checks performed; raises :class:`ConformanceError` on
    the first violation.  Used by the test suite (parametrized over
    every shipped backend) and by ``repro storage check``.
    """
    checks: List[str] = []

    def expect(condition: bool, label: str) -> None:
        if not condition:
            raise ConformanceError(f"backend contract violated: {label}")
        checks.append(label)

    backend = factory()
    try:
        # Documents: upsert, get, ordering, delete-then-reinsert.
        expect(backend.get_doc("d", "a") is None, "get on empty ns is None")
        backend.put_doc("d", "b", {"v": 1})
        backend.put_doc("d", "a", {"v": 2})
        backend.put_doc("d", "c", {"v": 3})
        expect(backend.doc_keys("d") == ["a", "b", "c"], "keys sorted")
        expect(backend.doc_count("d") == 3, "doc_count")
        expect(backend.has_doc("d", "b"), "has_doc")
        backend.put_doc("d", "b", {"v": 9})
        expect(backend.get_doc("d", "b") == {"v": 9}, "put replaces")
        expect(backend.delete_doc("d", "b"), "delete returns True")
        expect(not backend.delete_doc("d", "b"), "second delete returns False")
        backend.put_doc("d", "b", {"v": 10})
        expect(
            backend.get_doc("d", "b") == {"v": 10},
            "delete-then-reinsert yields the new doc, not the old",
        )
        expect(backend.doc_keys("d") == ["a", "b", "c"], "reinsert keeps order")

        # Namespace isolation.
        backend.put_doc("other", "a", {"v": 0})
        expect(backend.doc_count("d") == 3, "namespaces are isolated")

        # Logs: order, tags, counts, prune.
        s0 = backend.append_log("l", {"n": 0}, tag="t1")
        s1 = backend.append_log("l", {"n": 1}, tag="t2")
        s2 = backend.append_log("l", {"n": 2}, tag="t1")
        expect((s0, s1, s2) == (0, 1, 2), "sequence numbers dense from 0")
        expect(
            [e["n"] for e in backend.scan_log("l")] == [0, 1, 2],
            "scan in append order",
        )
        expect(
            [e["n"] for e in backend.scan_log("l", tag="t1")] == [0, 2],
            "tagged scan preserves order",
        )
        expect(backend.log_count("l") == 3, "log_count")
        expect(backend.log_count("l", tag="t1") == 2, "tagged log_count")

        # Checkpoint / restore semantics.
        snap = backend.checkpoint("ck1")
        expect(snap["schema"] == CHECKPOINT_SCHEMA_VERSION, "checkpoint schema")
        expect("ck1" in backend.checkpoint_tags(), "checkpoint retained")
        backend.put_doc("d", "z", {"v": 4})
        backend.delete_doc("d", "a")
        backend.append_log("l", {"n": 3}, tag="t2")
        expect(backend.restore("ck1"), "restore finds the tag")
        expect(backend.doc_keys("d") == ["a", "b", "c"], "restore rolls docs back")
        expect(backend.get_doc("d", "a") == {"v": 2}, "restored doc content")
        expect(
            [e["n"] for e in backend.scan_log("l")] == [0, 1, 2],
            "restore truncates logs to the watermark",
        )
        expect(not backend.restore("no-such"), "restore of unknown tag is False")

        # Prune + clear.
        expect(backend.prune_tagged("l", "t1") == 2, "prune_tagged count")
        expect(
            [e["n"] for e in backend.scan_log("l")] == [1],
            "prune keeps untagged survivors in order",
        )
        backend.clear_log("l")
        expect(backend.log_count("l") == 0, "clear_log")
        backend.clear_docs("d")
        expect(backend.doc_count("d") == 0, "clear_docs")
        expect(backend.doc_count("other") == 1, "clear_docs is per-namespace")

        # Appends after a restore continue the truncated sequence.
        backend.append_log("l2", {"n": 0})
        backend.checkpoint("ck2")
        backend.append_log("l2", {"n": 1})
        backend.restore("ck2")
        seq = backend.append_log("l2", {"n": 9})
        expect(seq == 1, "post-restore appends continue from the watermark")
        expect(
            [e["n"] for e in backend.scan_log("l2")] == [0, 9],
            "post-restore log content",
        )

        backend.flush()
        checks.append("flush")
    finally:
        backend.close()
    return checks
