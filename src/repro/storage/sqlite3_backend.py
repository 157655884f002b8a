"""The sqlite/on-disk storage backend.

State lives in one sqlite file: a ``docs`` table for the document
namespaces (device records, task specs), a ``logs`` table for the
append-only streams (stored readings, selection events), and a
``checkpoints`` table holding the shared JSON snapshot format (docs +
log watermarks — see :mod:`repro.storage.base`).

Writes ride sqlite's own journal in WAL mode with batched commits: the
hot path (one reading append, one doc upsert) costs one prepared
INSERT, and an explicit commit lands every :data:`COMMIT_INTERVAL` writes
and at every flush/checkpoint/scan boundary.  Between commits, crash
durability is the job of :class:`repro.core.wal.DurableLog` — the same
division of labour the in-memory backend lives by, which is what keeps
the two backends bit-identical under the recovery property tests.

Log scans stream straight off the cursor, so a million-reading run
never materialises its readings in process memory.
"""

from __future__ import annotations

import json
import os
import sqlite3
import tempfile
from typing import Dict, Iterator, List, Optional

from repro.storage.base import Doc, StorageBackend, snapshot_dict

#: Writes batched into one sqlite commit.
COMMIT_INTERVAL = 256

_SCHEMA = """
CREATE TABLE IF NOT EXISTS docs (
    ns   TEXT NOT NULL,
    k    TEXT NOT NULL,
    doc  TEXT NOT NULL,
    PRIMARY KEY (ns, k)
);
CREATE TABLE IF NOT EXISTS logs (
    ns   TEXT NOT NULL,
    seq  INTEGER NOT NULL,
    tag  TEXT,
    doc  TEXT NOT NULL,
    PRIMARY KEY (ns, seq)
);
CREATE INDEX IF NOT EXISTS logs_by_tag ON logs (ns, tag, seq);
CREATE TABLE IF NOT EXISTS log_heads (
    ns        TEXT PRIMARY KEY,
    next_seq  INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS checkpoints (
    tag        TEXT PRIMARY KEY,
    ordinal    INTEGER NOT NULL,
    snapshot   TEXT NOT NULL
);
"""


class SqliteBackend(StorageBackend):
    """Single-file sqlite backend with batched commits."""

    name = "sqlite"

    def __init__(self, path: Optional[str] = None) -> None:
        if path is None:
            root = tempfile.mkdtemp(prefix="repro-sqlite-")
            path = os.path.join(root, "datastore.sqlite3")
        else:
            parent = os.path.dirname(os.path.abspath(path))
            os.makedirs(parent, exist_ok=True)
        self.path = path
        self._conn = sqlite3.connect(path)
        self._conn.executescript(_SCHEMA)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.commit()
        self._dirty_writes = 0
        self._closed = False

    # -- write batching -------------------------------------------------

    def _wrote(self) -> None:
        self._dirty_writes += 1
        if self._dirty_writes >= COMMIT_INTERVAL:
            self.flush()

    def flush(self) -> None:
        if self._dirty_writes:
            self._conn.commit()
            self._dirty_writes = 0

    def close(self) -> None:
        if self._closed:
            return
        try:
            self.flush()
            self._conn.close()
        finally:
            self._closed = True

    # -- documents ------------------------------------------------------

    def put_doc(self, ns: str, key: str, doc: Doc) -> None:
        self._conn.execute(
            "INSERT INTO docs (ns, k, doc) VALUES (?, ?, ?) "
            "ON CONFLICT (ns, k) DO UPDATE SET doc = excluded.doc",
            (ns, key, json.dumps(doc, sort_keys=True)),
        )
        self._wrote()

    def get_doc(self, ns: str, key: str) -> Optional[Doc]:
        row = self._conn.execute(
            "SELECT doc FROM docs WHERE ns = ? AND k = ?", (ns, key)
        ).fetchone()
        return None if row is None else json.loads(row[0])

    def delete_doc(self, ns: str, key: str) -> bool:
        cursor = self._conn.execute(
            "DELETE FROM docs WHERE ns = ? AND k = ?", (ns, key)
        )
        self._wrote()
        return cursor.rowcount > 0

    def doc_keys(self, ns: str) -> List[str]:
        rows = self._conn.execute(
            "SELECT k FROM docs WHERE ns = ? ORDER BY k", (ns,)
        ).fetchall()
        return [row[0] for row in rows]

    def doc_count(self, ns: str) -> int:
        row = self._conn.execute(
            "SELECT COUNT(*) FROM docs WHERE ns = ?", (ns,)
        ).fetchone()
        return int(row[0])

    def has_doc(self, ns: str, key: str) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM docs WHERE ns = ? AND k = ?", (ns, key)
        ).fetchone()
        return row is not None

    def clear_docs(self, ns: str) -> None:
        self._conn.execute("DELETE FROM docs WHERE ns = ?", (ns,))
        self._wrote()

    # -- logs -----------------------------------------------------------

    def append_log(self, ns: str, doc: Doc, *, tag: Optional[str] = None) -> int:
        row = self._conn.execute(
            "SELECT next_seq FROM log_heads WHERE ns = ?", (ns,)
        ).fetchone()
        seq = 0 if row is None else int(row[0])
        self._conn.execute(
            "INSERT INTO logs (ns, seq, tag, doc) VALUES (?, ?, ?, ?)",
            (ns, seq, tag, json.dumps(doc, sort_keys=True)),
        )
        self._conn.execute(
            "INSERT INTO log_heads (ns, next_seq) VALUES (?, ?) "
            "ON CONFLICT (ns) DO UPDATE SET next_seq = excluded.next_seq",
            (ns, seq + 1),
        )
        self._wrote()
        return seq

    def scan_log(self, ns: str, *, tag: Optional[str] = None) -> Iterator[Doc]:
        if tag is None:
            cursor = self._conn.execute(
                "SELECT doc FROM logs WHERE ns = ? ORDER BY seq", (ns,)
            )
        else:
            cursor = self._conn.execute(
                "SELECT doc FROM logs WHERE ns = ? AND tag = ? ORDER BY seq",
                (ns, tag),
            )
        for (doc,) in cursor:
            yield json.loads(doc)

    def log_count(self, ns: str, *, tag: Optional[str] = None) -> int:
        if tag is None:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM logs WHERE ns = ?", (ns,)
            ).fetchone()
        else:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM logs WHERE ns = ? AND tag = ?", (ns, tag)
            ).fetchone()
        return int(row[0])

    def prune_tagged(self, ns: str, tag: str) -> int:
        cursor = self._conn.execute(
            "DELETE FROM logs WHERE ns = ? AND tag = ?", (ns, tag)
        )
        self._wrote()
        return cursor.rowcount

    def clear_log(self, ns: str) -> None:
        self._conn.execute("DELETE FROM logs WHERE ns = ?", (ns,))
        self._conn.execute("DELETE FROM log_heads WHERE ns = ?", (ns,))
        self._wrote()

    # -- checkpoints ----------------------------------------------------

    def checkpoint(self, tag: str) -> Doc:
        snap = snapshot_dict(self, tag)
        row = self._conn.execute(
            "SELECT COALESCE(MAX(ordinal), -1) FROM checkpoints"
        ).fetchone()
        existing = self._conn.execute(
            "SELECT ordinal FROM checkpoints WHERE tag = ?", (tag,)
        ).fetchone()
        ordinal = int(existing[0]) if existing is not None else int(row[0]) + 1
        self._conn.execute(
            "INSERT INTO checkpoints (tag, ordinal, snapshot) VALUES (?, ?, ?) "
            "ON CONFLICT (tag) DO UPDATE SET snapshot = excluded.snapshot",
            (tag, ordinal, json.dumps(snap, sort_keys=True)),
        )
        # A checkpoint is a durability point by definition: commit now.
        self._conn.commit()
        self._dirty_writes = 0
        return snap

    def restore(self, tag: str) -> bool:
        row = self._conn.execute(
            "SELECT snapshot FROM checkpoints WHERE tag = ?", (tag,)
        ).fetchone()
        if row is None:
            return False
        snap = json.loads(row[0])
        self._conn.execute("DELETE FROM docs")
        for ns, docs in snap["docs"].items():
            for key, doc in docs.items():
                self._conn.execute(
                    "INSERT INTO docs (ns, k, doc) VALUES (?, ?, ?)",
                    (ns, key, json.dumps(doc, sort_keys=True)),
                )
        watermarks = snap["log_watermarks"]
        log_spaces = [
            r[0]
            for r in self._conn.execute("SELECT ns FROM log_heads").fetchall()
        ]
        for ns in log_spaces:
            watermark = int(watermarks.get(ns, 0))
            self._conn.execute(
                "DELETE FROM logs WHERE ns = ? AND seq >= ?", (ns, watermark)
            )
            self._conn.execute(
                "UPDATE log_heads SET next_seq = ? WHERE ns = ?", (watermark, ns)
            )
        self._conn.commit()
        self._dirty_writes = 0
        return True

    def checkpoint_tags(self) -> List[str]:
        rows = self._conn.execute(
            "SELECT tag FROM checkpoints ORDER BY ordinal"
        ).fetchall()
        return [row[0] for row in rows]

    # -- introspection --------------------------------------------------

    def namespaces(self) -> Dict[str, List[str]]:
        docs = [
            row[0]
            for row in self._conn.execute(
                "SELECT DISTINCT ns FROM docs ORDER BY ns"
            ).fetchall()
        ]
        logs = [
            row[0]
            for row in self._conn.execute(
                "SELECT ns FROM log_heads ORDER BY ns"
            ).fetchall()
        ]
        return {"docs": docs, "logs": logs}
