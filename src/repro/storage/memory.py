"""The in-memory storage backend — the seed's dicts, behind the interface.

Documents live in plain dicts, logs in plain lists; nothing is
serialized on the hot path, so a server on this backend performs
exactly like the seed did.  Checkpoints deep-copy state through the
shared JSON-compatible snapshot format and live only as long as the
backend does.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterator, List, Optional, Tuple

from repro.storage.base import Doc, StorageBackend, snapshot_dict


class MemoryBackend(StorageBackend):
    """Dict/list-backed backend."""

    name = "memory"

    def __init__(self) -> None:
        self._docs: Dict[str, Dict[str, Doc]] = {}
        #: ns -> (next sequence number, rows); rows are (seq, tag, doc).
        self._logs: Dict[str, Tuple[int, List[Tuple[int, Optional[str], Doc]]]] = {}
        self._checkpoints: Dict[str, Doc] = {}
        self._checkpoint_order: List[str] = []

    # -- documents ------------------------------------------------------

    def put_doc(self, ns: str, key: str, doc: Doc) -> None:
        self._docs.setdefault(ns, {})[key] = doc

    def get_doc(self, ns: str, key: str) -> Optional[Doc]:
        return self._docs.get(ns, {}).get(key)

    def delete_doc(self, ns: str, key: str) -> bool:
        space = self._docs.get(ns)
        if space is None or key not in space:
            return False
        del space[key]
        return True

    def doc_keys(self, ns: str) -> List[str]:
        return sorted(self._docs.get(ns, {}))

    def doc_count(self, ns: str) -> int:
        return len(self._docs.get(ns, {}))

    def has_doc(self, ns: str, key: str) -> bool:
        return key in self._docs.get(ns, {})

    def clear_docs(self, ns: str) -> None:
        self._docs.pop(ns, None)

    # -- logs -----------------------------------------------------------

    def append_log(self, ns: str, doc: Doc, *, tag: Optional[str] = None) -> int:
        seq, rows = self._logs.get(ns, (0, []))
        rows.append((seq, tag, doc))
        self._logs[ns] = (seq + 1, rows)
        return seq

    def scan_log(self, ns: str, *, tag: Optional[str] = None) -> Iterator[Doc]:
        _, rows = self._logs.get(ns, (0, []))
        for _, row_tag, doc in rows:
            if tag is None or row_tag == tag:
                yield doc

    def log_count(self, ns: str, *, tag: Optional[str] = None) -> int:
        _, rows = self._logs.get(ns, (0, []))
        if tag is None:
            return len(rows)
        return sum(1 for _, row_tag, _ in rows if row_tag == tag)

    def prune_tagged(self, ns: str, tag: str) -> int:
        seq, rows = self._logs.get(ns, (0, []))
        kept = [row for row in rows if row[1] != tag]
        removed = len(rows) - len(kept)
        self._logs[ns] = (seq, kept)
        return removed

    def clear_log(self, ns: str) -> None:
        self._logs.pop(ns, None)

    # -- checkpoints ----------------------------------------------------

    def checkpoint(self, tag: str) -> Doc:
        snap = copy.deepcopy(snapshot_dict(self, tag))
        if tag not in self._checkpoints:
            self._checkpoint_order.append(tag)
        self._checkpoints[tag] = snap
        return snap

    def restore(self, tag: str) -> bool:
        snap = self._checkpoints.get(tag)
        if snap is None:
            return False
        self._docs = {
            ns: dict(copy.deepcopy(docs)) for ns, docs in snap["docs"].items()
        }
        watermarks = snap["log_watermarks"]
        # Logs born after the checkpoint roll back to empty (watermark 0).
        for ns in list(self._logs):
            watermark = watermarks.get(ns, 0)
            _, rows = self._logs[ns]
            kept = [row for row in rows if row[0] < watermark]
            self._logs[ns] = (watermark, kept)
        return True

    def checkpoint_tags(self) -> List[str]:
        return list(self._checkpoint_order)

    # -- lifecycle / introspection --------------------------------------

    def namespaces(self) -> Dict[str, List[str]]:
        return {"docs": sorted(self._docs), "logs": sorted(self._logs)}
