"""Content-addressed cache for experiment point results.

A cache entry is one computed sweep point, keyed by the stable hash of
(point function, arguments, cache schema).  Entries are pickled —
sweep points return rich result objects (full arm results, selection
logs) — and written atomically so a crash mid-write can never leave a
truncated entry that later poisons a run.  Any unreadable, mismatched,
or cross-schema entry is treated as a miss and discarded.
"""

from __future__ import annotations

import os
import pickle
from typing import Any, Optional, Tuple

from repro.storage import atomic_write

#: Bump to invalidate every existing cache entry (pickle layout or
#: keying scheme changes).  v3: the payload always lives in the entry,
#: so a v2 entry that only referenced a spilled object must miss.
CACHE_SCHEMA_VERSION = 3


class ResultCache:
    """Directory of content-addressed pickled point results."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.pkl")

    def get(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)`` for ``key``; corrupt entries count as misses."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as f:
                entry = pickle.load(f)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            self.misses += 1
            return False, None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != CACHE_SCHEMA_VERSION
            or entry.get("key") != key
        ):
            # Stale schema or a file renamed into the wrong slot: drop
            # it so the bad entry cannot shadow a future write.
            self._discard(path)
            self.misses += 1
            return False, None
        self.hits += 1
        return True, entry["payload"]

    def put(self, key: str, value: Any, *, fn: Optional[str] = None) -> str:
        """Store ``value`` under ``key`` atomically; returns the path."""
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "fn": fn,
            "payload": value,
        }
        path = self.path_for(key)
        atomic_write(path, pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL))
        return path

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for name in os.listdir(self.root):
            if name.endswith(".pkl"):
                self._discard(os.path.join(self.root, name))
                removed += 1
        return removed

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.root) if name.endswith(".pkl"))

    @staticmethod
    def _discard(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass
