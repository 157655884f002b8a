"""Content-addressed cache for experiment point results.

A cache entry is one computed sweep point, keyed by the stable hash of
(point function, arguments, cache schema).  Entries are pickled —
sweep points return rich result objects (full arm results, selection
logs) — and written atomically so a crash mid-write can never leave a
truncated entry that later poisons a run.  Any unreadable, mismatched,
or cross-schema entry is treated as a miss and discarded.

Large payloads do not live in the entry file: anything whose pickle
reaches :data:`SPILL_THRESHOLD` bytes spills to a content-addressed object
store under ``objects/`` (named by the SHA-256 of the bytes, written
atomically) and the entry keeps only the digest reference.  Identical
artifacts produced by different sweep points therefore share one file,
and loads verify the digest — a truncated or tampered artifact can
never come back as a hit.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from typing import Any, Optional, Tuple

from repro.storage import atomic_write

#: Bump to invalidate every existing cache entry (pickle layout or
#: keying scheme changes).  v2: large payloads moved out of the entry
#: into the digest-addressed object store.
CACHE_SCHEMA_VERSION = 2

#: Payload pickles at or above this many bytes (256 KiB) spill to the
#: object store (small entries stay self-contained for speed).
SPILL_THRESHOLD = 262_144


class ResultCache:
    """Directory of content-addressed pickled point results."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self.objects_dir = os.path.join(self.root, "objects")
        os.makedirs(self.root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.spills = 0

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.pkl")

    def object_path(self, digest: str) -> str:
        return os.path.join(self.objects_dir, f"{digest}.bin")

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
        ref = entry.get("payload_ref")
        if ref is not None:
            payload = self._load_object(ref)
            if payload is None:
                # Missing, truncated, or digest-mismatched artifact:
                # the entry is unusable, drop it and miss.
                self._discard(path)
                self.misses += 1
                return False, None
            self.hits += 1
            return True, payload
        self.hits += 1
        return True, entry["payload"]

    def put(self, key: str, value: Any, *, fn: Optional[str] = None) -> str:
        """Store ``value`` under ``key`` atomically; returns the path."""
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "fn": fn,
        }
        if len(blob) >= SPILL_THRESHOLD:
            digest = hashlib.sha256(blob).hexdigest()
            object_path = self.object_path(digest)
            os.makedirs(self.objects_dir, exist_ok=True)
            # Content addressing makes the write idempotent: an existing
            # object already holds exactly these bytes.
            if not os.path.exists(object_path):
                atomic_write(object_path, blob)
            entry["payload_ref"] = {"digest": digest, "size": len(blob)}
            self.spills += 1
        else:
            entry["payload"] = value
        path = self.path_for(key)
        atomic_write(path, pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL))
        return path

    def _load_object(self, ref: Any) -> Optional[Any]:
        """Load and digest-verify a spilled payload; ``None`` on any
        mismatch (the caller turns that into a miss)."""
        if not isinstance(ref, dict) or "digest" not in ref:
            return None
        digest = ref["digest"]
        try:
            with open(self.object_path(digest), "rb") as f:
                blob = f.read()
        except OSError:
            return None
        if hashlib.sha256(blob).hexdigest() != digest:
            self._discard(self.object_path(digest))
            return None
        try:
            return pickle.loads(blob)
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            return None

    def clear(self) -> int:
        """Delete every entry (and spilled object); returns how many
        entries were removed."""
        removed = 0
        for name in os.listdir(self.root):
            if name.endswith(".pkl"):
                self._discard(os.path.join(self.root, name))
                removed += 1
        if os.path.isdir(self.objects_dir):
            for name in os.listdir(self.objects_dir):
                if name.endswith(".bin"):
                    self._discard(os.path.join(self.objects_dir, name))
        return removed

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.root) if name.endswith(".pkl"))

    @staticmethod
    def _discard(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass
