"""Pluggable storage: the datastore interface and its backends.

See :mod:`repro.storage.base` for the contract, ``docs/storage.md``
for the architecture, and ``REPRO_DATASTORE`` for selection.
"""

from repro.storage.atomic import atomic_write
from repro.storage.base import (
    CHECKPOINT_SCHEMA_VERSION,
    ConformanceError,
    StorageBackend,
    check_backend_conformance,
    snapshot_dict,
)
from repro.storage.factory import (
    BACKEND_NAMES,
    DATASTORE_DIR_ENV,
    DATASTORE_ENV,
    default_spec,
    resolve_backend,
)
from repro.storage.memory import MemoryBackend
from repro.storage.sqlite3_backend import SqliteBackend

__all__ = [
    "BACKEND_NAMES",
    "CHECKPOINT_SCHEMA_VERSION",
    "ConformanceError",
    "DATASTORE_DIR_ENV",
    "DATASTORE_ENV",
    "MemoryBackend",
    "SqliteBackend",
    "StorageBackend",
    "atomic_write",
    "check_backend_conformance",
    "default_spec",
    "resolve_backend",
    "snapshot_dict",
]
