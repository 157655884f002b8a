"""Stable hashing of experiment configurations.

The engine's cache keys rest on one primitive: a *canonical*
representation of a task's parameters that is identical across
processes, interpreter restarts, and platforms.  Python's built-in
``hash()`` is salted per process, so the canonical form is JSON with
sorted keys and the hash is SHA-256.

Dataclass instances are tagged with their qualified class name so two
config types with the same field values never collide; enums reduce to
their value; tuples and lists both canonicalize as JSON arrays
(a config that switches between them is the same config).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any


def canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to JSON-serializable canonical form.

    Supported: primitives, enums, lists/tuples, dicts with primitive
    keys, sets (sorted), and dataclass instances (tagged with the
    class's qualified name).  Anything else raises ``TypeError`` so an
    unstable representation can never silently enter a cache key.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return {"__enum__": _type_tag(type(obj)), "value": canonicalize(obj.value)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: canonicalize(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__dataclass__": _type_tag(type(obj)), "fields": fields}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return {"__set__": sorted(json.dumps(canonicalize(i)) for i in obj)}
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"cannot canonicalize dict key {key!r}: only str keys are stable"
                )
            out[key] = canonicalize(value)
        return out
    raise TypeError(f"cannot canonicalize {type(obj).__qualname__!r} for hashing")


def _type_tag(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def canonical_json(obj: Any) -> str:
    """The canonical JSON text of ``obj`` (sorted keys, no whitespace)."""
    return json.dumps(canonicalize(obj), sort_keys=True, separators=(",", ":"))


def config_hash(obj: Any) -> str:
    """SHA-256 hex digest of the canonical form of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
