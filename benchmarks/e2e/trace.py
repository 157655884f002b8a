"""Outside-in layer attribution for the end-to-end benchmark.

The program has no span API yet, so the harness patches public methods
on the program's classes, in the benchmark's child process only, and
restores them afterwards.  Two instruments live here:

- :class:`Observer` gathers the exact work counters every run reports
  (simulated events, client upload kinds, server request outcomes and
  the ``sim.perf`` probe items) and times every ``Simulator.run`` call.
  It is installed traced or not, and costs one wrapper call per
  ``Simulator.run`` and per constructed client or server.
- :class:`Tracer` keeps a span stack in memory.  A span's *self* time is
  its duration minus the time its child spans cover, so self times of
  all layers plus the harness root add up to the traced wall time.
  Every simulator event is a span of the layer whose module owns its
  callback (a ``PeriodicProcess`` tick belongs to the owner of its
  target), and the public entry points in :data:`ENTRY_POINTS` are spans
  of their layer.  Layer names are module names.
"""

from __future__ import annotations

import functools
import os
import time
import weakref
from typing import Callable, Dict, List, Tuple

#: Module prefix -> layer, longest prefix first.
LAYER_OF_MODULE: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.engine", "sim.engine"),
    ("repro.cellular.rrc", "cellular.rrc"),
    ("repro.cellular.network", "cellular.network"),
    ("repro.cellular.enodeb", "cellular.enodeb"),
    ("repro.devices", "devices"),
    ("repro.clientlib", "clientlib"),
    ("repro.core.server", "core.server"),
    ("repro.core.selector", "core.selector"),
    ("repro.core.wal", "core.wal"),
    ("repro.core.sharding", "core.sharding"),
    ("repro.storage", "storage"),
    ("repro.serverlib", "serverlib"),
    ("repro.baselines", "baselines"),
    ("repro.runner", "runner"),
    ("repro.analysis", "analysis"),
    ("repro.service", "service"),
)
LAYERS: Tuple[str, ...] = tuple(layer for _, layer in LAYER_OF_MODULE)
#: Events whose callback lives in a module outside every layer above
#: (fault injection, federation, ...) are charged here.
OTHER = "other"
#: The span around the timed section; its self time is unattributed.
ROOT = "harness"

#: Counters only a traced run records (the observer's are always on).
TRACE_COUNTERS = (
    "cellular.rrc.promotions",
    "cellular.rrc.transfers",
    "core.wal.appends",
    "storage.log_appends",
    "storage.docs_put",
    "storage.docs_scanned",
)


def layer_of(module: str) -> str:
    for prefix, layer in LAYER_OF_MODULE:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return OTHER


class Patcher:
    """Replaces attributes of classes or modules and puts the originals back."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(self, owner: object, name: str, make: Callable[[Callable], Callable]) -> None:
        """Set ``owner.name`` to ``make(current)``; an inherited method is
        wrapped on ``owner`` only and removed again on restore."""
        own = vars(owner).get(name, _MISSING)
        setattr(owner, name, make(getattr(owner, name)))
        self._undo.append((owner, name, own))

    def restore(self) -> None:
        while self._undo:
            owner, name, own = self._undo.pop()
            if own is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, own)


_MISSING = object()


# ----------------------------------------------------------------------
# Exact counters, every run
# ----------------------------------------------------------------------


class Observer:
    """Exact work counters, collected without touching the program's code."""

    def __init__(self) -> None:
        self.events = 0
        #: Wall time of every ``Simulator.run`` call.
        self.run_latencies: List[float] = []
        self.client_stats: list = []
        #: (weak server, its stats at construction) — a live server is
        #: read at the end, since a cold restart replaces its stats.
        self._servers: List[Tuple[weakref.ref, object]] = []
        #: Latest perf snapshot per simulator.
        self._perf: Dict[int, dict] = {}
        self._sim_ids: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def install(self, patcher: Patcher) -> None:
        from repro.clientlib import SenseAidClient
        from repro.core.server import SenseAidServer
        from repro.sim.engine import Simulator

        observer = self

        def run(original):
            @functools.wraps(original)
            def wrapper(sim, *args, **kwargs):
                started = time.perf_counter()
                processed = original(sim, *args, **kwargs)
                observer.run_latencies.append(time.perf_counter() - started)
                observer.events += processed
                key = observer._sim_ids.setdefault(sim, len(observer._perf))
                observer._perf[key] = sim.perf.snapshot()
                return processed

            return wrapper

        def client_init(original):
            @functools.wraps(original)
            def wrapper(client, *args, **kwargs):
                original(client, *args, **kwargs)
                observer.client_stats.append(client.stats)

            return wrapper

        def server_init(original):
            @functools.wraps(original)
            def wrapper(server, *args, **kwargs):
                original(server, *args, **kwargs)
                observer._servers.append((weakref.ref(server), server.stats))

            return wrapper

        patcher.wrap(Simulator, "run", run)
        patcher.wrap(SenseAidClient, "__init__", client_init)
        patcher.wrap(SenseAidServer, "__init__", server_init)

    def server_stats(self) -> list:
        out = []
        for ref, captured in self._servers:
            server = ref()
            out.append(server.stats if server is not None else captured)
        return out

    def counters(self) -> Dict[str, int]:
        def probe(name: str, field: str, combine=sum) -> int:
            values = [snap[name][field] for snap in self._perf.values() if name in snap]
            return int(combine(values)) if values else 0

        servers = self.server_stats()
        return {
            "sim.engine.events": self.events,
            "cellular.enodeb.refresh_positions.items": probe("registry.refresh_positions", "items"),
            "cellular.enodeb.refresh_attachments.items": probe(
                "registry.refresh_attachments", "items"
            ),
            "cellular.enodeb.devices_within.max_items": probe(
                "registry.devices_within", "max_items", max
            ),
            "core.server.edge_refresh.items": probe("server.edge_refresh", "items"),
            "core.server.qualified_devices.memo_hit": probe(
                "server.qualified_devices.memo_hit", "calls"
            ),
            "core.server.requests_issued": sum(s.requests_issued for s in servers),
            "core.server.requests_scheduled": sum(s.requests_scheduled for s in servers),
        }


def count_fsyncs(patcher: Patcher) -> Callable[[], int]:
    """Replace ``os.fsync`` with a counter; returns a reader.

    The disk under the checkout is unknown and its fsync latency would
    swamp every other cost, so runs count the fsync calls the WAL makes
    (its disk-cost proxy) instead of paying them, as a tmpfs would; the
    writes themselves still happen.
    """
    calls = [0]

    def fsync(fd) -> None:
        calls[0] += 1

    patcher.wrap(os, "fsync", lambda real: fsync)
    return lambda: calls[0]


# ----------------------------------------------------------------------
# Spans, traced runs only
# ----------------------------------------------------------------------


class Tracer:
    """An in-memory span stack with per-layer call counts and self time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: Open spans: [layer, start, time covered by child spans].
        self._stack: List[list] = []
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.counters: Dict[str, int] = {name: 0 for name in TRACE_COUNTERS}

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self._clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its inclusive duration."""
        layer, start, covered = self._stack.pop()
        duration = self._clock() - start
        self.calls[layer] = self.calls.get(layer, 0) + 1
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        for name in self.counters:
            self.counters[name] = 0

    def span(self, layer: str, fn: Callable) -> Callable:
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return wrapper

    def span_iter(self, layer: str, fn: Callable, counter: str) -> Callable:
        """Span a generator method: each step is one span, each item counted."""
        enter, exit_, counters = self.enter, self.exit, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(layer)
            try:
                iterator = iter(fn(*args, **kwargs))
            finally:
                exit_()
            return _steps(iterator)

        def _steps(iterator):
            while True:
                enter(layer)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    exit_()
                counters[counter] += 1
                yield item

        return wrapper

    def span_async(self, layer: str, fn: Callable) -> Callable:
        """Span a coroutine method: each synchronous step is one span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _Stepped(fn(*args, **kwargs), tracer, layer)

        return wrapper

    def summary(self, wall_s: float) -> Dict[str, float]:
        """Per-layer ``calls``, ``self_s`` and ``share`` of the traced wall."""
        out: Dict[str, float] = {}
        covered = 0.0
        for layer in LAYERS + (OTHER,):
            self_s = self.self_s.get(layer, 0.0)
            out[f"{layer}.calls"] = self.calls.get(layer, 0)
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.share"] = self_s / wall_s if wall_s > 0 else 0.0
            if layer != OTHER:
                covered += self_s
        out["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
        return out


class _Stepped:
    """Awaitable that times each resumption of a wrapped coroutine."""

    __slots__ = ("_coro", "_tracer", "_layer")

    def __init__(self, coro, tracer: Tracer, layer: str) -> None:
        self._coro = coro
        self._tracer = tracer
        self._layer = layer

    def __await__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        self._tracer.enter(self._layer)
        try:
            return self._coro.send(value)
        finally:
            self._tracer.exit()

    def throw(self, *exc_info):
        self._tracer.enter(self._layer)
        try:
            return self._coro.throw(*exc_info)
        finally:
            self._tracer.exit()

    def close(self):
        return self._coro.close()


def _callback_layer(callback) -> str:
    from repro.sim.processes import PeriodicProcess

    target = getattr(callback, "__self__", None)
    if isinstance(target, PeriodicProcess):
        callback = target._callback
    while isinstance(callback, functools.partial):
        callback = callback.func
    return layer_of(getattr(callback, "__module__", None) or "")


#: Public entry points spanned as their layer: (layer, module, class, methods).
ENTRY_POINTS = (
    ("sim.engine", "repro.sim.engine", "Simulator", ("run",)),
    ("cellular.rrc", "repro.cellular.rrc", "RadioModem", ("receive",)),
    ("cellular.network", "repro.cellular.network", "CellularNetwork", ("uplink", "downlink")),
    (
        "cellular.enodeb",
        "repro.cellular.enodeb",
        "TowerRegistry",
        ("refresh_positions", "refresh_attachments", "devices_within"),
    ),
    ("clientlib", "repro.clientlib.client", "SenseAidClient", ("send_sense_data",)),
    (
        "core.server",
        "repro.core.server",
        "SenseAidServer",
        ("qualified_devices", "receive_sensed_data", "report_device_state"),
    ),
    ("core.selector", "repro.core.selector", "DeviceSelector", ("select", "rank")),
    ("core.wal", "repro.core.wal", "DurableLog", ("checkpoint", "recover_into")),
    ("core.sharding", "repro.core.sharding", "ShardedSenseAid", ("repair", "fail_over")),
    (
        "serverlib",
        "repro.serverlib.appserver",
        "CrowdsensingAppServer",
        ("task", "receive_sensed_data", "mean_value", "reading_count"),
    ),
    ("runner", "repro.runner.engine", "ExperimentEngine", ("map",)),
    ("baselines", "repro.baselines.common", "BaselineFramework", ("add_task",)),
    ("service", "repro.service.backend", "AppServerBackend", ("handle",)),
    ("service", "repro.core.overload", "AdmissionController", ("admit",)),
    ("service", "repro.service.lifecycle", "LifecycleLedger", ("create", "advance")),
)
STORAGE_CLASSES = (
    ("repro.storage.memory", "MemoryBackend"),
    ("repro.storage.sqlite3_backend", "SqliteBackend"),
)


def install_tracer(tracer: Tracer, patcher: Patcher) -> None:
    """Patch every event and entry point to record spans on ``tracer``."""
    import importlib

    from repro.cellular.rrc import RadioModem
    from repro.core.wal import DurableLog, WriteAheadLog
    from repro.service.server import SenseAidService
    from repro.sim.events import Event

    enter, exit_, counters = tracer.enter, tracer.exit, tracer.counters
    layers: Dict[str, str] = {}

    def fire(original):
        def traced_fire(event):
            if event.cancelled:
                return
            callback = event.callback
            key = getattr(callback, "__func__", callback)
            layer = layers.get(key)
            if layer is None:
                layer = layers[key] = _callback_layer(callback)
            enter(layer)
            try:
                callback(*event.args)
            finally:
                exit_()

        return traced_fire

    patcher.wrap(Event, "fire", fire)

    for layer, module, cls_name, methods in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name)
        for method in methods:
            patcher.wrap(cls, method, functools.partial(tracer.span, layer))
    record_methods = [name for name in vars(DurableLog) if name.startswith("record_")]
    for method in record_methods:
        patcher.wrap(DurableLog, method, functools.partial(tracer.span, "core.wal"))

    def transmit(original):
        spanned = tracer.span("cellular.rrc", original)

        @functools.wraps(original)
        def wrapper(modem, *args, **kwargs):
            before = modem.promotions
            try:
                return spanned(modem, *args, **kwargs)
            finally:
                counters["cellular.rrc.transfers"] += 1
                counters["cellular.rrc.promotions"] += modem.promotions - before

        return wrapper

    patcher.wrap(RadioModem, "transmit", transmit)

    def counted(layer: str, counter: str):
        def make(original):
            spanned = tracer.span(layer, original)

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                counters[counter] += 1
                return spanned(*args, **kwargs)

            return wrapper

        return make

    patcher.wrap(WriteAheadLog, "append", counted("core.wal", "core.wal.appends"))
    for module, cls_name in STORAGE_CLASSES:
        cls = getattr(importlib.import_module(module), cls_name)
        patcher.wrap(cls, "append_log", counted("storage", "storage.log_appends"))
        patcher.wrap(cls, "put_doc", counted("storage", "storage.docs_put"))
        for method in ("flush", "checkpoint"):
            patcher.wrap(cls, method, functools.partial(tracer.span, "storage"))
        patcher.wrap(
            cls,
            "scan_log",
            lambda original: tracer.span_iter("storage", original, "storage.docs_scanned"),
        )
    patcher.wrap(SenseAidService, "submit", functools.partial(tracer.span_async, "service"))
