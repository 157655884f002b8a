"""The crowdsensing application server endpoint (CAS).

An application (a hyperlocal weather map, a traffic monitor, …) uses
this library to describe *what* data it needs; Sense-Aid handles all
the bookkeeping the paper calls out — tracking devices, locations and
schedules — which in Pressurenet amounted to 37% of the app's code.

Stored readings live on the Sense-Aid server's pluggable storage
backend as an append-only log tagged by task id, so with
``REPRO_DATASTORE=sqlite`` an application's data store is on disk and a
campaign's readings never have to fit in process memory.  Queries
(``mean_value``, ``reading_count``, ``distinct_devices``) answer from
running aggregates (a mean per task and overall, and the overall set of
devices), folded in arrival order as each reading is appended; so a
query costs O(1), not a pass over the log, and stays bit-identical to
that pass on every backend (see ``mean_value``).  ``iter_readings``
still streams the log.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Set

from repro.analysis.streaming import StreamingMean
from repro.core.server import SenseAidServer, SensedDataPoint
from repro.core.tasks import TaskSpec
from repro.devices.sensors import SensorType
from repro.environment.geometry import Point
from repro.storage import StorageBackend


def point_to_dict(point: SensedDataPoint) -> dict:
    return {
        "request_id": point.request_id,
        "task_id": point.task_id,
        "sensor_type": point.sensor_type.name,
        "value": point.value,
        "sensed_at": point.sensed_at,
        "delivered_at": point.delivered_at,
        "device_hash": point.device_hash,
    }


def point_from_dict(data: dict) -> SensedDataPoint:
    return SensedDataPoint(
        request_id=data["request_id"],
        task_id=data["task_id"],
        sensor_type=SensorType[data["sensor_type"]],
        value=data["value"],
        sensed_at=data["sensed_at"],
        delivered_at=data["delivered_at"],
        device_hash=data["device_hash"],
    )


#: What a task with no stored readings answers; never folded into.
_EMPTY = StreamingMean()


class CrowdsensingAppServer:
    """One crowdsensing application's server-side endpoint.

    The app server assumes it is the only writer of its readings
    namespace while it lives.  To reattach to a store that changed
    underneath it (a backend ``restore``, another process), build a
    new app server over the backend: construction refolds the log.
    """

    def __init__(
        self,
        senseaid: SenseAidServer,
        name: str,
        on_data: Optional[Callable[[SensedDataPoint], None]] = None,
    ) -> None:
        self._senseaid = senseaid
        self.name = name
        self._on_data = on_data
        self._storage = senseaid.storage
        #: Backend log namespace holding this application's readings,
        #: one row per delivery, tagged with the task id.
        self.readings_ns = f"readings:{name}"
        self._task_ids: List[int] = []
        #: Deliveries that arrived for a task this app no longer (or
        #: never) owned — e.g. in flight when ``delete_task`` ran.
        self.late_deliveries_dropped = 0
        #: ``on_data`` callback invocations that raised; the reading is
        #: still recorded — an application bug must not corrupt the
        #: middleware's data store or the delivery path.
        self.callback_errors = 0
        #: Running answers to queries (see ``mean_value``): the mean over
        #: all readings and per task (keyed by its log tag), and the
        #: devices that contributed.
        self._overall = StreamingMean()
        self._by_task: Dict[str, StreamingMean] = {}
        self._devices: Set[str] = set()
        self._rebuild_aggregates()

    # ------------------------------------------------------------------
    # The paper's four-call application API
    # ------------------------------------------------------------------

    def task(
        self,
        sensor_type: SensorType,
        center: Point,
        area_radius_m: float,
        spatial_density: int,
        *,
        sampling_period_s: Optional[float] = None,
        sampling_duration_s: Optional[float] = None,
        start_time: Optional[float] = None,
        end_time: Optional[float] = None,
        device_type: Optional[str] = None,
    ) -> int:
        """Create a crowdsensing task and push it to Sense-Aid.

        Returns the task id used by ``update_task_param`` and
        ``delete_task``.
        """
        spec = TaskSpec(
            sensor_type=sensor_type,
            center=center,
            area_radius_m=area_radius_m,
            spatial_density=spatial_density,
            sampling_period_s=sampling_period_s,
            sampling_duration_s=sampling_duration_s,
            start_time=start_time,
            end_time=end_time,
            device_type=device_type,
            origin=self.name,
        )
        task_id = self._senseaid.submit_task(spec, self.receive_sensed_data)
        self._task_ids.append(task_id)
        return task_id

    def update_task_param(self, task_id: int, **changes) -> TaskSpec:
        """Update parameters of one of this application's tasks."""
        self._require_own_task(task_id)
        return self._senseaid.update_task(task_id, **changes)

    def delete_task(self, task_id: int) -> None:
        """Remove one of this application's tasks from the system.

        The task's readings are purged with it — keeping them would
        leave stale per-task entries behind and skew ``mean_value()``
        / ``distinct_devices()`` with data the application explicitly
        disowned.  Deliveries still in flight when the delete lands
        are dropped on arrival (``late_deliveries_dropped``).

        A float total cannot be exactly un-added, so when the prune
        removed readings the aggregates are refolded with one scan of
        what is left; when it removed none, nothing changed.
        """
        self._require_own_task(task_id)
        self._senseaid.delete_task(task_id)
        self._task_ids.remove(task_id)
        if self._storage.prune_tagged(self.readings_ns, str(task_id)):
            self._rebuild_aggregates()

    def receive_sensed_data(self, point: SensedDataPoint) -> None:
        """Callback invoked by Sense-Aid when data arrives.

        Only data for tasks this application currently owns is
        accepted; a late callback for a deleted task is counted and
        dropped.  The application's own ``on_data`` hook runs after
        the reading is safely recorded, and an exception it raises is
        contained (counted in ``callback_errors``) rather than allowed
        to corrupt the store or the server's delivery path.
        """
        if point.task_id not in self._task_ids:
            self.late_deliveries_dropped += 1
            return
        tag = str(point.task_id)
        self._storage.append_log(self.readings_ns, point_to_dict(point), tag=tag)
        self._fold(tag, point.value, point.device_hash)
        if self._on_data is not None:
            try:
                self._on_data(point)
            except Exception:  # noqa: BLE001 — app bugs stay the app's problem
                self.callback_errors += 1

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------

    @property
    def task_ids(self) -> List[int]:
        return list(self._task_ids)

    @property
    def storage(self) -> StorageBackend:
        return self._storage

    def iter_readings(
        self, task_id: Optional[int] = None
    ) -> Iterator[SensedDataPoint]:
        """Stream readings in arrival order without materialising them."""
        tag = None if task_id is None else str(task_id)
        for doc in self._storage.scan_log(self.readings_ns, tag=tag):
            yield point_from_dict(doc)

    @property
    def readings(self) -> List[SensedDataPoint]:
        return list(self.iter_readings())

    def readings_for_task(self, task_id: int) -> List[SensedDataPoint]:
        return list(self.iter_readings(task_id))

    def reading_count(self, task_id: Optional[int] = None) -> int:
        return self._aggregate(task_id).count

    def distinct_devices(self) -> int:
        """How many distinct (hashed) devices contributed data."""
        return len(self._devices)

    def mean_value(self, task_id: Optional[int] = None) -> Optional[float]:
        """Mean sensed value, overall or for one task.

        Answered from a running aggregate, and bit-identical to
        scanning the log: start at ``0.0``, add each stored reading's
        value in arrival order, divide by the count.  Why:

        1. *The mean.*  Each aggregate (a ``StreamingMean``) starts at
           ``0.0`` and adds every accepted reading's value in arrival
           order — the same additions in the same order as the scan,
           on every backend.
        2. *Who writes the log.*  Only ``receive_sensed_data``
           (``append_log``) and ``delete_task`` (``prune_tagged``)
           write ``readings:{name}``; nothing in the package restores a
           backend, and ``SenseAidServer.restart`` rebuilds only the
           device and task datastores, so the log survives it.  Hence:
           each reading is folded right after its append; a delete
           that pruned readings refolds the aggregates with one scan,
           because a float total cannot be exactly un-added; and
           construction folds whatever the namespace already holds,
           with one scan.
        3. *Late deliveries.*  A delivery for a task this app no
           longer owns is dropped before ``append_log``, and is not
           folded either.
        4. *Counts.*  ``reading_count`` is each aggregate's count, the
           number of rows the scan (or ``log_count``) would see.
        """
        return self._aggregate(task_id).mean

    # ------------------------------------------------------------------
    # Running aggregates
    # ------------------------------------------------------------------

    def _aggregate(self, task_id: Optional[int]) -> StreamingMean:
        if task_id is None:
            return self._overall
        return self._by_task.get(str(task_id), _EMPTY)

    def _fold(self, tag: str, value: float, device_hash: str) -> None:
        task = self._by_task.get(tag)
        if task is None:
            task = self._by_task[tag] = StreamingMean()
        self._overall.add(value)
        task.add(value)
        self._devices.add(device_hash)

    def _rebuild_aggregates(self) -> None:
        """Refold every stored reading, in arrival order, with one scan."""
        self._overall = StreamingMean()
        self._by_task = {}
        self._devices = set()
        for doc in self._storage.scan_log(self.readings_ns):
            self._fold(str(doc["task_id"]), doc["value"], doc["device_hash"])

    def _require_own_task(self, task_id: int) -> None:
        if task_id not in self._task_ids:
            raise KeyError(
                f"task {task_id} does not belong to application {self.name!r}"
            )
