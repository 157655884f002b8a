"""The Sense-Aid middleware server — the paper's primary contribution.

The server runs logically at the cellular edge (between the eNodeBs
and the core network).  It keeps a device datastore fed by the edge's
existing visibility (location at tower granularity, RRC state) plus
lightweight device reports (battery level, hashed IMEI, energy
budget); accepts crowdsensing tasks from application servers; expands
them into per-sample requests on a deadline-sorted run queue (with a
wait queue for currently unsatisfiable requests); and, per request,
runs the four-factor fairness-aware device selector to pick the
minimum set of devices meeting the task's spatial density.
"""

from repro.core.config import (
    OverloadPolicy,
    SelectorWeights,
    SenseAidConfig,
    ServerMode,
)
from repro.core.datastores import DeviceDatastore, DeviceRecord, TaskDatastore
from repro.core.overload import (
    AdmissionController,
    RequestClass,
    ServerOverloadedError,
)
from repro.core.queues import RequestQueue
from repro.core.selector import DeviceSelector
from repro.core.server import SenseAidServer, UploadAck
from repro.core.sharding import (
    ConsistentHashRing,
    CrossShardTask,
    NearestSite,
    PhiAccrualFailureDetector,
    ShardSpec,
    ShardedSenseAid,
)
from repro.core.tasks import SensingRequest, TaskSpec
from repro.core.wal import (
    DurableLog,
    RecoveryViolation,
    WriteAheadLog,
    check_recovery_invariants,
    durable_state,
)

__all__ = [
    "AdmissionController",
    "ConsistentHashRing",
    "CrossShardTask",
    "DeviceDatastore",
    "DeviceRecord",
    "DeviceSelector",
    "DurableLog",
    "NearestSite",
    "OverloadPolicy",
    "PhiAccrualFailureDetector",
    "RecoveryViolation",
    "RequestClass",
    "RequestQueue",
    "SelectorWeights",
    "SenseAidConfig",
    "SenseAidServer",
    "SensingRequest",
    "ServerMode",
    "ServerOverloadedError",
    "ShardSpec",
    "ShardedSenseAid",
    "TaskDatastore",
    "TaskSpec",
    "UploadAck",
    "WriteAheadLog",
    "check_recovery_invariants",
    "durable_state",
]
