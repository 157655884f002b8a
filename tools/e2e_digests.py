"""Check the end-to-end benchmark's outputs under the caller's hash seed.

The benchmark harness (``benchmarks/e2e``) pins ``PYTHONHASHSEED=0`` in
every child it spawns, so its digest check cannot see an output that
depends on the iteration order of a set or dict of strings.  This tool
runs each workload in this process instead, at the workload's
default seed and on its pinned datastore (``DATASTORES``), under
whatever hash seed the caller set.  It compares each workload's output
digests and checks with ``benchmarks/e2e/expected.json`` and exits 1,
naming every workload that differs.  No timing is reported.

Usage::

    PYTHONHASHSEED=1 python tools/e2e_digests.py
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0:1] = [ROOT, os.path.join(ROOT, "src")]

from benchmarks.e2e import harness  # noqa: E402
from benchmarks.e2e.workloads import DATASTORES, DEFAULT_SEEDS, WORKLOADS  # noqa: E402


def check(workload: str, expected: dict) -> list:
    """Run one workload at its default seed; every problem found."""
    with tempfile.TemporaryDirectory() as tmp_dir:
        os.environ["REPRO_DATASTORE"] = DATASTORES[workload]
        os.environ["REPRO_DATASTORE_DIR"] = os.path.join(tmp_dir, "datastore")
        result = harness.child(workload, DEFAULT_SEEDS[workload], False, time.monotonic(), tmp_dir)
    return harness.problems([result], expected.get(workload))


def main() -> int:
    expected = harness.load_expected()
    print(f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED', 'random')}")
    differ = []
    for workload in WORKLOADS:
        found = check(workload, expected)
        for line in found:
            print(f"FAIL {workload}: {line}")
        if found:
            differ.append(workload)
        else:
            print(f"ok   {workload}: digests and checks match expected.json")
    if differ:
        print(f"outputs differ under this hash seed: {', '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
