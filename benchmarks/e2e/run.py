"""One fixed-length benchmark run, as named in BENCHMARK.json.

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1

Same as ``python -m benchmarks.e2e measure``, runnable from the root of
a checkout without setting PYTHONPATH.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
# Replace this script's own directory, whose module names (``trace``)
# would shadow the standard library's.
sys.path[0:1] = [ROOT, os.path.join(ROOT, "src")]

from benchmarks.e2e.__main__ import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["measure", *sys.argv[1:]]))
