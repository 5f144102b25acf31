"""One cold start for the setup_s metric: in a fresh interpreter, import
cevian and make a workload's inputs, then print the seconds that took.

    python3 perfbench/cold_start.py WORKLOAD SEED

run.py starts it with -I, so it puts its own directory on sys.path.
"""

import time

_start = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

_here = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [_here, os.path.join(_here, "..", "src")]

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].make_inputs(int(sys.argv[2]))
print(time.perf_counter() - _start)
