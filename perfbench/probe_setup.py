#!/usr/bin/env python3
"""Time one benchmark set-up in a fresh interpreter.

Set-up is importing ``mlmcsr`` and building the workload's model and
configuration.  ``run.py`` starts this script a few times and reports
the median, because the import can only be timed once per process.

    python3 perfbench/probe_setup.py <workload> <seed> <smoke 0|1> <out_dir>

Prints the seconds taken.
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

name, seed, smoke, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", Path(sys.argv[4])
workloads.prepare(name, seed, smoke, out_dir)
print(repr(time.perf_counter() - t0))
