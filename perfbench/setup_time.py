"""Time a fresh interpreter's set-up: import palindromics, build the inputs.

Usage: python3 perfbench/setup_time.py <workload> <seed>
Prints the seconds spent, measured from before the first palindromics import.
"""

import sys
import time

start = time.perf_counter()
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - start)
