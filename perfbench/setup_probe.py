"""Set-up probe: import rayclass.cli and build one workload, then exit.

run.py starts this script in a fresh interpreter several times.  The probe
prints ``time.perf_counter()`` when it is done; that clock is the system-wide
monotonic clock on Linux, so run.py subtracts its own reading taken just
before the start to get one sample of the benchmark's ``setup_s``.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter())
