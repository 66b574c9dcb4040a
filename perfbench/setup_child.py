"""One fresh-process set-up of a workload, for the ``setup_s`` metric.

Usage: ``python3 perfbench/setup_child.py <workload> <seed> <work dir>``.
Prints the ``time.perf_counter()`` reading (a system-wide monotonic clock)
at which a round could start, so the parent can time set-up from the moment
it spawned this process: interpreter start, imports, generated inputs,
configs, checkpoints and the warm-up call.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2])).setup(Path(sys.argv[3]))
print(repr(time.perf_counter()))
