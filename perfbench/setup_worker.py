"""Set-up sampler: times a workload's set-up on request, in its own process.

Started by :class:`perfbench.common.SetupClock` as ``python -m
perfbench.setup_worker WORKLOAD_MODULE SEED`` with ``src/`` and the
repository root on ``PYTHONPATH``.  It prints ``ready`` once the
workload's inputs are prepared and one warm-up set-up is done; then, for
each line read from standard input, it times one set-up, closes what it
built and prints the seconds.  It exits when standard input closes.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time


def main() -> int:
    workload = importlib.import_module("perfbench." + sys.argv[1])
    prepared = workload.prepare(int(sys.argv[2]))
    workload.setup(prepared).close()
    print("ready", flush=True)
    for _request in sys.stdin:
        gc.collect()
        started = time.perf_counter()
        built = workload.setup(prepared)
        elapsed = time.perf_counter() - started
        built.close()
        print(repr(elapsed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
