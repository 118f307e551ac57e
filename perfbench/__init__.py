"""The repository benchmark: three closed-loop workloads over ``repro``.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; README.md in this
directory describes the workloads and every metric.
"""
