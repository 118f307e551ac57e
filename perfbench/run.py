"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload edit-sdf --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Builds nothing: ``repro`` is imported from ``src/`` next to this
directory.  Standard output ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The line before it is ``{"info": ...}``: interpreter, CPU count, hash
seed, tail percentile and sample count, and the op class most common
around the p50 and tail ranks.
``--workload all`` runs every workload, untraced and traced, each in a
fresh process, and prints every metric by name with its unit; it exits
non-zero if any run fails or reports an incorrect result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = {
    "edit-sdf": "edit_sdf",
    "design-gen": "design_gen",
    "serve-booleans": "serve_booleans",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)
    if options.seconds <= 0:
        parser.error("--seconds must be positive")
    if options.workload == "all":
        return run_all(options.seed, options.seconds)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(root)]
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the run and any child it starts: a client and server
        # hand each request back and forth, and on one CPU that handoff
        # costs the same from run to run.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    from perfbench import common

    workload = importlib.import_module("perfbench." + WORKLOADS[options.workload])
    result, facts = workload.run(options.seed, options.seconds, bool(options.trace))
    facts.update(common.environment())
    facts["workload"] = options.workload
    print(json.dumps({"info": facts}))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            completed = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {completed.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"{workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:30s} {metric['value']:14.4f} {metric['unit']}")
            if not result["correct"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
