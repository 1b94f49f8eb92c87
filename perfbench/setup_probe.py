"""Time one set-up in this fresh process: import gatekit, then build or parse
the workload's circuits.  The inputs are generated before the clock starts.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds taken.
"""
import os
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    inputs = workloads.GENERATORS[workload](seed)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as in run.py
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import gatekit
    import gatekit.cli  # noqa: F401  (the shor15 requests go through it)

    workloads.prepare(workload, inputs, gatekit)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
