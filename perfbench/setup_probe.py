"""Time one cold set-up of a library workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Set-up is the import of slcurv, building the fields (or parsing the
expression pool) and the first warm-up call. Input generation, oracles
included, is excluded. Prints {"setup_s": ...}.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import slcurv  # noqa: E402

IMPORTED = time.perf_counter()

import workloads  # noqa: E402  (numpy is already imported by slcurv)


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    ops = workloads.library_ops(workload, seed, slcurv)
    begin = time.perf_counter()
    state = workloads.LibraryState(workload, ops, slcurv)
    state.call(ops[0])
    end = time.perf_counter()
    print(json.dumps({"setup_s": (IMPORTED - START) + (end - begin)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
