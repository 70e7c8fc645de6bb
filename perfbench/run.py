"""Benchmark entry point.

    python3 perfbench/run.py --workload chain-fixture --seed 20210 --seconds 30 --trace 0

Run from the root of a checkout. The program is imported from `src/`;
without it the benchmark prints no result and exits with code 2. The
last line of standard output is the result JSON; the line before it is
a record of the environment, the inputs and the stage digests.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from workloads import FIXTURE_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=FIXTURE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="timed budget of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="input size factor; the self-test uses a small one"
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    load_at_start = os.getloadavg()
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "taghrida" / "__init__.py").is_file():
        print(f"error: no program to measure: {src / 'taghrida'} is missing", file=sys.stderr)
        return 2
    # One BLAS thread, so that runs do not compete with each other for
    # the cores; set before numpy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import harness

    return harness.run(args, ROOT, started, load_at_start)


if __name__ == "__main__":
    sys.exit(main())
