#!/usr/bin/env python3
"""hepeval benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload eval_liver --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed, warms up, runs ops in a closed
loop for --seconds, checks every output, and prints as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones
from a traced run. The line before it is the full record (machine, input
digests, op times, failures), also written under .perfbench_out/.

The package is imported from this checkout's src/, never from an installed
copy. BLAS/OpenMP pools are pinned to one thread before NumPy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hepeval benchmark run")
    parser.add_argument("--workload", required=True, choices=("eval_liver", "eval_htree", "loss_train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hepeval" / "__init__.py").is_file():
        print(f"perfbench: no hepeval sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import hepeval

    if Path(hepeval.__file__).resolve().parent != SRC / "hepeval":
        print(f"perfbench: imported hepeval from {hepeval.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import harness

    result, record = harness.run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT
    )
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
