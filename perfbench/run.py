#!/usr/bin/env python3
"""Benchmark of `emis eval` and `emis train`, end to end and split by module.

    python3 perfbench/run.py --workload eval-artemis --seed 1 --seconds 20 --trace 0

Workloads: eval-artemis, eval-late-fusion-dump, train-artemis (see
perfbench/README.md). The benchmark prints readable lines, then one JSON
object as its last line: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones from a traced run. Exit codes: 0 all checks
passed, 1 a correctness check failed, 2 the program or a setting is
missing.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def pin_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use.

    Set before numpy is imported; the environment change reaches only this
    process and the fixture process it starts.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "emis" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'emis'}", file=sys.stderr)
        return 2
    nproc = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import measure  # imports numpy, so only after the thread pin

    return measure.run(args.workload, args.seed, args.seconds, bool(args.trace), nproc)


if __name__ == "__main__":
    raise SystemExit(main())
