"""softdyn benchmark: runs one workload in this process and prints one JSON
result line.

    python3 perfbench/run.py --workload beam16-trbdf2 --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The program is imported from ``src/`` of the
checkout this file sits in; without it the run fails before any output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# BLAS/OpenMP threads, set before numpy loads; at most nproc.
THREADS = 1


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")

    src = os.path.join(root, "src")
    needed = [os.path.join(src, "softdyn", "__init__.py"),
              os.path.join(root, "demos", "assets", "block_drop.json")]
    missing = [f for f in needed if not os.path.isfile(f)]
    if missing:
        print(f"perfbench: missing program files: {missing}", file=sys.stderr)
        return 2

    threads = str(min(THREADS, os.cpu_count() or 1))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path[:0] = [src, here]
    import softdyn
    if os.path.dirname(os.path.dirname(softdyn.__file__)) != src:
        print(f"perfbench: softdyn imported from {softdyn.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, args.trace,
                           root)
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
