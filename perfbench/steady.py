"""Steadiness check: runs each workload several times, one seed per run,
and reports each end-to-end metric's median and quartiles against its bound
in BENCHMARK.json.  Traced runs, each seed twice, then show whether every
count metric repeats exactly for the same inputs, as it must.

    python3 perfbench/steady.py --runs 10 [--workloads a,b] [--trace-runs 2]

Runs are made one after another, each in a fresh process and lasting
BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_UNITS = {"count", "1/step", "ratio"}
FIRST_SEED = 1


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace-runs", type=int, default=2,
                   help="traced seeds, each run twice")
    p.add_argument("--workloads", default=",".join(names))
    args = p.parse_args(argv)
    if 0 < args.runs < 4:
        p.error("--runs must be 0 (traced runs only) or >= 4 for quartiles")

    seconds = bench["run_seconds"]
    ok = True
    for wl in args.workloads.split(","):
        seeds = range(FIRST_SEED, FIRST_SEED + args.runs)
        runs = [one_run(wl, s, seconds, 0) for s in seeds]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{wl}:")
        if runs:
            print(f"  {args.runs} runs, seeds {seeds.start}..{seeds.stop - 1}, "
                  f"failed share {sorted(shares)}, "
                  f"all correct {all(r['correct'] for r in runs)}")
            print(f"  {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
                  f"{'iqr/med':>8s} {'bound':>6s}  verdict")
        for m in bench["end_to_end"] if runs else ():
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, rel = spread(vals)
            if rel <= m["bound"] / 3:
                verdict = "steady"
            elif rel <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "OVER BOUND"
                ok = False
            print(f"  {m['name']:18s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{rel:8.4f} {m['bound']:6.3f}  {verdict}")
        # each traced seed runs twice: a count that differs between the two
        # runs of one seed does not repeat; one that differs between seeds
        # only follows the inputs
        tseeds = range(FIRST_SEED, FIRST_SEED + args.trace_runs)
        pairs = [(one_run(wl, s, seconds, 1), one_run(wl, s, seconds, 1))
                 for s in tseeds]
        unsteady, by_seed = [], []
        for m in bench["per_layer"]:
            if m["unit"] not in COUNT_UNITS:
                continue
            vals = [tuple(r["metrics"][m["name"]]["value"] for r in pair)
                    for pair in pairs]
            if any(a != b for a, b in vals):
                unsteady.append((m["name"], vals))
            elif len({a for a, _ in vals}) > 1:
                by_seed.append((m["name"], [a for a, _ in vals]))
        overhead = [r["metrics"]["trace.overhead_pct"]["value"]
                    for pair in pairs for r in pair]
        if overhead:
            print(f"  traced runs: seeds {list(tseeds)} twice each, tracing "
                  f"overhead % median {statistics.median(overhead):.2f}, "
                  f"range [{min(overhead):.2f}, {max(overhead):.2f}]")
        for name, vals in unsteady:
            print(f"  COUNT DOES NOT REPEAT for one seed: {name} {vals}")
        for name, vals in by_seed:
            print(f"  count follows the seed: {name} {vals}")
        ok = ok and not unsteady and len(shares) <= 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
