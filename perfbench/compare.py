"""Run two sets of benchmark runs of the same code and print each metric's spread.

    python3 perfbench/compare.py                            # every workload
    python3 perfbench/compare.py --workload fuchsian-agree  # one workload

Run from the root of a gadsp checkout.  Runs are sequential: SETS sets of
RUNS runs each, set k on seeds k*RUNS+1 .. (k+1)*RUNS, so no seed repeats.
For each workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)), the quartile spread as a share of the
median, the metric's bound from BENCHMARK.json, and how far the second
set's median moved from the first.  Every run's JSON line is kept in
perfbench/out/compare-<time>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SETS = 2
RUNS = 10


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited %d:\n%s"
                           % (workload, seed, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None):
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default every workload")
    args = parser.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    log_path = os.path.join(OUT, "compare-%d.jsonl" % time.time())
    ok = True
    with open(log_path, "w", encoding="utf-8") as log:
        for workload in args.workload or names:
            sets = []
            for k in range(SETS):
                results = []
                for seed in range(k * RUNS + 1, (k + 1) * RUNS + 1):
                    res = run_once(spec, workload, seed)
                    log.write(json.dumps(dict(res, workload=workload, seed=seed)) + "\n")
                    log.flush()
                    results.append(res)
                sets.append(results)
            for k, results in enumerate(sets):
                print("%s set %d: attempted %s, failed %s, correct %s"
                      % (workload, k + 1, [r["attempted"] for r in results],
                         [r["failed"] for r in results],
                         all(r["correct"] for r in results)))
                ok = ok and all(r["correct"] for r in results)
            print("%-24s %-6s %4s %12s %12s %12s %7s %6s %7s"
                  % ("metric", "unit", "set", "median", "q1", "q3", "spread",
                     "bound", "moved"))
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                first = None
                for k, results in enumerate(sets):
                    values = [r["metrics"][name]["value"] for r in results]
                    med, q1, q3, share = spread(values)
                    moved = "" if first is None else "%+.3f" % (med / first - 1)
                    first = med if first is None else first
                    print("%-24s %-6s %4d %12.6g %12.6g %12.6g %7.3f %6s %7s"
                          % (name, metric["unit"], k + 1, med, q1, q3, share,
                             bound, moved))
                    # setup_s is held to the bound on its median only
                    if name != "setup_s" and share > bound:
                        ok = False
                    worse = med / first - 1 if metric["better"] == "lower" \
                        else first / med - 1
                    if worse > bound:
                        ok = False
            shares = {Fraction(r["failed"], r["attempted"])
                      for results in sets for r in results}
            if len(shares) > 1:
                print("failed share differs between runs: %s" % sorted(shares))
                ok = False
            print()
    print("log: %s" % os.path.relpath(log_path))
    print("within bounds" if ok else "OUTSIDE BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
