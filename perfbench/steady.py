#!/usr/bin/env python3
"""Steadiness check: run each workload in two sets of runs on one commit
and hold the figures to the bounds of BENCHMARK.json.

    python3 perfbench/steady.py [--workloads compile,validate,serve]
        [--runs 10] [--first-seed 1]

Run from the repository root.  Every run uses its own seed: set A takes
first-seed .. first-seed+runs-1, set B the next runs seeds; each run
measures BENCHMARK.json's run_seconds, untraced.  Per set and end-to-end
metric it prints the median, the quartiles, the quartile spread (q3-q1)
as a share of the median and the largest relative deviation from the
median; then how far B's median moved from A's.  It exits with 1 when a
run is not correct, the share of failed ops differs between runs, a
spread exceeds a third of its metric's bound, or B's median is worse
than A's by more than the bound."""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, timeout=900)
    if proc.returncode != 0:
        raise SystemExit("run of %s seed %d exited with %d"
                         % (workload, seed, proc.returncode))
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def one_set(workload, seeds, seconds):
    results = []
    for seed in seeds:
        r = one_run(workload, seed, seconds)
        results.append(r)
        print("  %s seed %d: attempted %d failed %d correct %s"
              % (workload, seed, r["attempted"], r["failed"], r["correct"]),
              file=sys.stderr, flush=True)
    return results


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="compile,validate,serve")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = [(m["name"], m["better"], m["bound"])
               for m in bench["end_to_end"]]
    ok = True
    for workload in args.workloads.split(","):
        first = args.first_seed
        sets = [one_set(workload, range(first + k * args.runs,
                                        first + (k + 1) * args.runs), seconds)
                for k in range(2)]
        runs = sets[0] + sets[1]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print("%s: 2 sets of %d runs, %d s windows, failed share %s"
              % (workload, args.runs, seconds,
                 ", ".join("%.6f" % s for s in sorted(shares))))
        if len(shares) > 1 or not all(r["correct"] for r in runs):
            ok = False
            print("  not every run correct, or failed shares differ")
        print("  %-16s %3s %12s %12s %12s %9s %9s %9s %6s"
              % ("metric", "set", "median", "q1", "q3", "iqr/med", "maxdev",
                 "B vs A", "bound"))
        for name, better, bound in metrics:
            meds = []
            for label, results in zip("AB", sets):
                values = [r["metrics"][name]["value"] for r in results]
                med, q1, q3, iqr, maxdev = stats.spread(values)
                meds.append(med)
                flag = ""
                if iqr > bound / 3:
                    flag = "  spread > bound/3"
                    ok = False
                moved = ""
                if label == "B":
                    move = (med - meds[0]) / meds[0] if meds[0] else 0.0
                    moved = "%+8.2f%%" % (100 * move)
                    worse = move if better == "lower" else -move
                    if worse > bound:
                        flag += "  B worse than A by more than the bound"
                        ok = False
                print("  %-16s %3s %12.4f %12.4f %12.4f %8.2f%% %8.2f%% "
                      "%9s %6.2f%s"
                      % (name, label, med, q1, q3, 100 * iqr, 100 * maxdev,
                         moved, bound, flag))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
