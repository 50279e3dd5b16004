#!/usr/bin/env python3
"""The benchmark of parinline: one command, three workloads.

    python3 perfbench/run.py --workload compile|validate|serve \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It builds the workload runner
(perfbench/bench.exe) and the parinline executable with dune, runs the
workload, prints every metric by name and unit, and prints as its last
line one JSON object with the keys correct, attempted, failed and
metrics.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones (from an extra traced window) and the tracing overhead.
See perfbench/README.md."""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = ("compile", "validate", "serve")
BENCH_EXE = "_build/default/perfbench/bench.exe"
PARINLINE_EXE = "_build/default/bin/parinline.exe"
WORKDIR = ".bench_build/perfbench"
# A run must end within this many seconds; the build gets its own budget.
RUN_BUDGET_S = 170
BUILD_BUDGET_S = 850


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    candidates = ([os.path.join(prefix, "bin", "dune")] if prefix else [])
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    die("dune not found on PATH")


def build():
    """Build the runner and the daemon from the checkout's sources."""
    for need in ("dune-project", "lib", "bin/parinline.ml", "perfbench/dune"):
        if not os.path.exists(need):
            die("not a parinline source checkout (missing %s); run from "
                "the repository root" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            [find_dune(), "build", "--root", ".", "./perfbench/bench.exe",
             "./bin/parinline.exe"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_BUDGET_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        die("build failed")


def run_workload(args):
    os.makedirs(WORKDIR, exist_ok=True)
    cmd = [BENCH_EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--exe", PARINLINE_EXE, "--workdir", WORKDIR]
    # own session, so the daemon the serve workload starts can be
    # stopped with the runner whatever state the runner ends in
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        die("workload %s did not finish within %d s"
            % (args.workload, RUN_BUDGET_S))
    if proc.returncode != 0:
        die("workload %s exited with %d" % (args.workload, proc.returncode))
    lines = out.decode().strip().splitlines()
    if not lines:
        die("workload %s printed no report" % args.workload)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    t0 = time.monotonic()
    build()
    report = run_workload(args)
    try:
        attempted, failed, correct = stats.count_ops(report)
        if args.trace:
            values, units = stats.per_layer(report), dict(stats.PER_LAYER)
        else:
            values, units = stats.end_to_end(report), dict(stats.END_TO_END)
    except (ValueError, KeyError, ZeroDivisionError) as e:
        die("cannot derive metrics: %s" % e)
    print("workload %s  seed %d  window %d s  trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("host_cores %d  domains_used %d"
          % (report["host_cores"], report["domains_used"]))
    print("attempted %d  failed %d" % (attempted, failed))
    for reason in report["failures"]:
        print("  failure: " + reason)
    for name in units:
        print("%-28s %14.6f %s" % (name, values[name], units[name]))
    print("wall_s %.1f" % (time.monotonic() - t0))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }))


if __name__ == "__main__":
    main()
