#!/usr/bin/env python3
"""End-to-end benchmark of xroute: a two-broker loopback TCP overlay.

Builds this directory's CMake package (which compiles the xroute library
from the repository's src/), runs the delivery oracle's self-test, then
runs overlay_bench once and passes its output through. The last line of
standard output is the result object.

  python3 perfbench/run.py --workload notify --seed 1 --seconds 40 --trace 0

Repeat mode runs every named workload once per seed and prints, per
workload and metric, the median, the quartiles and the spreads used to
set BENCHMARK.json's bounds; without --workload it runs the workloads
BENCHMARK.json lists:

  python3 perfbench/run.py --repeat 10 --seconds 40 [--workload W ...]

The build directory is $CARGO_TARGET_DIR, else .bench_build, relative to
the working directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["notify", "match_heavy", "churn"]
# match_heavy runs by hand only: see README.md.
GATED_WORKLOADS = ["notify", "churn"]
RUN_TIMEOUT_S = 170


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed:", " ".join(step))
            return False
    return True


def git_rev():
    try:
        done = subprocess.run(["git", "-C", HERE, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_child(cmd):
    """Runs cmd with stderr passed through; returns (exit code, stdout)."""
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        log("timed out:", " ".join(cmd))
        return 124, ""
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    return child.returncode, out


def run_once(build_dir, workload, seed, seconds, trace, rev):
    """One benchmark run; returns (exit code, stdout text)."""
    code, _ = run_child([os.path.join(build_dir, "oracle_test")])
    if code != 0:
        log("oracle self-test failed")
        return code or 1, ""
    cmd = [os.path.join(build_dir, "overlay_bench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--git-rev", rev]
    if trace:
        cmd += ["--spans", os.path.join(
            build_dir, "spans-%s-%d.csv" % (workload, seed))]
    code, out = run_child(cmd)
    if code != 0:
        return code, ""
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if not ok:
        log("overlay_bench printed no result object")
        return 1, ""
    return 0, out


def spread_report(workload, runs):
    """Median, quartiles and spreads of each metric over `runs`."""
    names = sorted({m for r in runs for m in r["metrics"]})
    rows = []
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs
                  if name in r["metrics"]]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = median
        scale = abs(median) if median else float("nan")
        rows.append({
            "workload": workload, "metric": name,
            "unit": runs[0]["metrics"][name]["unit"], "runs": len(values),
            "median": median, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / scale,
            "max_spread_frac": (max(values) - min(values)) / scale,
        })
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="runs per workload, seeds --seed, --seed+1, ...")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    if not build(build_dir):
        return 1
    rev = git_rev()

    if args.repeat <= 0:
        if not args.workload or len(args.workload) != 1:
            parser.error("a single run needs exactly one --workload")
        code, out = run_once(build_dir, args.workload[0], args.seed,
                             args.seconds, args.trace, rev)
        if code == 0:
            sys.stdout.write(out)
        return code

    rows = []
    for workload in args.workload or GATED_WORKLOADS:
        runs = []
        for i in range(args.repeat):
            seed = args.seed + i
            code, out = run_once(build_dir, workload, seed, args.seconds,
                                 args.trace, rev)
            if code != 0:
                log("%s seed %d failed with exit code %d" %
                    (workload, seed, code))
                return code
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                log("%s seed %d: deliveries failed the oracle" %
                    (workload, seed))
                return 1
            runs.append(result)
            log("%s seed %d: %s" % (workload, seed, json.dumps(
                {k: v["value"] for k, v in result["metrics"].items()})))
        rows += spread_report(workload, runs)
    print("%-12s %-32s %12s %12s %12s %8s %8s" %
          ("workload", "metric", "median", "q1", "q3", "iqr/med", "max/med"))
    for r in rows:
        print("%-12s %-32s %12.5g %12.5g %12.5g %8.4f %8.4f" %
              (r["workload"], r["metric"], r["median"], r["q1"], r["q3"],
               r["iqr_frac"], r["max_spread_frac"]))
    print(json.dumps({"spreads": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
