#!/usr/bin/env python3
"""Perf-smoke gate: compare a reduced-scale parallel_match run against the
checked-in baseline (bench/perf_baseline.json) and fail on a >25% per-pub
nanosecond regression.

Only CPU-time figures are compared (worker busy ns/pub, control ns/pub,
stage ns/pub): they are per-publication and immune to preemption, so the
gate survives noisy shared CI runners far better than wall clock would.
Absolute machine-speed differences still shift them, which is why the
tolerance is a generous 25% and the job is a smoke test, not a benchmark;
the baseline must be recorded on the runner class the job runs on (its
config names the cores, CPU model and revision, printed beside the
current run's).

Usage: perf_smoke_check.py <BENCH_parallel.json> <perf_baseline.json>
"""

import json
import sys

TOLERANCE = 0.25


def sweep_point(doc, threads):
    for point in doc.get("sweep", []):
        if point.get("threads") == threads:
            return point
    raise SystemExit(f"no sweep point for threads={threads}")


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    with open(sys.argv[1]) as f:
        current = json.load(f)
    with open(sys.argv[2]) as f:
        baseline = json.load(f)

    # The figures are only comparable on the same machine class.
    for label, doc in (("current", current), ("baseline", baseline)):
        config = doc.get("config", {})
        print(f"{label:8} cores {config.get('cores', '?')}, "
              f"cpu {config.get('cpu_model', '?')}, "
              f"rev {config.get('git_rev', '?')}")

    checks = []  # (name, current ns, baseline ns)

    cur4, base4 = sweep_point(current, 4), sweep_point(baseline, 4)
    checks.append(("worker_busy_ns_per_pub@4", cur4["worker_busy_ns_per_pub"],
                   base4["worker_busy_ns_per_pub"]))
    checks.append(("ctl_cpu_ns_per_pub@4", cur4["ctl_cpu_ns_per_pub"],
                   base4["ctl_cpu_ns_per_pub"]))

    cur_stages = current.get("stage_breakdown", {})
    base_stages = baseline.get("stage_breakdown", {})
    for key in ("parse_ns_per_pub", "intern_ns_per_pub", "match_ns_per_pub",
                "merge_ns_per_pub"):
        if key in cur_stages and key in base_stages:
            checks.append((f"stage.{key}", cur_stages[key], base_stages[key]))

    failed = False
    for name, cur, base in checks:
        if base <= 0:
            continue
        ratio = cur / base
        flag = "FAIL" if ratio > 1 + TOLERANCE else "ok"
        if flag == "FAIL":
            failed = True
        print(f"{flag:4} {name}: {cur:.1f} ns vs baseline {base:.1f} ns "
              f"({(ratio - 1) * 100:+.1f}%)")

    if failed:
        print(f"\nperf smoke FAILED: regression beyond "
              f"{TOLERANCE * 100:.0f}% tolerance")
        return 1
    print("\nperf smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
