#!/usr/bin/env python3
"""Workload benchmark for the Skyloft reproduction (see NOTES.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the measuring program (a cargo
package in this directory, into $CARGO_TARGET_DIR, default .bench_build),
runs the workload, prints every metric with its unit and sample count and
every correctness check, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Exits non-zero if the build fails, a
correctness check fails, or a listed metric is missing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A healthy fan-out finishes in well under a second; a run still going
# after this long is hung and is killed.
FANOUT_WATCHDOG_S = 5.0


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        log("run.py: build failed")
        sys.exit(1)
    return os.path.join(os.path.abspath(target), "release", "skyloft-perfbench")


def last_json(text):
    for line in reversed(text.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    return None


def run_sim(exe, args):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                       timeout=args.seconds + 120)
    report = last_json(p.stdout) if p.returncode == 0 else None
    if report is None:
        return {"checks": [{"name": "program_exited_cleanly", "ok": False,
                            "detail": "exit code %d" % p.returncode}],
                "attempted": 1, "failed": 1, "metrics": []}
    return report


def fanout_child(exe, args):
    """One fan-out in its own process, under the watchdog. Returns its
    report, or a failure record counting the tasks it never finished."""
    cmd = [exe, "--workload", "uthread_fanout", "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
    try:
        out, err = p.communicate(timeout=FANOUT_WATCHDOG_S)
        how = "exit code %d" % p.returncode
    except subprocess.TimeoutExpired:
        p.kill()
        out, err = p.communicate()
        how = "hung: killed after %.0f s" % FANOUT_WATCHDOG_S
    report = last_json(out) if p.returncode == 0 else None
    if report is not None:
        return report
    tasks = done = 0
    for line in out.splitlines():
        word, _, n = line.partition(" ")
        if word == "tasks":
            tasks = int(n)
        elif word == "progress":
            done = int(n)
    panic = next((l for l in err.splitlines() if "panicked" in l), "")
    detail = "%s after %d of %d tasks %s" % (how, done, tasks, panic.strip())
    log("run.py: fan-out run failed: " + detail)
    return {"checks": [{"name": "fanout_run_completed", "ok": False,
                        "detail": detail}],
            "attempted": tasks, "failed": tasks - done, "metrics": []}


def run_fanout(exe, args):
    """Fan-outs back to back for --seconds (at least one); each is
    reported, none retried. Metrics are medians over completed runs."""
    reports = []
    start = time.monotonic()
    while not reports or time.monotonic() - start < args.seconds:
        reports.append(fanout_child(exe, args))
    values = {}
    for r in reports:
        for m in r["metrics"]:
            values.setdefault((m["name"], m["unit"]), []).append(m["value"])
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    metrics = [{"name": n, "unit": u, "value": statistics.median(v),
                "samples": len(v)} for (n, u), v in values.items()]
    if not args.trace:
        metrics.append({"name": "fail_frac", "unit": "ratio",
                        "value": failed / max(attempted, 1),
                        "samples": attempted})
    checks = [c for r in reports for c in r["checks"]]
    return {"checks": checks, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def listed_metrics(workload, trace):
    """BENCHMARK.json's metric list for this mode, or None (report every
    metric) when the workload is not one it lists."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    if workload not in [w["name"] for w in spec["workloads"]]:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    if args.workload == "uthread_fanout":
        report = run_fanout(exe, args)
    else:
        report = run_sim(exe, args)

    print("workload %s  seed %d  seconds %g  trace %d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("%-34s %22s  %-7s %s" % ("metric", "value", "unit", "samples"))
    for m in report["metrics"]:
        value = "n/a" if m["value"] is None else "%.10g" % m["value"]
        print("%-34s %22s  %-7s %d" % (m["name"], value, m["unit"], m["samples"]))
    correct = True
    for c in report["checks"]:
        print("check %-32s %s  %s" %
              (c["name"], "ok" if c["ok"] else "FAILED", c["detail"]))
        correct = correct and c["ok"]

    by_name = {m["name"]: m for m in report["metrics"] if m["value"] is not None}
    names = listed_metrics(args.workload, args.trace)
    if names is None:
        names = list(by_name)
    missing = [n for n in names if n not in by_name]
    if missing:
        print("missing metrics: " + ", ".join(missing))
        correct = False
    result = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": by_name[n]["value"], "unit": by_name[n]["unit"]}
                    for n in names if n in by_name},
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
