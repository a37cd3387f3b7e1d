#!/usr/bin/env python3
"""The T_Chimera repo benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload tql_read|tql_write|mixed|all \
      --seed N --seconds S --trace 0|1

The first run configures and builds the engine library (../src) and the
benchmark binary (this directory) into .bench_build/perfbench; later runs
reuse that build. Each run prints every metric it measured by name with
its unit, the run metadata, and then, as the last line, one JSON object
with the keys correct, attempted, failed and metrics. The metrics there
are BENCHMARK.json's end_to_end list with --trace 0 and its per_layer
list with --trace 1 (a layer a workload never enters reads 0).
`--workload all` runs the three workloads one after another, each in its
own process, and prefixes every metric in the last line with the
workload name.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["tql_read", "tql_write", "mixed"]
ROOT = os.getcwd()
SOURCE_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "runs")
BINARY = os.path.join(BUILD_DIR, "tchimera_perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no engine sources (src/CMakeLists.txt) to build")
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
                  "--target", "tchimera_perfbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return os.path.isfile(BINARY)


def git_sha():
    """The checkout's commit, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload, args):
    """Runs the binary once; returns its result object, or None."""
    command = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR, "--git-sha", git_sha()]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("perfbench: %s exited with %d" % (workload, done.returncode))
        return None
    return json.loads(lines[-1])


def select_metrics(result, wanted, trace):
    """The metrics BENCHMARK.json names for this mode, or None if one is
    missing from an untraced run (every workload measures all of them)."""
    out = {}
    for metric in wanted:
        name = metric["name"]
        measured = result["metrics"].get(name)
        if measured is None:
            if not trace:
                log("perfbench: %s did not report %s" % (result["workload"], name))
                return None
            measured = {"value": 0, "unit": metric["unit"]}
        out[name] = {"value": measured["value"], "unit": measured["unit"]}
    return out


def print_table(result):
    print("== %s: correct=%s attempted=%d failed=%d" % (
        result["workload"], str(result["correct"]).lower(),
        result["attempted"], result["failed"]))
    for name, metric in result["metrics"].items():
        print("  %-34s %16.4f %s" % (name, metric["value"], metric["unit"]))
    print("  meta " + json.dumps(result["meta"], sort_keys=True))
    for failure in result["check_failures"]:
        print("  check failed: " + failure)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log("perfbench: cannot read BENCHMARK.json: %s" % e)
        return 1
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if not build():
        return 1

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        result = run_workload(workload, args)
        if result is None:
            return 1
        print_table(result)
        metrics = select_metrics(result, wanted, args.trace)
        if metrics is None:
            return 1
        final["correct"] = final["correct"] and bool(result["correct"])
        final["attempted"] += int(result["attempted"])
        final["failed"] += int(result["failed"])
        prefix = workload + "." if args.workload == "all" else ""
        for name, metric in metrics.items():
            final["metrics"][prefix + name] = metric
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
