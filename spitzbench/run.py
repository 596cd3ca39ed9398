#!/usr/bin/env python3
"""Builds and runs the Spitz benchmark (see README.md next to this file).

    python3 spitzbench/run.py --workload hot-verified-read --seed 1 \
        --seconds 10 --trace 0

builds spitz_bench from the checked-out sources (into .bench_build, or
$CARGO_TARGET_DIR when set), runs one workload in a child process, relays
every `name unit value` line it prints, and ends with one JSON line
holding `correct`, `attempted`, `failed` and the metrics BENCHMARK.json
lists: its end_to_end metrics with --trace 0, its per_layer metrics with
--trace 1.

Without --workload every workload runs, each in its own process, and every
metric is printed as `workload/name unit value`. --smoke runs all
workloads at a tiny size with every check on. --out FILE keeps the
full result objects spitz_bench reports (what compare.py reads).

Exits non-zero when the build fails, a run fails or times out, or any
correctness check fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["hot-verified-read", "durable-update", "cold-verified-scan",
             "cluster-rmw"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"spitzbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds spitz_bench; returns the binary path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no Spitz sources under {ROOT}/src; run from a full checkout")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return os.path.join(build_dir, "spitz_bench")


def run_one(binary, build_dir, workload, args):
    """Runs one workload in a child process; returns its result object."""
    data_dir = os.path.join(build_dir, f"data-{os.getpid()}")
    command = [binary, "--workload", workload, "--data-dir", data_dir,
               "--seed", str(args.seed)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.trace:
        command.append("--trace")
    if args.smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload}: spitz_bench exited {proc.returncode} without a "
             "result")
    return lines[:-1], result


def listed_metrics(result, trace):
    """The metrics BENCHMARK.json promises for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail(f"{result['workload']}: spitz_bench did not report "
             f"{', '.join(missing)}")
    return {n: result["metrics"][n] for n in names}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    workloads = [args.workload] if args.workload else WORKLOADS
    results = []
    for workload in workloads:
        lines, result = run_one(binary, build_dir, workload, args)
        prefix = "" if args.workload else workload + "/"
        for line in lines:
            print(prefix + line)
        for check in result["failed_checks"]:
            print(f"spitzbench: {workload}: FAILED CHECK: {check}",
                  file=sys.stderr)
        results.append(result)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)

    correct = all(r["correct"] for r in results)
    summary = {"correct": correct,
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results)}
    if args.workload and not args.smoke:
        summary["metrics"] = listed_metrics(results[0], args.trace)
    else:
        summary["metrics"] = {f"{r['workload']}/{name}": m
                              for r in results
                              for name, m in r["metrics"].items()}
    print(json.dumps(summary), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
