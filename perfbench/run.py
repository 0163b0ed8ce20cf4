#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload paper-traces --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all               # every workload, one process each
    python3 perfbench/run.py --all --trace 1     # per-layer split of every workload
    python3 perfbench/run.py --selftest          # the benchmark's own tests
    python3 perfbench/run.py --write-reference   # re-record perfbench/reference.txt

Run from the repository root. The build goes to .bench_build/ (CMake,
Release). In single-workload mode the last line of standard output is the
JSON result; the line before it stamps the host context (git sha or source
digest, nproc, load average at start and end, build type). See README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
DATA = os.path.join(HERE, "data")
REFERENCE = os.path.join(HERE, "reference.txt")
WORKLOADS = ["paper-traces", "swf-replay", "large-cluster", "faults-malleable"]
DEFAULT_SEED = 1
BUILD_TYPE = "Release"


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
        if result.returncode != 0:
            raise SystemExit("build failed: " + " ".join(step))


def cached_build_type():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def source_digest():
    """SHA-1 over the simulator sources, for checkouts that are not git repos."""
    digest = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for directory, subdirs, files in os.walk(src):
        subdirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def context(load_start, load_end):
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    stamp = {
        "git_sha": git_sha(),
        "source_sha1": source_digest(),
        "nproc": nproc,
        "loadavg_start": list(load_start),
        "loadavg_end": list(load_end),
        "build_type": cached_build_type(),
    }
    warnings = []
    if stamp["build_type"] != BUILD_TYPE:
        warnings.append("build type is %s, not %s" % (stamp["build_type"], BUILD_TYPE))
    for when, load in (("start", load_start), ("end", load_end)):
        if load[0] > nproc:
            warnings.append("load average %.2f at %s exceeds nproc %d" % (load[0], when, nproc))
    stamp["warnings"] = warnings
    for warning in warnings:
        log("WARNING: " + warning)
    return stamp


def run_binary(args, timeout=175):
    """Runs perfbench; returns its stdout lines, or exits on failure."""
    command = [BINARY, "--data-dir", DATA, "--reference", REFERENCE] + args
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if result.returncode != 0:
        raise SystemExit("perfbench exited with %d" % result.returncode)
    return result.stdout.splitlines()


def run_workload(workload, seed, seconds, trace):
    """One measured run: context line, then the JSON result as the last line."""
    load_start = os.getloadavg()
    lines = run_binary(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", str(trace)])
    stamp = context(load_start, os.getloadavg())
    result = json.loads(lines[-1])
    return lines[:-1], stamp, result


def run_all(seed, seconds, trace):
    """Every workload in its own process; prints each metric by name and unit."""
    ok = True
    for workload in WORKLOADS:
        notes, stamp, result = run_workload(workload, seed, seconds, trace)
        for note in notes:
            print(note)
        fail_rate = result["failed"] / result["attempted"]
        print("== %s (seed %d, %s)" % (workload, seed, "traced" if trace else "untraced"))
        for name, metric in result["metrics"].items():
            print("  %-38s %-22.10g %s" % (name, metric["value"], metric["unit"]))
        print("  %-38s %-22.10g %s" % ("fail_rate", fail_rate, "ratio"))
        print("  context " + json.dumps(stamp))
        ok = ok and result["correct"]
    return 0 if ok else 1


def selftest():
    failures = 0
    for workload in WORKLOADS:
        for line in run_binary(["--selftest", "--workload", workload], timeout=600):
            print(line)
            failures += line.startswith("FAIL")
    print("selftest: %s" % ("all passed" if failures == 0 else "%d failed" % failures))
    return 0 if failures == 0 else 1


def write_reference():
    lines = [
        "# Report aggregates of every benchmark cell at the default seed (%d), written by"
        % DEFAULT_SEED,
        "# `python3 perfbench/run.py --write-reference`. Columns: workload, cell, makespan,",
        "# t_exe, t_cpu, t_page, t_que, t_mig, avg_slowdown. Checked to 1e-9 relative.",
    ]
    for workload in WORKLOADS:
        lines += run_binary(["--emit-reference", "--workload", workload])
    with open(REFERENCE, "w") as out:
        out.write("\n".join(lines) + "\n")
    print("wrote " + os.path.relpath(REFERENCE, ROOT))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=58)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true", help="run every workload")
    mode.add_argument("--selftest", action="store_true", help="run the benchmark's own tests")
    mode.add_argument("--write-reference", action="store_true",
                      help="re-record the default-seed reference aggregates")
    args = parser.parse_args()
    if not (args.workload or args.all or args.selftest or args.write_reference):
        parser.error("give --workload NAME, --all, --selftest or --write-reference")

    build()
    if args.selftest:
        return selftest()
    if args.write_reference:
        return write_reference()
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    notes, stamp, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for note in notes:
        print(note)
    print(json.dumps({"context": stamp}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
