#!/usr/bin/env python3
"""Run one workload of the NanoMap end-to-end benchmark.

    python3 flowbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Run from the root of a NanoMap checkout. The script

  1. builds flowbench/ (a CMake package that compiles ../src next to the
     benchmark program, Release) into $CARGO_TARGET_DIR/flowbench, or
     .bench_build/flowbench when that variable is unset (one variable
     places the build trees of every benchmark of a checkout);
  2. runs the harness self-tests (flowbench_selftest);
  3. runs the workload and checks its outputs;
  4. prints a facts line ({"facts": {...}}: hardware threads, build type,
     compiler, source revision, load average before and after), then, as
     the last line, {"correct", "attempted", "failed", "metrics"} with the
     end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
     that BENCHMARK.json lists, each with its unit.

Exit status: 0 when every output check passed, 1 when a check failed (the
result line is still printed), 2 when the benchmark could not build or run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("flowbench/run.py: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, **kwargs):
    """Runs cmd with its stdout sent to our stderr; returns the exit code."""
    return subprocess.run(cmd, stdout=sys.stderr, **kwargs).returncode


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", build_dir,
                       "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configuring the benchmark failed")
    jobs = str(os.cpu_count() or 1)
    if run_logged(["cmake", "--build", build_dir, "-j", jobs, "--target",
                   "flowbench", "flowbench_selftest"]) != 0:
        fail("building the benchmark failed")


def source_revision():
    """The git commit when ROOT is a git work tree, else a source hash."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "flowbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    workloads = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "flowbench")
    build(build_dir)
    if run_logged([os.path.join(build_dir, "flowbench_selftest")]) != 0:
        fail("harness self-tests failed")

    workdir = os.path.join(build_dir, "work",
                           "%s-%d-%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    load_before = os.getloadavg()
    try:
        proc = subprocess.run(
            [os.path.join(build_dir, "flowbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the workload ran longer than %d s" % RUN_TIMEOUT_S)
    load_after = os.getloadavg()
    shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode not in (0, 1):
        fail("the workload exited with status %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("the workload printed no result")
    raw = json.loads(lines[-1])

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    every = {m["name"] for m in spec["per_layer"] + spec["end_to_end"]}
    unknown = sorted(set(raw["metrics"]) - every)
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    metrics = {}
    for m in listed:
        value = raw["metrics"].get(m["name"])
        if value is None:
            if not args.trace:
                fail("end-to-end metric %s was not measured" % m["name"])
            value = 0.0  # a layer this workload does not exercise
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    facts = dict(raw["facts"])
    facts.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "revision": source_revision(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
    })
    print(json.dumps({"facts": facts}))
    print(json.dumps({"correct": bool(raw["correct"]),
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]),
                      "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(0 if proc.returncode == 0 and raw["correct"] else 1)


if __name__ == "__main__":
    main()
