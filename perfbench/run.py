#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

    python3 perfbench/run.py --workload stream_train --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under that root, as does the workload's scratch
directory, which is removed afterwards. Build output goes to stderr; the
benchmark's table and its final JSON line go to stdout. The exit code is
the benchmark's (non-zero when a build step or an output check fails).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("stream_train", "serve_read", "live_durable")


def build(build_dir):
    cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr, stderr=sys.stderr)


def check_names(last_line, trace):
    """The printed metrics must be exactly the ones BENCHMARK.json names."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return True
    with open(spec_path) as f:
        spec = json.load(f)
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    got = list(json.loads(last_line)["metrics"])
    if sorted(want) != sorted(got):
        print("run.py: metrics %s differ from BENCHMARK.json %s" % (got, want),
              file=sys.stderr)
        return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 1

    workdir = os.path.join(build_dir, "run", "%s-%d" % (args.workload,
                                                        os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        proc = subprocess.run(
            [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", workdir],
            stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    return 0 if lines and check_names(lines[-1], args.trace) else 1


if __name__ == "__main__":
    sys.exit(main())
