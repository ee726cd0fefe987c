#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see NOTES.md).

    python3 e2ebench/run.py --workload serial --seed 1 --seconds 15 --trace 0

Run from the repository root. The benchmark is built from source into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench) in Release mode,
then run once. Its output is passed through; the last line is one JSON
object whose metric names are checked against BENCHMARK.json. Exits
non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "e2ebench",
              "-j", str(os.cpu_count() or 1)]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "e2ebench")
    build(build_dir)
    command = [os.path.join(build_dir, "e2ebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace_out",
                    os.path.join(build_dir, "trace-%s.json" % args.workload)]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        fail("benchmark exited with %d" % run.returncode)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not a JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("unexpected result keys %s" % sorted(result))
    if list(result["metrics"]) != expected_metrics(args.trace):
        fail("metrics differ from BENCHMARK.json")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
