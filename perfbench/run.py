#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark for one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload kv-usr --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --selftest

The repository's libraries and the benchmark are built with CMake into
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench when that is set). The
benchmark process prints progress lines starting with '#' and, as its last line,
one JSON object: {"correct", "attempted", "failed", "metrics"}. This script checks
that the object names exactly the metrics BENCHMARK.json declares for the mode
(end_to_end for --trace 0, per_layer for --trace 1) and exits non-zero otherwise.
It also exits non-zero when the benchmark does: when a correctness check failed
(code 1, after the result line) or io_uring is unavailable (code 3).
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def quiet(cmd):
    """Runs a build step, showing its output only if it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: build step failed: %s" % " ".join(cmd))


def build(target):
    out = build_dir()
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: no CMakeLists.txt at the repository root; run from a checkout")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        quiet(["cmake", "-S", SOURCE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    quiet(["cmake", "--build", out, "--target", target, "-j", str(min(4, os.cpu_count() or 1))])
    return os.path.join(out, target)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench: benchmark exited with %d" % proc.returncode)

    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench: metrics %s do not match BENCHMARK.json %s" % (got, want))
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
