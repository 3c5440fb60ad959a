#!/usr/bin/env python3
"""Build psdbench from source and run one workload.

    python3 psdbench/run.py --workload serve_nominal --seed 1 --seconds 10 --trace 0

Run from the root of a psdserv checkout.  The first call configures and
builds the psd library and the benchmark into .bench_build/psdbench; later
calls only rebuild what changed.  The benchmark's stdout is passed through
after its last line, the JSON result, was checked against BENCHMARK.json:
the metric set of the mode, every unit, and the result's keys.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "psdbench")
BUILD = os.path.join(ROOT, ".bench_build", "psdbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD, "psdbench")
WORKLOADS = ("serve_nominal", "cluster_shed", "sweep_paper")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"psdbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no psdserv sources next to psdbench; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                         f"extra {extra}, unit mismatch {units}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        raise ValueError("failed must be a whole number >= 0")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be in [1, 60]")
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout)
        fail(f"benchmark exited with code {done.returncode} and no result")
    try:
        validate(lines[-1], args.trace == 1)
    except (ValueError, KeyError, TypeError) as e:
        sys.stderr.write(done.stdout)
        fail(f"malformed result: {e}")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
