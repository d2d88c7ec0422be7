#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs one workload, checks that the result line
names exactly the metrics `BENCHMARK.json` lists for the mode, and echoes
the report with the result line last. Exits non-zero, without a result
line, when the build, the run or a check fails.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_args(argv):
    args = {}
    it = iter(argv)
    for flag in it:
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            fail(f"unknown flag {flag}")
        value = next(it, None)
        if value is None:
            fail(f"{flag} needs a value")
        args[flag[2:]] = value
    for key in ("workload", "seed", "seconds", "trace"):
        if key not in args:
            fail(f"missing --{key}")
    return args


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return spec


def build(target_dir):
    manifest = os.path.join(HERE, "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    # Build output goes to stderr so that stdout stays the report.
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    if proc.returncode != 0:
        fail("build failed")
    binary = os.path.join(target_dir, "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"build left no binary at {binary}")
    return binary


def check_result(line, spec, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail(f"last line is not JSON: {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    if list(metrics) != [m["name"] for m in expected]:
        fail(f"metrics {list(metrics)} do not match BENCHMARK.json")
    for m in expected:
        got = metrics[m["name"]]
        if got.get("unit") != m["unit"]:
            fail(f"{m['name']}: unit {got.get('unit')} != {m['unit']}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{m['name']}: value {value!r}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"attempted {result['attempted']!r}")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        fail(f"failed {result['failed']!r}")
    return result


def main():
    args = parse_args(sys.argv[1:])
    if args["trace"] not in ("0", "1"):
        fail(f"bad --trace {args['trace']}")
    spec = load_spec()
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(target_dir)
    cmd = [
        binary,
        "--workload", args["workload"],
        "--seed", args["seed"],
        "--seconds", args["seconds"],
        "--trace", args["trace"],
        "--out-dir", os.path.join(target_dir, "perfbench-out"),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        fail(f"run exited with {proc.returncode}")
    result = check_result(lines[-1], spec, args["trace"] == "1")
    if result["correct"] is not True:
        fail("output check failed")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
