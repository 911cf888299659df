#!/usr/bin/env python3
"""Builds and runs the flowscript benchmark (see perfbench/README.md).

One workload, one process, one JSON result as the last line of stdout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

All four workloads, one process each, as a table of the end-to-end
metrics with each run's operations attempted and failed:

    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]

Run from the root of a checkout. The program is built from source with
cargo (offline) into $CARGO_TARGET_DIR, `.bench_build` by default; run
results are written under `.bench_out/`.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["diamond_wave", "paper_mix", "elastic", "corpus"]
# A run must end within 180 s; the benchmark itself stays well below.
RUN_TIMEOUT_S = 175


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    built = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        return None
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", ".bench_out"]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def result_of(stdout):
    """The JSON result on the last line of a run's stdout."""
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def parse_args(argv):
    args = {"--workload": None, "--seed": "1", "--seconds": "10", "--trace": "0"}
    it = iter(argv)
    for flag in it:
        if flag not in args:
            raise SystemExit(f"unknown flag {flag}\n{__doc__}")
        value = next(it, None)
        if value is None:
            raise SystemExit(f"{flag} needs a value")
        args[flag] = value
    if args["--workload"] is None:
        raise SystemExit(f"--workload is required\n{__doc__}")
    return args


def run_all(binary, seed, seconds):
    """Every workload at --trace 0, printed as one table."""
    ok = True
    for workload in WORKLOADS:
        code, stdout = run_one(binary, workload, seed, seconds, 0)
        result = result_of(stdout) if code == 0 else None
        if result is None:
            print(f"{workload}: run failed (exit {code})")
            ok = False
            continue
        ok = ok and result["correct"] and result["failed"] == 0
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<24} {metric['value']:>16.4f} {metric['unit']}")
    return 0 if ok else 1


def main():
    args = parse_args(sys.argv[1:])
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args["--workload"] == "all":
        return run_all(binary, args["--seed"], args["--seconds"])
    code, stdout = run_one(binary, args["--workload"], args["--seed"], args["--seconds"],
                           args["--trace"])
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
