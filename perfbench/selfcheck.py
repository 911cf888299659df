#!/usr/bin/env python3
"""Steadiness self-check of the flowscript benchmark.

    python3 perfbench/selfcheck.py [--runs N] [--seconds S] [--workloads a,b,...]

Runs two sets of N runs (default 10) of every workload from one build,
each run in its own process at --trace 0: set A on seeds 1..N, set B on
seeds 101..100+N. Every end-to-end metric of BENCHMARK.json must, on
every workload:

  * spread no more than its bound in each set, the spread being the
    distance between the first and third quartiles (Python's
    statistics.quantiles(values, n=4)) over the median (setup_s is
    exempt: only its median is compared);
  * have set B's median no worse than set A's by more than its bound;

and the share of failed operations must be the same in both sets. Then,
per workload, one seed is run twice more at --trace 0 and twice at
--trace 1 (one second each) to check that every deterministic figure
(counts, bytes, virtual-clock times, peak heap) repeats exactly, the
allocation counts to within 1e-4.

Every figure that does not hold is named; the exit code is 0 only if all
hold. The full table is written to .bench_out/selfcheck.json.
"""

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build and run helpers)

SET_B_SEED = 101


def parse_args(argv):
    opts = {"--runs": "10", "--seconds": None, "--workloads": ",".join(run.WORKLOADS)}
    it = iter(argv)
    for flag in it:
        if flag not in opts:
            raise SystemExit(f"unknown flag {flag}\n{__doc__}")
        opts[flag] = next(it, None)
    return opts


def one(binary, workload, seed, seconds, trace):
    code, stdout = run.run_one(binary, workload, seed, seconds, trace)
    result = run.result_of(stdout) if code == 0 else None
    if result is None:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: run failed (exit {code})")
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(metric, before, after):
    """How much `after` is worse than `before`, as a share of `before`."""
    if before == 0:
        return 0.0 if after == before else float("inf")
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def deterministic(name, unit):
    return (unit in ("count", "bytes") or name.startswith("sched.")
            or name.startswith("virt_") or name == "peak_heap_mb")


def repeats(name, first, again):
    """Whether a deterministic figure repeated. Allocation counts may
    differ by a few allocations in millions on the file-WAL workload (see
    README.md), so they get a relative tolerance of 1e-4."""
    if name.startswith("alloc."):
        return abs(first - again) <= 1e-4 * abs(first)
    return first == again


def main():
    opts = parse_args(sys.argv[1:])
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    runs = int(opts["--runs"])
    seconds = opts["--seconds"] or str(bench["run_seconds"])
    workloads = opts["--workloads"].split(",")
    binary = run.build()
    if binary is None:
        raise SystemExit("perfbench: build failed")

    problems = []
    table = {}
    for workload in workloads:
        sets = []
        for first_seed in (1, SET_B_SEED):
            results = [one(binary, workload, seed, seconds, 0)
                       for seed in range(first_seed, first_seed + runs)]
            sets.append(results)
            bad = [r for r in results if not r["correct"]]
            if bad:
                problems.append(f"{workload}: {len(bad)} runs failed their output checks")
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        if shares[0] != shares[1]:
            problems.append(f"{workload}: failed share {shares[0]} vs {shares[1]}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in s] for s in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            shift = worse_by(metric, medians[0], medians[1])
            row = {"medians": medians, "spreads": spreads, "worse_by": shift, "bound": bound}
            table[f"{workload}/{name}"] = row
            status = "ok"
            if name != "setup_s" and max(spreads) > bound:
                problems.append(f"{workload}/{name}: spread {max(spreads):.4f} > bound {bound}")
                status = "SPREAD"
            if shift > bound:
                problems.append(f"{workload}/{name}: set B worse by {shift:.4f} > bound {bound}")
                status = "SHIFT"
            print(f"{workload:<13} {name:<22} median A {medians[0]:>14.4f} B {medians[1]:>14.4f}"
                  f"  spread {spreads[0]:.4f}/{spreads[1]:.4f}  worse_by {shift:+.4f}"
                  f"  bound {bound}  {status}", flush=True)

        for trace in (0, 1):
            twice = [one(binary, workload, 1, 1, trace) for _ in range(2)]
            for name, metric in twice[0]["metrics"].items():
                if not deterministic(name, metric["unit"]):
                    continue
                again = twice[1]["metrics"][name]["value"]
                if not repeats(name, metric["value"], again):
                    problems.append(f"{workload}/{name}: {metric['value']} then {again} "
                                    f"on the same seed")
        print(f"{workload:<13} same-seed repeats checked", flush=True)

    os.makedirs(".bench_out", exist_ok=True)
    with open(os.path.join(".bench_out", "selfcheck.json"), "w") as f:
        json.dump({"runs": runs, "seconds": seconds, "table": table, "problems": problems},
                  f, indent=1)
    for problem in problems:
        print(f"DOES NOT HOLD: {problem}")
    print("all figures hold" if not problems else f"{len(problems)} figures do not hold")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
