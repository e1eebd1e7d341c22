#!/usr/bin/env python3
"""Convert google-benchmark JSON output into the repo's BENCH_hotpaths.json.

Usage:
    bench/micro_hotpaths --benchmark_format=json | tools/bench_to_json.py
    tools/bench_to_json.py raw.json [-o BENCH_hotpaths.json]

Keeps one entry per benchmark (name -> real/cpu time) plus enough host
context to interpret the numbers across machines, so successive commits of
BENCH_hotpaths.json form a perf trajectory for the hot paths.  Under
--benchmark_repetitions=N every repetition is an iteration row with the
same name: the entry records the median of the N rows (real_time,
cpu_time; the lower median of iterations) plus "repetitions": N.  A
single repetition is recorded as is, without the count.  The aggregate
rows google-benchmark appends (mean, median, stddev) are skipped.

Scaling rows (a `threads:N` or `workers:N` argument with N > 1) are left
out when the host reports fewer than MIN_SCALING_CPUS CPUs: parallel
speedup cannot show there, so such rows would record a flat curve as if it
were the code's.
"""
import argparse
import json
import re
import sys
from statistics import median, median_low

MIN_SCALING_CPUS = 4
SCALING_ARG = re.compile(r"/(?:threads|workers):(\d+)(?:/|$)")


def is_scaling_row(name: str) -> bool:
    match = SCALING_ARG.search(name)
    return match is not None and int(match.group(1)) > 1


def convert(raw: dict) -> dict:
    context = raw.get("context", {})
    out = {
        "context": {
            "date": context.get("date"),
            "host_name": context.get("host_name"),
            "num_cpus": context.get("num_cpus"),
            "mhz_per_cpu": context.get("mhz_per_cpu"),
            "cpu_scaling_enabled": context.get("cpu_scaling_enabled"),
            "library_build_type": context.get("library_build_type"),
        },
        "benchmarks": {},
    }
    num_cpus = context.get("num_cpus") or 0
    refused = {}
    runs = {}
    for bench in raw.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        if num_cpus < MIN_SCALING_CPUS and is_scaling_row(bench["name"]):
            refused[bench["name"]] = None
            continue
        runs.setdefault(bench["name"], []).append(bench)
    for name, reps in runs.items():
        entry = {
            "real_time": median(r.get("real_time") for r in reps),
            "cpu_time": median(r.get("cpu_time") for r in reps),
            "time_unit": reps[0].get("time_unit"),
            "iterations": median_low(r.get("iterations") for r in reps),
        }
        if len(reps) > 1:
            entry["repetitions"] = len(reps)
        out["benchmarks"][name] = entry
    if refused:
        print(f"note: host has {num_cpus} CPU(s) < {MIN_SCALING_CPUS}; "
              f"refusing {len(refused)} scaling row(s): {', '.join(refused)}",
              file=sys.stderr)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("input", nargs="?", default="-",
                        help="google-benchmark JSON file (default: stdin)")
    parser.add_argument("-o", "--output", default="BENCH_hotpaths.json",
                        help="output path (default: BENCH_hotpaths.json)")
    args = parser.parse_args()

    if args.input == "-":
        raw = json.load(sys.stdin)
    else:
        with open(args.input) as f:
            raw = json.load(f)

    result = convert(raw)
    with open(args.output, "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(result['benchmarks'])} benchmarks to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
