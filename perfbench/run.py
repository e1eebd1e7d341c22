#!/usr/bin/env python3
"""Builds and runs the SEO simulator benchmark.

    python3 perfbench/run.py --workload grid_skewed --seed 1000 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another
    python3 perfbench/run.py --self-test             # replay fidelity check

Run from the repository root.  The simulator, the `sweep` CLI and the
perfbench program are built from source (Release) under
.bench_build/perfbench; the farm workload's reports, traces and artifact
directories go to .bench_build/work.  The program prints every metric with its unit and, as
the last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics.  When the seed is one recorded in perfbench/NOTES.json,
the report digest must also equal the recorded one.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ["grid_skewed", "fleet_saturated", "grid_farm"]


def build():
    """Configures (once) and builds; exits non-zero with the log on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench", "sweep"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("perfbench: build failed\n")
            sys.exit(1)


def recorded_digests():
    with open(os.path.join(HERE, "NOTES.json")) as f:
        notes = json.load(f)
    return {int(entry["seed"]): entry["report_digests"]
            for entry in notes["seeds"].values()}


def run_one(args, workload):
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--sweep", os.path.join(BUILD, "sweep"), "--work-dir", WORK]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode or 1, None
    for line in lines[:-1]:
        print(line)
    digest = next((line.split()[-1] for line in lines
                   if line.startswith("report_digest:")), None)
    expected = recorded_digests().get(args.seed, {}).get(workload)
    if not args.trace and expected is not None and digest != expected:
        sys.stderr.write("perfbench: CHECK FAILED: %s report digest %s, "
                         "recorded %s for seed %d\n"
                         % (workload, digest, expected, args.seed))
        result["correct"] = False
        result["failed"] = result["attempted"]
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    os.makedirs(WORK, exist_ok=True)
    if args.self_test:
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench"),
                                 "--self-test", "--seed",
                                 str(args.seed)]).returncode)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    code = 0
    for workload in workloads:
        rc, result = run_one(args, workload)
        if result is None:
            sys.stderr.write("perfbench: %s printed no result\n" % workload)
            sys.exit(rc or 1)
        results[workload] = result
        if rc != 0 or not result["correct"]:
            code = 1
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, name): metric
                        for w, r in results.items()
                        for name, metric in r["metrics"].items()},
        }))
    sys.exit(code)


if __name__ == "__main__":
    main()
