#!/usr/bin/env python3
"""Benchmark regression gate: compare a fresh BENCH_hotpaths.json against
the committed baseline and fail on real_time regressions.

Usage:
    tools/bench_compare.py fresh.json baseline.json \
        [--max-regression 0.25] [--names BM_A,BM_B,...]

Compares the named hot-path benchmarks (or a built-in default set) and
exits 1 when any of them regressed by more than --max-regression
(fractional, e.g. 0.25 = +25% real_time).  Benchmarks missing from either
file fail the gate too — a silently dropped benchmark is how regressions
hide.  Improvements and small deltas are reported but never fail.

Absolute timings only compare meaningfully across machines of the same
class.  The class fingerprint is (num_cpus, mhz_per_cpu) — deliberately
NOT host_name, which is ephemeral on CI runners and would mark every run
cross-host.  When the fingerprints disagree, the gate widens the threshold
by --cross-host-factor (default 4x) and says so: different hardware can
still trip it on a catastrophic regression, but ordinary machine variance
cannot turn the build red.  Refreshing the committed baseline from a CI
artifact (same runner class) restores the tight gate.

Both files are in the repo's BENCH_hotpaths.json shape (see
tools/bench_to_json.py): {"benchmarks": {name: {real_time, time_unit}}}.

Scaling gate: besides absolute regressions, the gate asserts that episode
throughput actually scales — the threads:8 variants of the threaded
benchmarks must run in at most a fixed fraction of their threads:1 real
time (default: 0.6x for BM_SweepThreads, the sweep engine's in-process
grid runners; 0.6x for BM_FleetThreads, one fleet point's episode runners
and per-round cluster replays; 0.75x for BM_DeadlineTableBuild), and the
distributed sweep's workers:4 arm must run in at most 0.6x of workers:1
(BM_SweepWorkers, which carries a /real_time name suffix from
UseRealTime).  The ratio is taken WITHIN the fresh file, so it is
machine-independent; it is only meaningful on a multicore host, so the
assertion is skipped (with a note) when the fresh run's machine has fewer
than --min-scaling-cpus CPUs (default 4 — the committed baseline from a
1-CPU container records flat ratios, CI's 4-vCPU runners enforce real
ones).  Disable explicitly with --no-scaling.
"""
import argparse
import json
import sys

# The stable per-tick hot paths (threads-suffixed scaling entries are
# machine-shaped, so the gate pins the serial ones).
DEFAULT_NAMES = [
    "BM_ArtifactPayloadParseBinary",
    "BM_BarrierValue",
    "BM_BicycleStepRk4",
    "BM_DeadlineTableCache",
    "BM_DeadlineTableProbe",
    "BM_FullEpisode",
    "BM_LipschitzInterval",
    "BM_SafetyFilterEngaged",
    "BM_SafetyFilterEngagedRoad",
    "BM_SafetyFilterPass",
    "BM_SafetyFilterPassNear",
    "BM_TraceStreamRead",
    "BM_TraceStreamWrite",
]

# Parallel-vs-serial speedup assertions checked within the fresh file:
# (parallel benchmark, serial benchmark, max allowed real_time ratio).
DEFAULT_SCALING = [
    ("BM_SweepThreads/threads:8", "BM_SweepThreads/threads:1", 0.60),
    ("BM_FleetThreads/threads:8", "BM_FleetThreads/threads:1", 0.60),
    ("BM_DeadlineTableBuild/threads:8", "BM_DeadlineTableBuild/threads:1",
     0.75),
    ("BM_SweepWorkers/workers:4/real_time",
     "BM_SweepWorkers/workers:1/real_time", 0.60),
]

UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def real_time_ns(entry: dict) -> float:
    unit = entry.get("time_unit", "ns")
    if unit not in UNIT_TO_NS:
        raise ValueError(f"unknown time_unit {unit!r}")
    return float(entry["real_time"]) * UNIT_TO_NS[unit]


def same_machine_class(fresh_ctx: dict, baseline_ctx: dict) -> bool:
    keys = ("num_cpus", "mhz_per_cpu")
    return all(fresh_ctx.get(k) == baseline_ctx.get(k) for k in keys)


def check_scaling(args, fresh: dict, fresh_ctx: dict) -> list:
    """Asserts parallel/serial real_time ratios within the fresh file."""
    if args.no_scaling or not args.scaling:
        return []
    num_cpus = fresh_ctx.get("num_cpus") or 0
    if num_cpus < args.min_scaling_cpus:
        print(f"note: fresh machine has {num_cpus} CPU(s) < "
              f"{args.min_scaling_cpus}; parallel speedup is not observable "
              f"here — skipping the scaling assertions (CI's multicore "
              f"runners enforce them).")
        return []
    failures = []
    print("\nscaling (within fresh file):")
    for spec in args.scaling.split(";"):
        parts = spec.split("|")
        if len(parts) != 3:
            failures.append(f"bad --scaling spec {spec!r} "
                            f"(want parallel|serial|max_ratio)")
            continue
        par_name, ser_name = parts[0], parts[1]
        max_ratio = float(parts[2])
        missing = [n for n in (par_name, ser_name) if n not in fresh]
        if missing:
            failures.append(f"scaling {par_name}: missing "
                            f"{', '.join(missing)} from fresh results")
            continue
        par_ns = real_time_ns(fresh[par_name])
        ser_ns = real_time_ns(fresh[ser_name])
        ratio = par_ns / ser_ns
        flag = ""
        if ratio > max_ratio:
            failures.append(f"{par_name}: {ratio:.2f}x of {ser_name} "
                            f"(limit {max_ratio:.2f}x — parallel speedup "
                            f"regressed)")
            flag = "  << NO SCALING"
        print(f"  {par_name} / {ser_name} = {ratio:.2f}x "
              f"(limit {max_ratio:.2f}x){flag}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="freshly produced BENCH_hotpaths.json")
    parser.add_argument("baseline", help="committed baseline to compare against")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="fail when real_time grows by more than this "
                             "fraction (default 0.25 = +25%%)")
    parser.add_argument("--cross-host-factor", type=float, default=4.0,
                        help="multiply the threshold by this when the two "
                             "files were produced on different machines "
                             "(default 4.0)")
    parser.add_argument("--names", default=",".join(DEFAULT_NAMES),
                        help="comma-separated benchmark names to gate")
    parser.add_argument("--scaling",
                        default=";".join(f"{p}|{s}|{r}"
                                         for p, s, r in DEFAULT_SCALING),
                        help="semicolon-separated parallel|serial|max_ratio "
                             "assertions checked within the fresh file")
    parser.add_argument("--no-scaling", action="store_true",
                        help="skip the scaling assertions entirely")
    parser.add_argument("--min-scaling-cpus", type=int, default=4,
                        help="skip scaling assertions when the fresh "
                             "machine has fewer CPUs than this (default 4)")
    args = parser.parse_args()

    with open(args.fresh) as f:
        fresh_doc = json.load(f)
    with open(args.baseline) as f:
        baseline_doc = json.load(f)
    fresh = fresh_doc["benchmarks"]
    baseline = baseline_doc["benchmarks"]

    limit = args.max_regression
    base_ctx = baseline_doc.get("context", {})
    fresh_ctx = fresh_doc.get("context", {})
    if not same_machine_class(fresh_ctx, base_ctx):
        limit = args.max_regression * args.cross_host_factor

        def fingerprint(ctx):
            return f"{ctx.get('num_cpus')}cpu@{ctx.get('mhz_per_cpu')}MHz"

        print(f"note: baseline machine class ({fingerprint(base_ctx)}) != "
              f"fresh ({fingerprint(fresh_ctx)}); absolute timings are not "
              f"comparable at the tight threshold — gating at +{limit:.0%} "
              f"instead of +{args.max_regression:.0%}. Refresh the baseline "
              f"from a CI artifact (same runner class) to restore the tight "
              f"gate.")

    names = [n for n in args.names.split(",") if n]
    failures = []
    width = max((len(n) for n in names), default=9)
    if names:
        print(f"{'benchmark':<{width}}  {'baseline':>12}  {'fresh':>12}  "
              f"delta")
    for name in names:
        if name not in baseline:
            failures.append(f"{name}: missing from baseline")
            print(f"{name:<{width}}  {'MISSING':>12}")
            continue
        if name not in fresh:
            failures.append(f"{name}: missing from fresh results")
            print(f"{name:<{width}}  {'':>12}  {'MISSING':>12}")
            continue
        base_ns = real_time_ns(baseline[name])
        fresh_ns = real_time_ns(fresh[name])
        delta = fresh_ns / base_ns - 1.0
        flag = ""
        if delta > limit:
            failures.append(f"{name}: {delta:+.1%} real_time "
                            f"(limit +{limit:.0%})")
            flag = "  << REGRESSION"
        print(f"{name:<{width}}  {base_ns:>10.1f}ns  {fresh_ns:>10.1f}ns  "
              f"{delta:+7.1%}{flag}")

    failures += check_scaling(args, fresh, fresh_ctx)

    if failures:
        print(f"\nbench gate FAILED ({len(failures)}):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nbench gate passed: {len(names)} hot paths within "
          f"+{limit:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
