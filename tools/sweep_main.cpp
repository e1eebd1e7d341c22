// `sweep` — the scenario-library grid runner.
//
//   sweep --list
//   sweep --scenarios paper_default,dense_field
//         --axis channel_mbps=5,10,20 --axis deadline_cap=2,4
//         --episodes 25 --threads 0 --format csv --output sweep.csv
//   sweep --smoke        # CI-sized 2x2 grid over 4 scenarios
//   sweep --smoke --rounds 1 --vehicles-output vehicles.csv
//                        # CI-sized fleet grid: 8 points of 3 vehicles
//
// Every grid point = library scenario + axis overrides, run through the
// full experiment harness — or, with --rounds, through the fleet
// experiment (vehicles sharing one edge cluster).  Output (csv|json) is
// identical for every --threads and --workers value; see
// tests/test_sweep.cpp and tests/test_sweep_shard.cpp.
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/artifact_store.hpp"
#include "safety/table_cache.hpp"
#include "sim/scenario_io.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_report.hpp"
#include "sim/sweep_shard.hpp"
#include "sim/trace.hpp"
#include "util/expect.hpp"
#include "util/numeric.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace seo;

/// Splits on `sep`, keeping empty fields ("a,,b" -> {"a", "", "b"}).
std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string current;
  for (const char c : text) {
    if (c == sep) {
      parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  parts.push_back(current);
  return parts;
}

/// Artifact-store settings accumulated while parsing: process state,
/// applied once after parsing, never per scenario.
struct CacheCliOptions {
  std::string dir;
  double budget_mb = 0.0;
  double max_age_h = 0.0;
  bool gc = false;
};

/// Folds one `--cache SPEC` value into `state`; exits with code 2 on a
/// malformed setting.  Whether a scenario reuses tables at all is the
/// `table_cache` key (`--set table_cache=false`), not a store setting.
void parse_cache_spec(const std::string& spec, CacheCliOptions& state) {
  for (const std::string& item : split(spec, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    const std::string name =
        eq == std::string::npos ? item : item.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : item.substr(eq + 1);
    const auto bare = [&] {
      if (!value.empty()) {
        std::cerr << "--cache: '" << name << "' does not take a value\n";
        std::exit(2);
      }
    };
    // The whole value must form one finite number >= 0 (util/numeric,
    // locale-independent): "5x", "nan", "inf" and "" are all errors.
    const auto numeric = [&] {
      double v = 0.0;
      if (!parse_finite_double(value, v) || v < 0.0) {
        std::cerr << "--cache " << name << " expects a finite number >= 0, "
                  << "got '" << value << "'\n";
        std::exit(2);
      }
      return v;
    };
    // A size in MB must come to a byte count that fits in 64 bits: beyond
    // that, disk_options's float-to-integer conversion is undefined.
    const auto megabytes = [&] {
      const double mb = numeric();
      if (!(mb * 1024.0 * 1024.0 < 0x1p64)) {
        std::cerr << "--cache " << name << " expects a size below 2^64 "
                  << "bytes, got '" << value << "'\n";
        std::exit(2);
      }
      return mb;
    };
    if (name == "gc") {
      bare();
      state.gc = true;
    } else if (name == "dir") {
      if (value.empty()) {
        std::cerr << "--cache: 'dir' expects a directory\n";
        std::exit(2);
      }
      state.dir = value;
    } else if (name == "budget-mb") {
      state.budget_mb = megabytes();
    } else if (name == "max-age-h") {
      state.max_age_h = numeric();
    } else {
      std::cerr << "--cache: unknown setting '" << name
                << "' (expected dir=, budget-mb=, max-age-h=, gc)\n";
      std::exit(2);
    }
  }
}

/// The disk tier the parsed `--cache` settings describe (budget-mb was
/// range-checked by parse_cache_spec, so its byte count fits).  A huge age
/// cap (max-age-h=1e308) comes to +inf seconds, which the GC reads as
/// "keep everything"; it stays a double all the way down.
ArtifactDiskOptions disk_options(const CacheCliOptions& state) {
  ArtifactDiskOptions disk;
  disk.dir = state.dir;
  disk.max_bytes = state.budget_mb > 0.0
                       ? static_cast<std::uint64_t>(state.budget_mb * 1024.0 *
                                                    1024.0)
                       : 0;
  disk.max_age_s = state.max_age_h > 0.0 ? state.max_age_h * 3600.0 : 0.0;
  return disk;
}

/// Startup GC requested via `--cache gc`: one LRU sweep over the artifact
/// dir with the configured caps, reported to stderr.
void run_requested_gc(const CacheCliOptions& state) {
  if (!state.gc) return;
  if (state.dir.empty()) {
    std::cerr << "--cache gc requires --cache dir=DIR\n";
    std::exit(2);
  }
  const ArtifactDiskOptions disk = disk_options(state);
  const ArtifactGcResult r =
      artifact_store_gc(disk.dir, disk.max_bytes, disk.max_age_s);
  std::cerr << "artifact gc: scanned " << r.scanned << " files, removed "
            << r.removed << ", " << r.bytes_before << " -> " << r.bytes_after
            << " bytes\n";
}

/// The one greppable stats line (CI assertions and perfbench sed these
/// exact words): the process-wide table store's counters plus `workers`
/// (the --workers parent's farm-wide sum from the done frames; zero in
/// process).
void print_artifact_store_stats(std::ostream& out,
                                const ArtifactStoreStats& workers) {
  ArtifactStoreStats s = DeadlineTableCache::global().stats();
  s += workers;
  out << "artifact store [" << LipschitzTableTraits::kind() << "]: " << s.hits
      << " hits, " << s.misses << " misses, " << s.builds << " builds, "
      << s.waits << " waits, " << s.lock_waits << " lock waits, " << s.bytes
      << " bytes, " << s.disk_loads << " disk loads, " << s.disk_stores
      << " disk stores, " << s.disk_failures << " disk failures\n";
}

/// One greppable utilization line for the global thread pool, matching the
/// artifact-store stats format (`sweep --stats`).  `window_s` is the wall
/// time the run took; busy % is task time over worker capacity in that
/// window.
void print_thread_pool_stats(std::ostream& out, double window_s) {
  const ThreadPool& pool = ThreadPool::global();
  const ThreadPoolStats s = pool.stats();
  const double busy_pct = 100.0 * s.busy_fraction(window_s, pool.size());
  out << "thread pool: " << pool.size() << " workers, " << s.submitted
      << " tasks, " << s.inline_runs << " inline, " << s.max_queue_depth
      << " max depth, " << static_cast<std::uint64_t>(busy_pct + 0.5)
      << "% busy\n";
}

int usage(int code) {
  std::ostream& out = code == 0 ? std::cout : std::cerr;
  out << "usage: sweep [options]\n"
         "  --list                 print the scenario library and exit\n"
         "  --keys                 print every sweepable key and exit\n"
         "  --scenarios a,b,...    library scenarios to sweep "
         "(default: paper_default)\n"
         "  --axis key=v1,v2,...   add a grid axis over a scenario_io key\n"
         "                         (repeatable; cartesian by default)\n"
         "  --paired               zip the axes instead of crossing them\n"
         "  --set key=value        base override applied to every point "
         "(repeatable)\n"
         "  --episodes N           successful episodes per point "
         "(default 25)\n"
         "  --max-attempts N       attempt budget per point (default 250)\n"
         "  --seed N               base seed (default 1000)\n"
         "  --allow-failures       aggregate failed episodes too\n"
         "  --rounds N             fleet points: run each grid point as a "
         "fleet experiment\n"
         "                         of N rounds instead (excludes --episodes,\n"
         "                         --max-attempts and --allow-failures)\n"
         "  --threads N            grid points in flight, or with --rounds "
         "each fleet\n"
         "                         point's episodes in flight (1 serial, 0 "
         "all cores;\n"
         "                         default 0)\n"
         "  --workers N            run the grid on N worker processes, "
         "each pulling the\n"
         "                         next point as it frees up (default 1\n"
         "                         in-process, 0 = all cores; each worker "
         "honors --threads).\n"
         "                         Report and --trace-out bytes are "
         "identical to --workers 1\n"
         "  --stats                print a thread-pool utilization line "
         "(under --workers:\n"
         "                         the points each worker pulled) to "
         "stderr\n"
         "  --cache SPEC           artifact-store settings, comma-separated:\n"
         "                           dir=DIR       persist artifacts in DIR\n"
         "                           budget-mb=N   artifact-dir size cap [MB]; "
         "LRU GC\n"
         "                                         sweeps after stores\n"
         "                           max-age-h=N   artifact last-use age cap "
         "[hours]\n"
         "                           gc            LRU GC sweep over the dir "
         "before the run\n"
         "                         e.g. --cache dir=artifacts,budget-mb=512,gc\n"
         "  --format csv|json      report format (default csv)\n"
         "  --output PATH          write the report to PATH (default "
         "stdout)\n"
         "  --trace-out FILE|-     stream every episode as a binary "
         "seo-trace\n"
         "                         ('-' = stdout and then requires --output,\n"
         "                         so the report never interleaves; pipe into\n"
         "                         trace-export / trace-deadline-histogram /\n"
         "                         trace-energy-report / trace-safety-audit)\n"
         "  --vehicles-output PATH with --rounds: also write per-vehicle "
         "summaries (one\n"
         "                         '# label' section per grid point; not "
         "with --workers)\n"
         "  --smoke                CI preset: 2x2 grid over 4 scenarios on "
         "a short route;\n"
         "                         with --rounds, fleet_cluster x "
         "servers{1,2} x\n"
         "                         dispatch{rr,ll} x window{0,4} (a seed "
         "config: later\n"
         "                         flags refine it, --axis replaces its "
         "grid)\n";
  return code;
}

/// `--stats` under --workers: the points each worker pulled, from the
/// parent's assign ledger, e.g.
///   farm: 2 workers, 4 points pulled; worker 0: 2 (0 2), worker 1: 2 (1 3)
void print_farm_stats(std::ostream& out,
                      const std::vector<std::vector<std::size_t>>& pulled) {
  std::size_t total = 0;
  for (const auto& points : pulled) total += points.size();
  out << "farm: " << pulled.size() << " workers, " << total
      << " points pulled";
  for (std::size_t w = 0; w < pulled.size(); ++w) {
    out << (w == 0 ? "; " : ", ") << "worker " << w << ": "
        << pulled[w].size() << " (";
    for (std::size_t k = 0; k < pulled[w].size(); ++k)
      out << (k == 0 ? "" : " ") << pulled[w][k];
    out << ")";
  }
  out << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  SweepConfig config;
  config.threads = 0;
  std::string format = "csv";
  std::string output;
  std::string trace_out;
  std::string vehicles_output;
  CacheCliOptions cache;

  // --smoke is a preset, not a terminal mode: it seeds the config before
  // the other flags are parsed, so `--smoke --episodes 10` refines the
  // preset instead of being silently discarded.  With --rounds anywhere on
  // the line it seeds the fleet grid instead.
  bool smoke = false;
  bool fleet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    smoke = smoke || arg == "--smoke";
    fleet = fleet || arg == "--rounds";
  }
  if (smoke) {
    config = fleet ? fleet_smoke_sweep() : smoke_sweep();
    config.threads = 0;
  }
  std::string experiment_flag;  // the last experiment-only flag seen
  bool user_axes = false;  // the first user --axis replaces preset axes
  bool show_pool_stats = false;
  int workers = 1;
  bool shard_pipe = false;   // hidden: binary frames on stdout
  bool shard_trace = false;  // hidden: embed trace blocks in the frames

  const auto next_arg = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      std::exit(usage(2));
    }
    return argv[++i];
  };
  // Integer flags parse whole and must lie in [lo, hi]: a value that
  // would narrow or wrap exits 2 instead of silently meaning another one.
  const auto next_int = [&](int& i, long long lo, long long hi) -> long long {
    const std::string flag = argv[i];
    const std::string text = next_arg(i);
    long long v = 0;
    if (parse_int(text, lo, hi, v)) return v;
    std::cerr << flag << " expects an integer in [" << lo << ", " << hi
              << "], got '" << text << "'\n";
    std::exit(usage(2));
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage(0);
    if (arg == "--list") {
      for (const auto& entry : scenario_library())
        std::cout << entry.name << "\n    " << entry.summary << "\n";
      return 0;
    }
    if (arg == "--keys") {
      for (const auto& key : scenario_keys()) std::cout << key << "\n";
      return 0;
    }
    if (arg == "--scenarios") {
      config.scenarios = split(next_arg(i), ',');
    } else if (arg == "--axis") {
      const std::string spec = next_arg(i);
      const auto eq = spec.find('=');
      if (eq == std::string::npos) {
        std::cerr << "--axis expects key=v1,v2,...\n";
        return usage(2);
      }
      SweepAxis axis;
      axis.key = spec.substr(0, eq);
      axis.values = split(spec.substr(eq + 1), ',');
      if (smoke && !user_axes) config.axes.clear();  // user grid wins
      user_axes = true;
      config.axes.push_back(std::move(axis));
    } else if (arg == "--paired") {
      config.grid = GridMode::kPaired;
    } else if (arg == "--set") {
      const std::string spec = next_arg(i);
      const auto eq = spec.find('=');
      if (eq == std::string::npos) {
        std::cerr << "--set expects key=value\n";
        return usage(2);
      }
      config.base_overrides.emplace_back(spec.substr(0, eq),
                                         spec.substr(eq + 1));
    } else if (arg == "--episodes") {
      experiment_flag = arg;
      config.episodes = static_cast<int>(next_int(i, 1, INT_MAX));
    } else if (arg == "--max-attempts") {
      experiment_flag = arg;
      config.max_attempts = static_cast<int>(next_int(i, 1, INT_MAX));
    } else if (arg == "--seed") {
      config.base_seed =
          static_cast<std::uint64_t>(next_int(i, 0, LLONG_MAX));
    } else if (arg == "--allow-failures") {
      experiment_flag = arg;
      config.require_success = false;
    } else if (arg == "--rounds") {
      config.rounds = static_cast<int>(next_int(i, 1, INT_MAX));
    } else if (arg == "--threads") {
      config.threads = static_cast<int>(next_int(i, 0, INT_MAX));
    } else if (arg == "--workers") {
      workers = static_cast<int>(next_int(i, 0, INT_MAX));
    } else if (arg == "--shard-pipe") {
      shard_pipe = true;
    } else if (arg == "--shard-trace") {
      shard_trace = true;
    } else if (arg == "--stats") {
      show_pool_stats = true;
    } else if (arg == "--cache") {
      parse_cache_spec(next_arg(i), cache);
    } else if (arg == "--format") {
      format = next_arg(i);
    } else if (arg == "--output") {
      output = next_arg(i);
    } else if (arg == "--trace-out") {
      trace_out = next_arg(i);
    } else if (arg == "--vehicles-output") {
      vehicles_output = next_arg(i);
    } else if (arg == "--smoke") {
      // Handled by the pre-scan above.
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return usage(2);
    }
  }

  // Flag interplay between the point kinds.
  if (fleet && !experiment_flag.empty()) {
    std::cerr << "--rounds runs fleet points; " << experiment_flag
              << " applies to experiment points only\n";
    return usage(2);
  }
  if (!vehicles_output.empty() && !fleet) {
    std::cerr << "--vehicles-output requires --rounds\n";
    return usage(2);
  }

  // Flag interplay for the multi-process mode.
  const std::size_t worker_count = ThreadPool::resolve_threads(workers);
  if (!vehicles_output.empty() && worker_count > 1) {
    std::cerr << "--vehicles-output is written by in-process runs only; it "
                 "cannot be combined with --workers\n";
    return usage(2);
  }
  if (shard_pipe &&
      (worker_count > 1 || !output.empty() || !trace_out.empty())) {
    std::cerr << "--shard-pipe runs the points its parent assigns and "
                 "streams binary frames on stdout; --workers, --output and "
                 "--trace-out do not apply\n";
    return usage(2);
  }

  // The binary trace stream shares stdout with the report only if exactly
  // one of them goes there; '-' therefore demands --output.
  if (trace_out == "-" && output.empty()) {
    std::cerr << "--trace-out - writes the binary stream to stdout; route "
                 "the report elsewhere with --output PATH\n";
    return usage(2);
  }
  std::ofstream trace_file;
  std::optional<OrderedTraceSink> trace_sink;
  if (!trace_out.empty()) {
    std::ostream* stream = &std::cout;
    if (trace_out != "-") {
      trace_file.open(trace_out, std::ios::binary | std::ios::trunc);
      if (!trace_file) {
        std::cerr << "cannot open " << trace_out << " for writing\n";
        return 1;
      }
      stream = &trace_file;
    }
    trace_sink.emplace(*stream);
  }
  OrderedTraceSink* const sink = trace_sink ? &*trace_sink : nullptr;

  try {
    // The store's disk tier is process state, configured once here — by a
    // `--workers` child too, from the forwarded flags.
    DeadlineTableCache::global().configure(disk_options(cache));

    // Hidden pipe-worker mode (a `--workers` child): point assignments
    // come in on stdin, every frame goes out on stdout, diagnostics on
    // stderr, nothing else is printed.  The startup GC is the parent's.
    if (shard_pipe)
      return run_sweep_worker(config, shard_trace, STDIN_FILENO,
                              STDOUT_FILENO);
    run_requested_gc(cache);

    const auto run_start = std::chrono::steady_clock::now();
    std::size_t points_run = 0;
    std::ostringstream report;
    ArtifactStoreStats worker_stats;
    std::vector<std::vector<std::size_t>> pulled;  // --workers assign ledger
    if (worker_count > 1) {
      // Parent mode: plan locally, hand the grid's points out to self-exec
      // worker processes as they free up, merge their metric rows and
      // trace blocks.  Workers
      // inherit every flag except --workers/--output/--trace-out/--stats,
      // so they plan the identical sweep (the hello handshake verifies).
      std::vector<std::string> worker_args;
      for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workers" || arg == "--output" || arg == "--trace-out") {
          ++i;
          continue;
        }
        if (arg == "--stats") continue;
        worker_args.push_back(arg);
      }
      const SweepPlan plan = plan_sweep(config);
      const SweepWorkersResult merged =
          run_sweep_workers(config, plan, sweep_self_exe(argv[0]),
                            worker_args, worker_count, sink);
      worker_stats = merged.stats;
      pulled = merged.pulled;
      points_run = plan.points.size();
      seo::write_sweep_report(report, format, config, plan.points,
                              merged.metrics);
    } else {
      const std::vector<SweepRow> rows = run_sweep(config, sink);
      points_run = rows.size();
      seo::write_sweep_report(report, format, config, rows);
      if (!vehicles_output.empty()) {
        std::ofstream out(vehicles_output);
        if (!out) {
          std::cerr << "cannot open " << vehicles_output << " for writing\n";
          return 1;
        }
        out << sweep_vehicle_csv(rows);
        std::cerr << "wrote per-vehicle summaries to " << vehicles_output
                  << "\n";
      }
    }
    if (trace_sink) {
      trace_sink->finish();
      std::cerr << "streamed " << trace_sink->episodes_written()
                << " episode traces to "
                << (trace_out == "-" ? "stdout" : trace_out) << "\n";
    }
    const double run_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      run_start)
            .count();
    // Stats to stderr, never the report stream: CI asserts warm runs
    // actually hit, and operators see what a cold run cost.  In parent
    // mode the printed line adds the farm-wide sums from the done frames,
    // and the parent's own pool is idle, so --stats shows the farm instead.
    print_artifact_store_stats(std::cerr, worker_stats);
    if (show_pool_stats) {
      if (pulled.empty())
        print_thread_pool_stats(std::cerr, run_s);
      else
        print_farm_stats(std::cerr, pulled);
    }
    if (output.empty()) {
      std::cout << report.str();
    } else {
      std::ofstream out(output);
      if (!out) {
        std::cerr << "cannot open " << output << " for writing\n";
        return 1;
      }
      out << report.str();
      std::cerr << "wrote " << points_run << " grid points to " << output
                << "\n";
    }
  } catch (const seo::ContractViolation& e) {
    std::cerr << "sweep configuration error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "sweep failed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
