// perfbench — the end-to-end and per-layer benchmark of the SEO simulator.
//
//   perfbench --workload grid_skewed|fleet_saturated|grid_farm
//             --seed N --seconds S --trace 0|1
//             --sweep PATH --work-dir DIR
//   perfbench --self-test [--seed N]
//
// Each workload is one closed batch job driven through the simulator's
// public library functions (or, for grid_farm, the `sweep` CLI).  Set-up
// is repeated and timed on its own; the job is then repeated until
// `--seconds` have passed and every end-to-end metric is the median over
// those repetitions.  Every repetition's output is checked against the
// first one's.  `--trace 1` runs the per-layer profile (layers.hpp)
// instead.  The last line of stdout is the result object.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "sim/fleet_experiment.hpp"
#include "sim/simulation.hpp"
#include "sim/sweep_report.hpp"
#include "util/numeric.hpp"
#include "util/thread_pool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace seo;
using namespace perfbench;
namespace fs = std::filesystem;

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 101;
/// Lower bound on timed repetitions, however short `--seconds` is.
constexpr int kMinReps = 3;

/// Timed repetitions of one workload in host seconds, and the host gauge
/// taken before the first rep and after every rep.
struct Reps {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<double> rss_mb;
  std::vector<double> gauge_s;
  std::vector<double> setup_s;
};

/// Keeps repeating `rep` until `seconds` have passed (and at least
/// kMinReps times), with the host gauge before the first rep and after
/// every rep.  `rep` appends its wall and CPU time to `reps`.
template <typename F>
void repeat_for(double seconds, Reps& reps, F&& rep) {
  const auto start = Clock::now();
  gauge_s();  // warm-up: starts the thread pool
  reps.gauge_s.push_back(gauge_s());
  for (int n = 0; n < kMinReps || seconds_since(start) < seconds; ++n) {
    rep();
    reps.gauge_s.push_back(gauge_s());
  }
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Counts report rows that differ from the reference rows (header line
/// excluded); a missing row counts as differing.
std::uint64_t differing_rows(const std::vector<std::string>& reference,
                             const std::vector<std::string>& rows) {
  std::uint64_t differ = 0;
  for (std::size_t i = 1; i < reference.size(); ++i)
    if (i >= rows.size() || rows[i] != reference[i]) ++differ;
  if (rows.empty() || reference.empty() || rows[0] != reference[0] ||
      rows.size() != reference.size())
    differ = std::max<std::uint64_t>(differ, 1);
  return differ;
}

/// Repeated set-up of a planned sweep: clear the table store, plan, fill.
SweepPlan timed_setup(const SweepConfig& config, Reps& reps) {
  SweepPlan plan;
  for (int r = 0; r < kSetupReps; ++r) {
    DeadlineTableCache::global().clear();
    const auto start = Clock::now();
    plan = plan_sweep(config);
    double build_s = 0.0;
    prefill_tables(plan, build_s);
    reps.setup_s.push_back(seconds_since(start));
  }
  return plan;
}

double simulated_seconds(const std::vector<SweepRow>& rows) {
  double total = 0.0;
  for (const auto& row : rows) total += row.result.duration_s.sum();
  return total;
}

std::string render_csv(const SweepConfig& config,
                       const std::vector<SweepRow>& rows) {
  std::ostringstream out;
  write_sweep_report(out, "csv", config, rows);
  return out.str();
}

std::string count_note(std::size_t n) {
  return "median of " + std::to_string(n) + " reps";
}

/// Prints "name: v1 v2 ..." on one line.
void print_series(const char* name, const std::vector<double>& values) {
  std::cout << name << ":";
  for (const double v : values) std::cout << " " << format_double(v);
  std::cout << "\n";
}

/// Prints every rep's host times and the gauges, then sets the end-to-end
/// metrics: medians over reps, each time normalized by the run's median
/// gauge (common.hpp), with `sim_s` simulated seconds per rep.
void add_end_to_end(Outcome& outcome, const Reps& reps, double sim_s) {
  const std::size_t n = reps.wall_s.size();
  print_series("host wall_s per rep", reps.wall_s);
  print_series("host cpu_s per rep", reps.cpu_s);
  print_series("host gauge_s", reps.gauge_s);
  const double gauge = median(reps.gauge_s);
  const double scale = kReferenceGaugeS / gauge;
  const double wall = median(reps.wall_s) * scale;
  const std::string note = count_note(n) + ", normalized";
  std::cout << "host medians: wall_s " << format_double(median(reps.wall_s))
            << ", cpu_s " << format_double(median(reps.cpu_s))
            << ", setup_s " << format_double(median(reps.setup_s))
            << ", gauge_s " << format_double(gauge) << " (median of "
            << reps.gauge_s.size() << "); normalized = host x "
            << format_double(scale) << "\n";
  outcome.metrics = {
      {"norm_wall_s", {wall, "s", note}},
      {"norm_sim_s_per_s",
       {sim_s / wall, "s/s",
        note + ", " + format_double(sim_s) + " simulated s per rep"}},
      {"norm_cpu_s", {median(reps.cpu_s) * scale, "s", note + ", user+sys"}},
      {"setup_s",
       {median(reps.setup_s) * scale, "s",
        count_note(reps.setup_s.size()) + ", normalized"}},
      {"peak_rss_mb", {median(reps.rss_mb), "MB", count_note(n)}},
  };
}

Outcome run_grid_skewed(const Options& options) {
  Outcome outcome;
  const SweepConfig config = grid_config(options.seed);
  Reps reps;
  timed_setup(config, reps);

  std::vector<std::string> reference;
  double sim_s = 0.0;
  repeat_for(options.seconds, reps, [&] {
    const double cpu0 = process_cpu_s();
    const auto start = Clock::now();
    const std::vector<SweepRow> rows = run_sweep(config);
    reps.wall_s.push_back(seconds_since(start));
    reps.cpu_s.push_back(process_cpu_s() - cpu0);
    reps.rss_mb.push_back(process_peak_rss_mb());

    const std::string report = render_csv(config, rows);
    const std::vector<std::string> lines = split_lines(report);
    outcome.attempted += rows.size();
    if (reference.empty()) {
      reference = lines;
      sim_s = simulated_seconds(rows);
      outcome.report_digest = digest_hex(report);
    }
    const std::uint64_t differ = differing_rows(reference, lines);
    if (differ > 0) fail(outcome, "grid report differs from the first rep's");
    outcome.failed += differ;
  });
  add_end_to_end(outcome, reps, sim_s);
  return outcome;
}

/// The fleet report line of one point: fleet_metrics in report format.
std::string fleet_line(const FleetResult& result) {
  std::vector<std::string> fields;
  for (const double v : fleet_metrics(result)) fields.push_back(report_fmt(v));
  return join(fields, ',');
}

Outcome run_fleet_saturated(const Options& options) {
  Outcome outcome;
  const SweepConfig config = fleet_config(options.seed);
  Reps reps;
  const SweepPlan plan = timed_setup(config, reps);

  std::vector<std::string> reference;
  std::vector<FleetResult> first;
  repeat_for(options.seconds, reps, [&] {
    std::vector<FleetResult> results;
    const double cpu0 = process_cpu_s();
    const auto start = Clock::now();
    for (const ScenarioConfig& scenario : plan.resolved) {
      FleetExperimentConfig fleet;
      fleet.scenario = scenario;
      fleet.rounds = kFleetRounds;
      fleet.base_seed = options.seed;
      fleet.threads = kThreads;
      results.push_back(run_fleet_experiment(fleet));
    }
    reps.wall_s.push_back(seconds_since(start));
    reps.cpu_s.push_back(process_cpu_s() - cpu0);
    reps.rss_mb.push_back(process_peak_rss_mb());

    std::vector<std::string> lines;
    for (const auto& result : results) lines.push_back(fleet_line(result));
    if (reference.empty()) {
      reference = lines;
      first = results;
      std::string report;
      for (const auto& line : lines) report += line + "\n";
      outcome.report_digest = digest_hex(report);
    }
    for (std::size_t p = 0; p < lines.size(); ++p) {
      outcome.attempted += kFleetRounds;
      if (lines[p] != reference[p]) {
        fail(outcome, "fleet point " + plan.points[p].label() +
                          " differs from the first rep's");
        outcome.failed += kFleetRounds;
      }
    }
  });

  // Simulated seconds: the dispatch policy only changes the cluster
  // replay, so every point runs the same episodes.  Run them once and
  // check their outcome counts against every point's result.
  const ScenarioConfig& scenario = plan.resolved.at(0);
  const int vehicles = scenario.fleet.vehicles;
  const std::size_t slots = static_cast<std::size_t>(kFleetRounds) *
                            static_cast<std::size_t>(vehicles);
  std::vector<EpisodeResult> episodes(slots);
  ThreadPool::run_capped(0, slots, kThreads,
                         [&](std::size_t lo, std::size_t hi) {
                           for (std::size_t i = lo; i < hi; ++i) {
                             ScenarioConfig episode = scenario;
                             episode.seed = options.seed + i;
                             episodes[i] = run_episode(episode);
                           }
                         });
  double sim_s = 0.0;
  int completions = 0;
  int collisions = 0;
  for (const auto& e : episodes) {
    sim_s += e.duration_s;
    completions += e.completed ? 1 : 0;
    collisions += e.collided ? 1 : 0;
  }
  for (const auto& result : first) {
    int result_completions = 0;
    for (const auto& v : result.per_vehicle) result_completions += v.completions;
    if (result_completions != completions || result.collisions() != collisions)
      fail(outcome, "fleet episodes differ from the standalone episodes");
  }
  add_end_to_end(outcome, reps, sim_s * static_cast<double>(first.size()));
  return outcome;
}

Outcome run_grid_farm(const Options& options) {
  Outcome outcome;
  const SweepConfig config = grid_config(options.seed);
  Reps reps;
  const SweepPlan plan = timed_setup(config, reps);
  std::set<std::uint64_t> digests(plan.digests.begin(), plan.digests.end());
  digests.erase(0);  // points that consult no cached table

  const fs::path work = options.work_dir;
  const std::string trace = (work / "farm.trace").string();
  const std::string report = (work / "farm.csv").string();
  const std::string log = (work / "farm.log").string();
  const fs::path cache = work / "farm_cache";
  std::vector<std::string> reference;
  std::string reference_report;
  repeat_for(options.seconds, reps, [&] {
    fs::remove_all(cache);
    fs::create_directories(cache);
    fs::remove(report);
    const ChildRun run = run_farm(options, cache.string(), trace, report, log);
    reps.wall_s.push_back(run.wall_s);
    reps.cpu_s.push_back(run.cpu_s);
    reps.rss_mb.push_back(run.peak_rss_mb);
    outcome.attempted += plan.points.size();
    if (run.exit_code != 0) {
      fail(outcome, "sweep exited with " + std::to_string(run.exit_code) +
                        ":\n" + read_file(log));
      outcome.failed += plan.points.size();
      return;
    }
    const std::string text = read_file(report);
    const std::vector<std::string> lines = split_lines(text);
    if (reference.empty()) {
      reference = lines;
      reference_report = text;
      outcome.report_digest = digest_hex(text);
    }
    std::uint64_t differ = differing_rows(reference, lines);
    if (differ > 0) fail(outcome, "farm report differs from the first rep's");
    try {
      const std::uint64_t episodes = count_trace_episodes(trace, plan.run_digest);
      const std::uint64_t expected =
          plan.points.size() * static_cast<std::uint64_t>(config.episodes);
      if (episodes != expected) {
        fail(outcome, "farm trace holds " + std::to_string(episodes) +
                          " episodes, expected " + std::to_string(expected));
        differ = plan.points.size();
      }
    } catch (const std::exception& e) {
      fail(outcome, std::string("farm trace rejected: ") + e.what());
      differ = plan.points.size();
    }
    // Cold shared directory: the per-digest lock builds every table once
    // across the whole farm.
    const auto stats = parse_dtable_stats(read_file(log));
    const auto builds = stats.find("builds");
    if (builds == stats.end() ||
        builds->second != static_cast<double>(digests.size()))
      fail(outcome, "farm did not build each table exactly once");
    outcome.failed += differ;
    fs::remove(trace);
  });
  fs::remove_all(cache);

  // The farm must reproduce the in-process report byte for byte.
  const std::vector<SweepRow> rows = run_sweep(config);
  if (render_csv(config, rows) != reference_report) {
    fail(outcome, "farm report differs from the in-process grid report");
    outcome.failed += differing_rows(split_lines(render_csv(config, rows)),
                                     reference);
  }
  add_end_to_end(outcome, reps, simulated_seconds(rows));
  return outcome;
}

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --sweep PATH --work-dir DIR\n"
               "       perfbench --self-test [--seed N]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") options.workload = value();
      else if (arg == "--seed") options.seed = std::stoull(value());
      else if (arg == "--seconds") {
        if (!parse_finite_double(value(), options.seconds))
          throw std::invalid_argument("--seconds expects a number");
      }
      else if (arg == "--trace") options.trace = value() != "0";
      else if (arg == "--sweep") options.sweep_bin = value();
      else if (arg == "--work-dir") options.work_dir = value();
      else if (arg == "--self-test") self_test = true;
      else return usage();
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return usage();
    }
  }

  const std::size_t cpus = ThreadPool::hardware_threads();
  std::cout << "host: nproc=" << cpus << " build=" << PERFBENCH_BUILD_TYPE
            << " compiler=" << PERFBENCH_COMPILER << " threads=" << kThreads
            << " farm_workers=" << kThreads << " farm_worker_threads=1\n";
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release")
    std::cerr << "perfbench: WARNING: build type is " << PERFBENCH_BUILD_TYPE
              << ", not Release; timings are not comparable\n";
  if (cpus < 4)
    std::cerr << "perfbench: WARNING: " << cpus
              << " CPUs; the workloads assume at least 4\n";

  try {
    if (self_test) return replay_self_test(options.seed) == 0 ? 0 : 1;
    if (options.sweep_bin.empty() || options.work_dir.empty()) return usage();
    fs::create_directories(options.work_dir);

    Outcome outcome;
    if (options.trace) {
      outcome = run_layer_profile(options);
    } else if (options.workload == "grid_skewed") {
      outcome = run_grid_skewed(options);
    } else if (options.workload == "fleet_saturated") {
      outcome = run_fleet_saturated(options);
    } else if (options.workload == "grid_farm") {
      outcome = run_grid_farm(options);
    } else {
      std::cerr << "unknown workload '" << options.workload << "'\n";
      return usage();
    }
    if (!outcome.report_digest.empty())
      std::cout << "report_digest: " << outcome.report_digest << "\n";
    const double failed_frac =
        outcome.attempted > 0 ? static_cast<double>(outcome.failed) /
                                    static_cast<double>(outcome.attempted)
                              : 1.0;
    std::cout << "failed_frac = " << format_double(failed_frac) << "  ("
              << outcome.failed << " of " << outcome.attempted
              << " operations)\n";
    print_result(options.workload + (options.trace ? " (traced)" : "") +
                     ", seed " + std::to_string(options.seed) + ":",
                 outcome.metrics, outcome.correct, outcome.attempted,
                 outcome.failed);
    return outcome.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench failed: " << e.what() << "\n";
    return 1;
  }
}
