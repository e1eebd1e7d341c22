// Shared pieces of the perfbench program: the workload definitions, the
// timing and resource helpers, percentile summaries, the metric printer,
// and the deadline-table key the benchmark rebuilds from public inputs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "safety/table_cache.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Grid-point parallelism of every in-process workload and the worker count
/// of the farm (one process per worker, one thread each).
inline constexpr int kThreads = 3;
/// Fleet rounds per dispatch policy in `fleet_saturated`.
inline constexpr int kFleetRounds = 16;

/// The 16-point grid shared by `grid_skewed` and `grid_farm`: eight
/// full-length library rigs x deadline_cap {2,4}, 25 episodes per point,
/// failed episodes aggregated too.
seo::SweepConfig grid_config(std::uint64_t seed);

/// fleet_cluster_saturated x cluster.dispatch {round_robin, least_loaded,
/// earliest_slack}, planned like a sweep so each point is resolved through
/// scenario_io exactly as the fleet CLI resolves it.
seo::SweepConfig fleet_config(std::uint64_t seed);

/// The deadline-table key run_episode derives for `config` (closed-form
/// certificate source), rebuilt from the scenario alone.  Its digest must
/// equal seo::scenario_table_digest(config); the caller checks that.
seo::DeadlineTableKey lipschitz_key(const seo::ScenarioConfig& config);

/// Builds the table `key` names, exactly as run_episode builds it on a
/// cache miss.
std::unique_ptr<seo::DeadlineTable> build_table(const seo::ScenarioConfig& config,
                                                const seo::DeadlineTableKey& key);

/// Fills the process-wide table store with every distinct table `plan`
/// needs.  Returns the number of tables built and adds each
/// build's own duration to `build_s`.  Throws when a rebuilt key disagrees
/// with the plan's digest.
std::size_t prefill_tables(const seo::SweepPlan& plan, double& build_s);

/// User+system CPU seconds of this process (all threads) so far.
double process_cpu_s();
/// Peak resident set of this process so far [MB].
double process_peak_rss_mb();

/// Wall seconds of the host gauge: a fixed floating-point loop of the
/// benchmark's own code, one equal share on each of kThreads threads.  It
/// never changes with the simulator, so its time tracks only how fast the
/// host runs at the moment.  Throws when the shares' checksums disagree.
double gauge_s();
/// The gauge's median time on the reference host (4-vCPU Xeon VM with no
/// other load, Release build).  A normalized time is a host time scaled by
/// kReferenceGaugeS over the median gauge time of the same run: seconds as
/// the reference host would have taken them.
inline constexpr double kReferenceGaugeS = 0.366;

/// A finished child process: wall time from spawn to reap, its CPU time and
/// peak resident set including the grandchildren it reaped.
struct ChildRun {
  int exit_code = -1;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};

/// Runs `argv` (argv[0] is the executable path) with stdout and stderr
/// redirected to the given files and waits for it.
ChildRun run_child(const std::vector<std::string>& argv,
                   const std::string& stdout_path,
                   const std::string& stderr_path);

std::string read_file(const std::string& path);

/// `parts` joined with `separator` between them.
std::string join(const std::vector<std::string>& parts, char separator);

/// FNV-1a digest of `bytes` as 16 hex characters.
std::string digest_hex(const std::string& bytes);

/// Median (mean of the middle two for an even count); 0 when empty.
double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> values, double q);

/// One reported metric: value with unit, plus the human-readable note
/// (sample count and base) printed beside it.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::string note;
};

/// Metrics in print order (name -> metric).
using MetricList = std::vector<std::pair<std::string, Metric>>;

struct Options {
  std::string workload;
  std::uint64_t seed = 1000;
  double seconds = 20.0;
  bool trace = false;
  std::string sweep_bin;  ///< the `sweep` CLI the farm workload drives
  std::string work_dir;   ///< scratch space for farm reports, traces, caches
};

/// What one benchmark run found: its metrics and its correctness tally.
/// An operation is a grid point, or a fleet round of one grid point.
struct Outcome {
  MetricList metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::string report_digest;  ///< digest of the checked report
};

/// Marks the run incorrect and says why on stderr.
void fail(Outcome& outcome, const std::string& why);

/// Spawns the farm: `sweep` over the grid with kThreads single-threaded
/// workers, a fresh artifact directory, a trace stream and a CSV report.
ChildRun run_farm(const Options& options, const std::string& cache_dir,
                  const std::string& trace_path,
                  const std::string& report_path,
                  const std::string& stderr_path);

/// Reads the farm-wide `artifact store [dtable]: ...` stats line the sweep
/// CLI prints on stderr into counter name -> value ("hits", "builds", ...).
std::map<std::string, double> parse_dtable_stats(const std::string& stderr_text);

/// Validates a trace stream with TraceStreamReader; returns its episode
/// count.  Throws on any damage or on a foreign run digest.
std::uint64_t count_trace_episodes(const std::string& trace_path,
                                   std::uint64_t expected_run_digest);

/// Prints one "name = value unit  (note)" line per metric, then the
/// result object as the last line of stdout.
void print_result(const std::string& heading, const MetricList& metrics,
                  bool correct, std::uint64_t attempted, std::uint64_t failed);

}  // namespace perfbench
