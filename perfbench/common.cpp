#include "common.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <fstream>
#include <iostream>
#include <iterator>
#include <set>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include "core/fingerprint.hpp"
#include "dynamics/road.hpp"
#include "safety/barrier.hpp"
#include "safety/safe_interval.hpp"
#include "sim/trace.hpp"
#include "util/numeric.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

extern char** environ;

namespace perfbench {

using namespace seo;

SweepConfig grid_config(std::uint64_t seed) {
  SweepConfig config;
  config.scenarios = {"paper_default", "dense_field",
                      "crossing_pedestrians", "lossy_channel",
                      "bursty_edge", "unfiltered_baseline",
                      "heavy_vehicle", "night_perception"};
  config.axes = {SweepAxis{"deadline_cap", {"2", "4"}}};
  config.episodes = 25;
  config.max_attempts = 250;
  config.base_seed = seed;
  config.require_success = false;
  config.threads = kThreads;
  return config;
}

SweepConfig fleet_config(std::uint64_t seed) {
  SweepConfig config;
  config.scenarios = {"fleet_cluster_saturated"};
  config.axes = {SweepAxis{"cluster.dispatch",
                           {"round_robin", "least_loaded", "earliest_slack"}}};
  config.base_seed = seed;
  config.threads = kThreads;
  return config;
}

DeadlineTableKey lipschitz_key(const ScenarioConfig& config) {
  if (config.table_source != TableSource::kLipschitz)
    throw std::runtime_error("perfbench rigs use the closed-form table source");
  LipschitzIntervalConfig interval = config.interval;
  if (config.moving_obstacles) {
    // run_episode raises the environment speed to the fastest sampled
    // obstacle; the motions come off the master stream's first split.
    Rng master(config.seed);
    Rng obstacle_rng = master.split();
    interval.environment_speed =
        std::max(interval.environment_speed,
                 make_moving_obstacles(config, obstacle_rng)
                     .max_obstacle_speed());
  }
  DeadlineTableKey key;
  key.table = config.table;
  key.table.max_distance = config.interval.sensing_range;
  key.interval = interval;
  key.barrier = config.barrier;
  key.road = config.road;
  key.body_radius = config.barrier.body_radius;
  return key;
}

std::unique_ptr<DeadlineTable> build_table(const ScenarioConfig& config,
                                           const DeadlineTableKey& key) {
  const LipschitzSafeInterval exact(key.interval, Barrier(config.barrier),
                                    Road(config.road));
  DeadlineTableConfig table = key.table;
  table.threads = 1;
  return std::make_unique<DeadlineTable>(table, exact, key.body_radius);
}

std::size_t prefill_tables(const SweepPlan& plan, double& build_s) {
  std::set<std::uint64_t> seen;
  std::size_t built = 0;
  for (std::size_t i = 0; i < plan.points.size(); ++i) {
    const ScenarioConfig& config = plan.resolved[i];
    if (plan.digests[i] == 0 || !seen.insert(plan.digests[i]).second) continue;
    const DeadlineTableKey key = lipschitz_key(config);
    if (key.digest() != plan.digests[i])
      throw std::runtime_error("rebuilt table key of point " +
                               plan.points[i].label() +
                               " differs from scenario_table_digest");
    DeadlineTableCache::global().get(key, ArtifactDiskOptions{}, [&] {
      const auto start = Clock::now();
      auto table = build_table(config, key);
      build_s += seconds_since(start);
      ++built;
      return table;
    });
  }
  return built;
}

namespace {

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

double rusage_cpu_s(const rusage& usage) {
  return timeval_s(usage.ru_utime) + timeval_s(usage.ru_stime);
}

}  // namespace

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return rusage_cpu_s(usage);
}

double process_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// One thread's share of the gauge: a dependent chain of multiply-adds,
/// square roots and divides over an L1-sized array.
double gauge_share() {
  constexpr std::size_t kSize = 1024;
  constexpr int kPasses = 24000;
  std::vector<double> v(kSize);
  for (std::size_t i = 0; i < kSize; ++i)
    v[i] = 1.0 + static_cast<double>(i) / static_cast<double>(kSize);
  double carry = 0.5;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (std::size_t i = 0; i < kSize; ++i) {
      const double x = v[i];
      const double y = std::sqrt(x * x + carry) / (1.0 + carry * x);
      v[i] = 0.5 * (x + y) + (y > x ? 1e-3 : -1e-3);
      carry = 0.75 * carry + 0.25 * y;
    }
  }
  double sum = carry;
  for (const double x : v) sum += x;
  return sum;
}

}  // namespace

double gauge_s() {
  std::vector<double> sums(kThreads);
  const auto start = Clock::now();
  ThreadPool::run_capped(0, sums.size(), kThreads,
                         [&](std::size_t lo, std::size_t hi) {
                           for (std::size_t i = lo; i < hi; ++i)
                             sums[i] = gauge_share();
                         });
  const double wall = seconds_since(start);
  for (const double sum : sums)
    if (sum != sums[0])
      throw std::runtime_error("host gauge disagrees with itself");
  return wall;
}

ChildRun run_child(const std::vector<std::string>& argv,
                   const std::string& stdout_path,
                   const std::string& stderr_path) {
  std::vector<char*> args;
  for (const auto& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, stdout_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, 2, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ChildRun run;
  pid_t pid = 0;
  const auto start = Clock::now();
  const int rc =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) throw std::runtime_error("cannot spawn " + argv[0]);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  run.wall_s = seconds_since(start);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  run.cpu_s = rusage_cpu_s(usage);
  run.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return run;
}

void fail(Outcome& outcome, const std::string& why) {
  outcome.correct = false;
  std::cerr << "perfbench: CHECK FAILED: " << why << "\n";
}

ChildRun run_farm(const Options& options, const std::string& cache_dir,
                  const std::string& trace_path,
                  const std::string& report_path,
                  const std::string& stderr_path) {
  const SweepConfig grid = grid_config(options.seed);
  const SweepAxis& axis = grid.axes.at(0);
  const std::vector<std::string> argv = {
      options.sweep_bin,
      "--scenarios", join(grid.scenarios, ','),
      "--axis", axis.key + "=" + join(axis.values, ','),
      "--episodes", std::to_string(grid.episodes),
      "--max-attempts", std::to_string(grid.max_attempts),
      "--seed", std::to_string(grid.base_seed),
      "--allow-failures",
      "--workers", std::to_string(kThreads),
      "--threads", "1",
      "--trace-out", trace_path,
      "--cache", "dir=" + cache_dir,
      "--output", report_path};
  return run_child(argv, stderr_path + ".stdout", stderr_path);
}

std::map<std::string, double> parse_dtable_stats(
    const std::string& stderr_text) {
  static const std::string kPrefix = "artifact store [dtable]: ";
  std::map<std::string, double> stats;
  std::istringstream lines(stderr_text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(kPrefix, 0) != 0) continue;
    // "397 hits, 3 misses, ..., 0 lock waits, ..." -> {"hits": 397, ...}
    std::istringstream fields(line.substr(kPrefix.size()));
    std::string field;
    while (std::getline(fields, field, ',')) {
      std::istringstream words(field);
      std::string number;
      std::string word;
      std::string name;
      words >> number;
      while (words >> word) name += (name.empty() ? "" : "_") + word;
      double value = 0.0;
      if (!name.empty() && parse_double(number, value)) stats[name] = value;
    }
  }
  return stats;
}

std::uint64_t count_trace_episodes(const std::string& trace_path,
                                   std::uint64_t expected_run_digest) {
  std::ifstream in(trace_path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + trace_path);
  TraceStreamReader reader(in);
  if (reader.run_digest() != expected_run_digest)
    throw std::runtime_error("trace run digest differs from the plan's");
  TraceRecord record;
  while (reader.next(record)) {
  }
  return reader.episodes_total();  // cross-checked by the reader
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string join(const std::vector<std::string>& parts, char separator) {
  std::string joined;
  for (const auto& part : parts) {
    if (!joined.empty()) joined += separator;
    joined += part;
  }
  return joined;
}

std::string digest_hex(const std::string& bytes) {
  FingerprintHasher hasher;
  hasher.mix_bytes(bytes.data(), bytes.size());
  return hasher.hex();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

void print_result(const std::string& heading, const MetricList& metrics,
                  bool correct, std::uint64_t attempted, std::uint64_t failed) {
  std::cout << heading << "\n";
  for (const auto& [name, metric] : metrics) {
    std::cout << "  " << name << " = " << format_double(metric.value) << " "
              << metric.unit;
    if (!metric.note.empty()) std::cout << "  (" << metric.note << ")";
    std::cout << "\n";
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.value))
      throw std::runtime_error("metric " + name + " is not finite");
    json << (first ? "" : ", ") << "\"" << name
         << "\": {\"value\": " << format_double(metric.value)
         << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

}  // namespace perfbench
