// Sweep engine tests: grid expansion semantics, axis validation, and the
// acceptance-criterion determinism lock — a >= 12-point grid over >= 4
// library scenarios whose threaded CSV and JSON reports are byte-identical
// to the serial (--threads 1) run.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "safety/table_cache.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_report.hpp"
#include "util/expect.hpp"

namespace seo {
namespace {

// The shared CI smoke grid (also behind `sweep --smoke`): locking the
// byte-identity property on this exact config means CI's serial/threaded
// cmp step and this suite can never drift apart.
SweepConfig short_sweep() { return smoke_sweep(); }

// A rendered sweep report, as `write_sweep_report` writes it.
std::string report(const std::string& format, const SweepConfig& config,
                   const std::vector<SweepRow>& rows) {
  std::ostringstream out;
  write_sweep_report(out, format, config, rows);
  return out.str();
}

// --- Grid expansion ---------------------------------------------------------

TEST(SweepGrid, CartesianExpansionIsOdometerOrdered) {
  SweepConfig config;
  config.scenarios = {"paper_default", "dense_field"};
  config.axes = {{"channel_mbps", {"5", "10"}}, {"deadline_cap", {"2", "3", "4"}}};
  const auto points = expand_grid(config);
  ASSERT_EQ(points.size(), 2u * 2u * 3u);
  EXPECT_EQ(points[0].label(), "paper_default channel_mbps=5 deadline_cap=2");
  EXPECT_EQ(points[1].label(), "paper_default channel_mbps=5 deadline_cap=3");
  EXPECT_EQ(points[3].label(), "paper_default channel_mbps=10 deadline_cap=2");
  EXPECT_EQ(points[6].label(), "dense_field channel_mbps=5 deadline_cap=2");
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(points[i].index, i);
}

TEST(SweepGrid, PairedExpansionZipsAxes) {
  SweepConfig config;
  config.grid = GridMode::kPaired;
  config.axes = {{"channel_mbps", {"5", "10", "20"}},
                 {"tx_w", {"1.0", "1.3", "1.6"}}};
  const auto points = expand_grid(config);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[1].label(), "paper_default channel_mbps=10 tx_w=1.3");
}

TEST(SweepGrid, NoAxesMeansOnePointPerScenario) {
  SweepConfig config;
  config.scenarios = {"paper_default", "fleet_rig", "heavy_vehicle"};
  EXPECT_EQ(expand_grid(config).size(), 3u);
}

TEST(SweepGrid, ValidationRejectsBadConfigs) {
  {
    SweepConfig config;
    config.scenarios = {"no_such_rig"};
    EXPECT_THROW(expand_grid(config), ContractViolation);
  }
  {
    SweepConfig config;
    config.axes = {{"not_a_key", {"1"}}};
    EXPECT_THROW(expand_grid(config), ContractViolation);
  }
  {
    SweepConfig config;
    config.axes = {{"scenario", {"paper_default"}}};
    EXPECT_THROW(expand_grid(config), ContractViolation);
  }
  {
    SweepConfig config;
    config.grid = GridMode::kPaired;
    config.axes = {{"channel_mbps", {"5", "10"}}, {"tx_w", {"1.0"}}};
    EXPECT_THROW(expand_grid(config), ContractViolation);
  }
  {
    SweepConfig config;
    config.base_overrides = {{"bogus_override", "1"}};
    EXPECT_THROW(expand_grid(config), ContractViolation);
  }
  {
    // A 'scenario' base override would retarget every point while rows
    // keep their labels — must be rejected like the axis case.
    SweepConfig config;
    config.base_overrides = {{"scenario", "lossy_channel"}};
    EXPECT_THROW(expand_grid(config), ContractViolation);
  }
  {
    SweepConfig config;
    config.axes = {{"channel_mbps", {}}};
    EXPECT_THROW(expand_grid(config), ContractViolation);
  }
  // Every episode runs at base_seed + k, so a 'seed' axis or override
  // would be overwritten per episode and its rows would repeat silently.
  for (const int rounds : {0, 1}) {
    SweepConfig axis;
    axis.rounds = rounds;
    axis.axes = {{"seed", {"1", "2"}}};
    EXPECT_THROW(plan_sweep(axis), ContractViolation) << rounds;
    SweepConfig override_seed;
    override_seed.rounds = rounds;
    override_seed.base_overrides = {{"seed", "12345"}};
    EXPECT_THROW(plan_sweep(override_seed), ContractViolation) << rounds;
  }
}

TEST(SweepGrid, ResolvePointLayersBaseThenAxes) {
  SweepConfig config;
  config.scenarios = {"dense_field"};
  config.base_overrides = {{"obstacles", "4"}, {"road_length", "70"}};
  config.axes = {{"obstacles", {"6"}}};
  const auto points = expand_grid(config);
  ASSERT_EQ(points.size(), 1u);
  const ScenarioConfig resolved = resolve_point(config, points[0]);
  EXPECT_EQ(resolved.obstacle_count, 6);      // axis beats base override
  EXPECT_EQ(resolved.road.length, 70.0);      // base override beats library
  EXPECT_EQ(resolved.obstacle_region, 0.6);   // library base preserved
}

// --- Determinism: the acceptance criterion ---------------------------------

TEST(SweepDeterminism, ThreadedReportsByteIdenticalToSerial) {
  SweepConfig serial = short_sweep();
  serial.threads = 1;
  const auto serial_rows = run_sweep(serial);
  // The acceptance grid: >= 12 points over >= 4 library scenarios.
  ASSERT_GE(serial_rows.size(), 12u);
  ASSERT_GE(serial.scenarios.size(), 4u);

  const std::string serial_csv = report("csv", serial, serial_rows);
  const std::string serial_json = report("json", serial, serial_rows);

  for (const int threads : {2, 0}) {
    SweepConfig threaded = short_sweep();
    threaded.threads = threads;
    const auto rows = run_sweep(threaded);
    EXPECT_EQ(report("csv", threaded, rows), serial_csv)
        << "CSV diverged at threads=" << threads;
    EXPECT_EQ(report("json", threaded, rows), serial_json)
        << "JSON diverged at threads=" << threads;
  }
}

TEST(SweepDeterminism, RowsCarrySignalNotZeros) {
  SweepConfig config = short_sweep();
  config.threads = 0;
  const auto rows = run_sweep(config);
  for (const auto& row : rows) {
    EXPECT_EQ(row.result.attempts, config.episodes) << row.point.label();
    EXPECT_GT(row.result.intervals, 0u) << row.point.label();
  }
  // The grid must actually vary behaviour across points: a sweep where
  // every row is identical would be vacuous.
  bool any_diff = false;
  for (std::size_t i = 1; i < rows.size(); ++i)
    any_diff |=
        sweep_metrics(config, rows[i]) != sweep_metrics(config, rows[0]);
  EXPECT_TRUE(any_diff);
}

// --- Table cache: the caching acceptance criterion --------------------------

TEST(SweepTableCache, CachedReportsByteIdenticalToUncachedAcrossThreads) {
  // The uncached serial run is the ground truth; the cached sweep must
  // reproduce it byte for byte at every thread count — caching is an
  // execution optimization, never an observable behaviour change.
  SweepConfig uncached = short_sweep();
  uncached.base_overrides.emplace_back("table_cache", "false");
  uncached.threads = 1;
  const auto truth_rows = run_sweep(uncached);
  const std::string truth_csv = report("csv", uncached, truth_rows);
  const std::string truth_json = report("json", uncached, truth_rows);

  for (const int threads : {1, 2, 0}) {
    DeadlineTableCache::global().clear();
    SweepConfig cached = short_sweep();
    cached.threads = threads;
    const auto rows = run_sweep(cached);
    EXPECT_EQ(report("csv", cached, rows), truth_csv)
        << "cached CSV diverged at threads=" << threads;
    EXPECT_EQ(report("json", cached, rows), truth_json)
        << "cached JSON diverged at threads=" << threads;
  }
}

TEST(SweepTableCache, SweepBuildsEachDistinctGeometryExactlyOnce) {
  SweepConfig config = short_sweep();
  config.threads = 0;

  // Predict the distinct table keys exactly the way run_episode derives
  // them (smoke scenarios are static, so no environment_speed raise).
  std::set<std::uint64_t> distinct;
  const auto points = expand_grid(config);
  std::uint64_t episodes = 0;
  for (const auto& point : points) {
    const ScenarioConfig scenario = resolve_point(config, point);
    ASSERT_TRUE(scenario.use_lookup_table) << point.label();
    ASSERT_FALSE(scenario.moving_obstacles) << point.label();
    DeadlineTableKey key;
    key.table = scenario.table;
    key.table.max_distance = scenario.interval.sensing_range;
    key.interval = scenario.interval;
    key.barrier = scenario.barrier;
    key.road = scenario.road;
    key.body_radius = scenario.barrier.body_radius;
    distinct.insert(key.digest());
    episodes += static_cast<std::uint64_t>(config.episodes);
  }
  ASSERT_GE(points.size(), 16u);
  ASSERT_LT(distinct.size(), points.size());  // caching must have work to do

  DeadlineTableCache::global().clear();
  (void)run_sweep(config);
  const ArtifactStoreStats stats = DeadlineTableCache::global().stats();
  EXPECT_EQ(stats.builds, distinct.size());
  EXPECT_EQ(stats.misses + stats.hits, episodes);
  EXPECT_EQ(stats.hits, episodes - stats.misses);
  EXPECT_EQ(stats.misses, distinct.size());  // single-flight: one miss per key
  EXPECT_EQ(DeadlineTableCache::global().size(), distinct.size());
}

TEST(SweepScheduling, ScenarioTableDigestReflectsShareability) {
  ScenarioConfig config = make_scenario("paper_default");
  const std::uint64_t lipschitz = scenario_table_digest(config);
  EXPECT_NE(lipschitz, 0u);

  // The digest is exactly the key run_episode would request.
  DeadlineTableKey key;
  key.table = config.table;
  key.table.max_distance = config.interval.sensing_range;
  key.interval = config.interval;
  key.barrier = config.barrier;
  key.road = config.road;
  key.body_radius = config.barrier.body_radius;
  EXPECT_EQ(lipschitz, key.digest());

  // Nothing shareable when the table or the cache is off.
  ScenarioConfig no_table = config;
  no_table.use_lookup_table = false;
  EXPECT_EQ(scenario_table_digest(no_table), 0u);
  ScenarioConfig no_cache = config;
  no_cache.table_cache = false;
  EXPECT_EQ(scenario_table_digest(no_cache), 0u);
}

TEST(SweepScheduling, RunnersClaimEveryPointOnceInScheduleOrder) {
  // The pull cursor behind run_sweep: whatever the runner count — more
  // runners than points included — the claims, in the order they were
  // made, are exactly the digest-grouped schedule, and every point is
  // emitted once.
  SweepConfig four = short_sweep();
  four.scenarios = {"paper_default"};  // 4 points
  for (const SweepConfig& config : {short_sweep(), four}) {
    const SweepPlan plan = plan_sweep(config);
    const std::vector<std::size_t> schedule = plan.schedule();
    ASSERT_EQ(schedule.size(), plan.points.size());
    for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
      SweepCursor cursor(schedule);
      std::mutex mutex;
      std::vector<std::size_t> claims;
      std::size_t drained = 0;  // claims that found the cursor empty
      const SweepPointSource source = [&]() -> std::optional<std::size_t> {
        const std::lock_guard<std::mutex> lock(mutex);
        const std::optional<std::size_t> index = cursor.next();
        if (index)
          claims.push_back(*index);
        else
          ++drained;
        return index;
      };
      std::vector<std::size_t> emitted;
      execute_sweep_points(config, plan, source, threads, false,
                           [&](std::size_t index, SweepRow&&, std::string&&,
                               std::uint64_t) {
                             const std::lock_guard<std::mutex> lock(mutex);
                             emitted.push_back(index);
                           });
      EXPECT_EQ(claims, schedule) << "threads=" << threads;
      EXPECT_EQ(drained, threads) << "each runner stops on one empty claim";
      std::sort(emitted.begin(), emitted.end());
      std::vector<std::size_t> all(plan.points.size());
      for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
      EXPECT_EQ(emitted, all) << "threads=" << threads;
    }
  }
}

TEST(SweepScheduling, ScheduleIsTheDigestGroupedOrder) {
  const SweepPlan plan = plan_sweep(short_sweep());
  const std::vector<std::size_t> schedule = plan.schedule();
  ASSERT_EQ(schedule.size(), plan.order.size());
  for (std::size_t s = 0; s < schedule.size(); ++s)
    EXPECT_EQ(schedule[s], plan.order[s].second);
  // Points sharing a table digest are claimed back to back.
  std::set<std::uint64_t> finished;
  for (std::size_t s = 1; s < schedule.size(); ++s) {
    const std::uint64_t prev = plan.digests[schedule[s - 1]];
    const std::uint64_t cur = plan.digests[schedule[s]];
    if (cur == prev) continue;
    finished.insert(prev);
    if (cur != 0) {  // digest 0 = nothing shared, each point its own group
      EXPECT_EQ(finished.count(cur), 0u) << "digest group split at " << s;
    }
  }
}

TEST(SweepTableCache, NestedTableParallelismStaysByteIdentical) {
  // Regression for pools-within-pools: a scenario demanding an all-cores
  // table build (table_threads=0) inside a threaded sweep must neither
  // oversubscribe (a build inside a pool chunk runs inline) nor change a
  // single byte of the report.  Cache off so every episode exercises the
  // nested build path.
  SweepConfig serial = short_sweep();
  serial.base_overrides.emplace_back("table_cache", "false");
  serial.base_overrides.emplace_back("table_threads", "0");
  serial.threads = 1;
  const std::string truth = report("csv", serial, run_sweep(serial));

  SweepConfig threaded = serial;
  threaded.threads = 0;
  EXPECT_EQ(report("csv", threaded, run_sweep(threaded)), truth);
}

// --- Report rendering -------------------------------------------------------

TEST(SweepReport, CsvShapeMatchesGrid) {
  SweepConfig config = short_sweep();
  config.threads = 0;
  const auto rows = run_sweep(config);
  const std::string csv = report("csv", config, rows);

  std::vector<std::string> lines;
  std::string current;
  for (const char c : csv) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  ASSERT_EQ(lines.size(), rows.size() + 1);  // header + one line per point
  EXPECT_EQ(lines[0].substr(0, 31), "scenario,channel_mbps,deadline_");
  const auto columns = [](const std::string& line) {
    return 1 + static_cast<int>(std::count(line.begin(), line.end(), ','));
  };
  const int expected =
      1 + 2 + static_cast<int>(sweep_metric_names(config).size());
  for (const auto& line : lines) EXPECT_EQ(columns(line), expected);
}

TEST(SweepReport, UnknownFormatThrows) {
  SweepConfig config;
  std::ostringstream out;
  EXPECT_THROW(write_sweep_report(out, "yaml", config, {}), ContractViolation);
}

}  // namespace
}  // namespace seo
