// Scenario library tests: registry integrity, golden-trace regression
// fingerprints across thread counts, and the placement property suite for
// make_obstacles / make_moving_obstacles.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/scenario_library.hpp"
#include "sim/sweep.hpp"
#include "util/expect.hpp"

namespace seo {
namespace {

// --- Registry --------------------------------------------------------------

TEST(ScenarioLibrary, RegistryIsWellFormed) {
  const auto& entries = scenario_library();
  ASSERT_GE(entries.size(), 10u);
  std::vector<std::string> seen;
  for (const auto& entry : entries) {
    EXPECT_FALSE(entry.name.empty());
    EXPECT_FALSE(entry.summary.empty());
    ASSERT_NE(entry.make, nullptr);
    for (const auto& other : seen) EXPECT_NE(entry.name, other);
    seen.push_back(entry.name);
    // Every entry builds a valid config with a non-empty pipeline rig.
    const ScenarioConfig config = entry.make();
    EXPECT_GT(config.tau_s, 0.0);
    EXPECT_FALSE(config.pipelines.empty());
  }
}

TEST(ScenarioLibrary, LookupAndErrors) {
  EXPECT_NE(find_scenario("paper_default"), nullptr);
  EXPECT_EQ(find_scenario("no_such_rig"), nullptr);
  EXPECT_EQ(make_scenario("fleet_rig").pipelines.size(), 5u);
  EXPECT_THROW(make_scenario("no_such_rig"), ContractViolation);
  EXPECT_EQ(scenario_names().size(), scenario_library().size());
}

TEST(ScenarioLibrary, FactoriesArePure) {
  for (const auto& entry : scenario_library()) {
    const ScenarioConfig a = entry.make();
    const ScenarioConfig b = entry.make();
    EXPECT_EQ(a.seed, b.seed) << entry.name;
    EXPECT_EQ(a.obstacle_count, b.obstacle_count) << entry.name;
    EXPECT_EQ(a.pipelines.size(), b.pipelines.size()) << entry.name;
  }
}

// --- Golden-trace regression across thread counts --------------------------

/// Scalar fingerprint of one experiment.  Doubles are captured as raw bit
/// patterns: "bit-identical", not "close".
struct Fingerprint {
  int episodes_used = 0;
  int attempts = 0;
  int collisions = 0;
  int off_roads = 0;
  int timeouts = 0;
  std::uint64_t intervals = 0;
  std::uint64_t mean_delta_max_bits = 0;
  std::uint64_t energy_actual_bits = 0;
  std::uint64_t energy_baseline_bits = 0;
  std::uint64_t min_h_bits = 0;

  bool operator==(const Fingerprint&) const = default;
};

/// Fingerprints every library rig, as one sweep grid at `threads`, on the
/// smoke grid's short horizon so the full library stays fast in unit
/// tests: 45 m route, small lookup table, unchanged physics.
std::vector<Fingerprint> library_fingerprints(int threads) {
  SweepConfig config;
  config.scenarios.clear();
  for (const auto& entry : scenario_library())
    config.scenarios.push_back(entry.name);
  config.base_overrides = smoke_sweep().base_overrides;
  config.episodes = 2;
  config.max_attempts = 6;
  config.base_seed = 4242;
  config.require_success = false;  // aggregate everything: total determinism
  config.threads = threads;

  std::vector<Fingerprint> fingerprints;
  for (const SweepRow& row : run_sweep(config)) {
    const ExperimentResult& r = row.result;
    const EnergyComparison energy =
        r.combined_model_energy(row.scenario.platform);
    Fingerprint fp;
    fp.episodes_used = r.episodes_used;
    fp.attempts = r.attempts;
    fp.collisions = r.collisions;
    fp.off_roads = r.off_roads;
    fp.timeouts = r.timeouts;
    fp.intervals = r.intervals;
    fp.mean_delta_max_bits = std::bit_cast<std::uint64_t>(r.mean_delta_max());
    fp.energy_actual_bits = std::bit_cast<std::uint64_t>(energy.actual_j);
    fp.energy_baseline_bits = std::bit_cast<std::uint64_t>(energy.baseline_j);
    fp.min_h_bits = std::bit_cast<std::uint64_t>(
        r.min_h.empty() ? 0.0 : r.min_h.mean());
    fingerprints.push_back(fp);
  }
  return fingerprints;
}

TEST(ScenarioLibraryGolden, FingerprintsBitIdenticalAcrossThreadCounts) {
  const auto& entries = scenario_library();
  // The serial (threads=1) grid is the golden reference; 2 runners and
  // all hardware threads must reproduce every row bit for bit.
  const std::vector<Fingerprint> serial = library_fingerprints(1);
  ASSERT_EQ(serial.size(), entries.size());
  for (const int threads : {2, 0}) {
    const std::vector<Fingerprint> fps = library_fingerprints(threads);
    ASSERT_EQ(fps.size(), serial.size());
    for (std::size_t i = 0; i < fps.size(); ++i)
      EXPECT_EQ(fps[i], serial[i])
          << entries[i].name << " threads=" << threads;
  }
  // The short horizon must still produce signal, not vacuous zeros.
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].episodes_used, 2) << entries[i].name;
    EXPECT_GT(serial[i].intervals, 0u) << entries[i].name;
  }
}

TEST(ScenarioLibraryGolden, FingerprintsAreSeedSensitive) {
  ExperimentConfig a;
  a.scenario = make_scenario("paper_default");
  a.scenario.road.length = 45.0;
  a.scenario.max_episode_s = 12.0;
  a.scenario.table.distance_bins = 15;
  a.scenario.table.bearing_bins = 9;
  a.scenario.table.speed_bins = 9;
  a.episodes = 2;
  a.max_attempts = 6;
  a.require_success = false;
  a.base_seed = 4242;
  ExperimentConfig b = a;
  b.base_seed = 4243;
  const ExperimentResult ra = run_experiment(a);
  const ExperimentResult rb = run_experiment(b);
  EXPECT_TRUE(ra.mean_delta_max() != rb.mean_delta_max() ||
              ra.avg_speed.mean() != rb.avg_speed.mean() ||
              ra.min_h.mean() != rb.min_h.mean());
}

// --- Placement properties ---------------------------------------------------

TEST(ObstacleProperties, AlwaysInsideRegionAndLateralBound) {
  for (const std::uint64_t seed : {1u, 7u, 23u, 99u, 1234u}) {
    for (const int count : {1, 2, 3, 5, 8, 12}) {
      ScenarioConfig c = default_scenario();
      c.obstacle_count = count;
      Rng rng(seed);
      const ObstacleField field = make_obstacles(c, rng);
      ASSERT_EQ(field.size(), static_cast<std::size_t>(count));
      const double region_start = c.road.length * (1.0 - c.obstacle_region);
      for (std::size_t i = 0; i < field.size(); ++i) {
        const Obstacle o = field.at(i);
        EXPECT_GE(o.center.x, region_start) << "seed=" << seed;
        EXPECT_LE(o.center.x, c.road.length - 2.0) << "seed=" << seed;
        EXPECT_LE(std::abs(o.center.y), c.obstacle_lateral_max)
            << "seed=" << seed;
      }
    }
  }
}

TEST(ObstacleProperties, PairwiseGapAtLeastConfiguredMinimum) {
  for (const std::uint64_t seed : {1u, 7u, 23u, 99u, 1234u}) {
    for (const int count : {2, 3, 4, 5}) {
      ScenarioConfig c = default_scenario();
      c.obstacle_count = count;
      // Feasible geometry: (count-1) gaps of 6 m fit in the ~30 m band.
      ASSERT_LE(c.min_obstacle_gap * (count - 1),
                c.road.length * c.obstacle_region - 3.0);
      Rng rng(seed);
      const ObstacleField field = make_obstacles(c, rng);
      for (std::size_t i = 1; i < field.size(); ++i) {
        EXPECT_GE(field.at(i).center.x - field.at(i - 1).center.x,
                  c.min_obstacle_gap - 1e-12)
            << "seed=" << seed << " count=" << count;
      }
    }
  }
}

TEST(ObstacleProperties, InfeasibleGapDegradesToEvenPackingInBand) {
  ScenarioConfig c = default_scenario();
  c.obstacle_count = 20;  // 19 gaps of 6 m cannot fit in ~30 m
  Rng rng(5);
  const ObstacleField field = make_obstacles(c, rng);
  ASSERT_EQ(field.size(), 20u);
  for (std::size_t i = 1; i < field.size(); ++i)
    EXPECT_GT(field.at(i).center.x, field.at(i - 1).center.x);
  EXPECT_LE(field.at(field.size() - 1).center.x, c.road.length - 2.0);
}

TEST(ObstacleProperties, DeterministicPerSeed) {
  ScenarioConfig c = default_scenario();
  c.obstacle_count = 6;
  Rng a(77), b(77), other(78);
  const ObstacleField fa = make_obstacles(c, a);
  const ObstacleField fb = make_obstacles(c, b);
  const ObstacleField fo = make_obstacles(c, other);
  ASSERT_EQ(fa.size(), fb.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa.at(i).center.x, fb.at(i).center.x);
    EXPECT_EQ(fa.at(i).center.y, fb.at(i).center.y);
    any_diff |= fa.at(i).center.x != fo.at(i).center.x ||
                fa.at(i).center.y != fo.at(i).center.y;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ObstacleProperties, MovingFieldMatchesStaticPlacementAtTimeZero) {
  for (const std::uint64_t seed : {3u, 11u, 42u}) {
    ScenarioConfig c = make_scenario("crossing_pedestrians");
    Rng static_rng(seed), moving_rng(seed);
    const ObstacleField placed = make_obstacles(c, static_rng);
    const MovingObstacleField moving = make_moving_obstacles(c, moving_rng);
    ASSERT_EQ(moving.size(), placed.size());
    const ObstacleField snapshot = moving.at(0.0);
    for (std::size_t i = 0; i < placed.size(); ++i) {
      EXPECT_NEAR(snapshot.at(i).center.x, placed.at(i).center.x, 1e-12)
          << "seed=" << seed;
      EXPECT_NEAR(snapshot.at(i).center.y, placed.at(i).center.y, 1e-12)
          << "seed=" << seed;
      EXPECT_EQ(snapshot.at(i).radius, placed.at(i).radius);
    }
  }
}

TEST(ObstacleProperties, MovingFieldSpeedBoundCoversConfiguredMotion) {
  ScenarioConfig c = make_scenario("drifting_convoy");
  Rng rng(9);
  const MovingObstacleField moving = make_moving_obstacles(c, rng);
  constexpr double kTwoPi = 6.28318530717958647692;
  const double expected = c.obstacle_drift_speed +
                          c.obstacle_osc_amplitude *
                              (kTwoPi / c.obstacle_osc_period);
  EXPECT_NEAR(moving.max_obstacle_speed(), expected, 1e-9);
}

}  // namespace
}  // namespace seo
