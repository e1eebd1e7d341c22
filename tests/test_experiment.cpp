// ExperimentResult aggregation edge cases: require_success=false,
// max_attempts exhaustion, and zero-interval / zero-frame aggregates must
// produce well-defined numbers (no division by zero, no NaNs); plus a
// golden of the skip/retry bookkeeping on a rig whose attempts fail.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "sim/experiment.hpp"
#include "sim/scenario_library.hpp"
#include "util/expect.hpp"

namespace seo {
namespace {

/// A rig the vehicle cannot finish: the clock expires long before the end
/// of the route, so with require_success=true every attempt times out.
ScenarioConfig unfinishable() {
  ScenarioConfig c = make_scenario("paper_default");
  c.obstacle_count = 0;
  c.max_episode_s = 0.4;  // 20 ticks of progress on a 100 m route
  c.table.distance_bins = 7;
  c.table.bearing_bins = 5;
  c.table.speed_bins = 5;
  return c;
}

TEST(ExperimentEdge, RequireSuccessFalseAggregatesFailedEpisodes) {
  ExperimentConfig config;
  config.scenario = unfinishable();
  config.episodes = 3;
  config.max_attempts = 3;
  config.require_success = false;
  const ExperimentResult r = run_experiment(config);

  EXPECT_EQ(r.episodes_used, 3);
  EXPECT_EQ(r.attempts, 3);
  EXPECT_EQ(r.failures, 0);  // nothing is skipped when success isn't required
  EXPECT_EQ(r.timeouts, 3);  // ...but outcome counters still record the truth
  EXPECT_GT(r.intervals, 0u);
  EXPECT_FALSE(std::isnan(r.mean_delta_max()));
  EXPECT_FALSE(std::isnan(r.avg_speed.mean()));
}

TEST(ExperimentEdge, MaxAttemptsExhaustionLeavesConsistentCounters) {
  ExperimentConfig config;
  config.scenario = unfinishable();
  config.episodes = 2;
  config.max_attempts = 4;
  config.require_success = true;  // impossible: every attempt times out
  const ExperimentResult r = run_experiment(config);

  EXPECT_EQ(r.episodes_used, 0);
  EXPECT_EQ(r.attempts, 4);
  EXPECT_EQ(r.failures, 4);
  EXPECT_EQ(r.timeouts, 4);
  EXPECT_EQ(r.collisions + r.off_roads + r.timeouts, r.failures);

  // Zero merged episodes: every derived scalar stays finite and defined.
  EXPECT_EQ(r.intervals, 0u);
  EXPECT_EQ(r.mean_delta_max(), 0.0);
  EXPECT_EQ(r.avg_speed.mean(), 0.0);
  EXPECT_TRUE(r.min_h.empty());
  const EnergyComparison energy =
      r.combined_model_energy(config.scenario.platform);
  EXPECT_EQ(energy.actual_j, 0.0);
  EXPECT_EQ(energy.baseline_j, 0.0);
  EXPECT_EQ(energy.gain(), 0.0);        // empty baseline -> 0, not NaN
  EXPECT_EQ(energy.normalized(), 1.0);  // empty baseline -> 1, not NaN
}

TEST(ExperimentEdge, ZeroIntervalEpisodesDoNotDivideByZero) {
  // An episode clock shorter than one base period: the tick loop never
  // runs, so the merged aggregate has zero intervals and an empty
  // deadline histogram.
  ExperimentConfig config;
  config.scenario = unfinishable();
  config.scenario.max_episode_s = config.scenario.tau_s * 0.5;
  config.episodes = 2;
  config.max_attempts = 2;
  config.require_success = false;
  const ExperimentResult r = run_experiment(config);

  EXPECT_EQ(r.episodes_used, 2);
  EXPECT_EQ(r.intervals, 0u);
  EXPECT_EQ(r.deadline_hist.total(), 0u);
  EXPECT_EQ(r.mean_delta_max(), 0.0);
  EXPECT_EQ(r.avg_speed.mean(), 0.0);  // zero-duration episodes -> 0 speed
  EXPECT_FALSE(std::isnan(r.mean_delta_max()));
  const EnergyComparison energy =
      r.combined_model_energy(config.scenario.platform);
  EXPECT_FALSE(std::isnan(energy.gain()));
  EXPECT_FALSE(std::isnan(energy.normalized()));
}

TEST(ExperimentEdge, FailureBreakdownSumsOnPartialSuccess) {
  // Real mixed outcome: short clock + full route means some seeds finish
  // and some time out; the three failure buckets must always reconcile.
  ExperimentConfig config;
  config.scenario = make_scenario("paper_default");
  config.scenario.obstacle_count = 0;
  config.scenario.max_episode_s = 13.0;  // borderline: ~8.5 m/s over 100 m
  config.scenario.table.distance_bins = 7;
  config.scenario.table.bearing_bins = 5;
  config.scenario.table.speed_bins = 5;
  config.episodes = 4;
  config.max_attempts = 10;
  config.require_success = true;
  const ExperimentResult r = run_experiment(config);

  EXPECT_EQ(r.collisions + r.off_roads + r.timeouts, r.failures);
  EXPECT_LE(r.episodes_used + r.failures, r.attempts);
  EXPECT_LE(r.attempts, config.max_attempts);
}

TEST(ExperimentGolden, FailingAttemptsKeepPinnedBookkeeping) {
  // Unfiltered through 8 pacing obstacles: some attempts collide, so the
  // result depends on which attempts were skipped and retried.
  ExperimentConfig config;
  config.scenario = default_scenario();
  config.scenario.obstacle_count = 8;
  config.scenario.moving_obstacles = true;
  config.scenario.filtered = false;
  config.scenario.use_lookup_table = false;
  config.episodes = 3;
  config.max_attempts = 24;
  config.base_seed = 555;
  const ExperimentResult r = run_experiment(config);

  EXPECT_EQ(r.episodes_used, 3);
  EXPECT_EQ(r.attempts, 4);
  EXPECT_EQ(r.failures, 1);
  EXPECT_EQ(r.collisions, 1);
  EXPECT_EQ(r.off_roads, 0);
  EXPECT_EQ(r.timeouts, 0);
  EXPECT_EQ(r.intervals, 1092u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.avg_speed.mean()),
            0x401ebe421c264ceaull);  // 7.685799064481424
}

TEST(ExperimentEdge, ContractsRejectDegenerateConfigs) {
  ExperimentConfig config;
  config.scenario = make_scenario("paper_default");
  config.episodes = 0;
  EXPECT_THROW(run_experiment(config), ContractViolation);
  config.episodes = 10;
  config.max_attempts = 5;  // fewer attempts than required episodes
  EXPECT_THROW(run_experiment(config), ContractViolation);
}

}  // namespace
}  // namespace seo
