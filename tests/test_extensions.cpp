// Tests for the extension substrates: moving obstacles, the model-scaling
// optimizer, edge-server queueing, deadline-table serialization, episode
// telemetry, and the text configuration bridge.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "dynamics/motion.hpp"
#include "net/edge_server.hpp"
#include "net/offload_link.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario_io.hpp"
#include "sim/simulation.hpp"
#include "sim/world.hpp"
#include "util/config.hpp"
#include "util/expect.hpp"
#include "util/units.hpp"

namespace seo {
namespace {

// --- Moving obstacles ---------------------------------------------------

TEST(ObstacleMotion, LinearDriftClosedForm) {
  ObstacleMotion m;
  m.origin = {10.0, 0.0};
  m.velocity = {1.0, -0.5};
  EXPECT_DOUBLE_EQ(m.at(0.0).center.x, 10.0);
  EXPECT_DOUBLE_EQ(m.at(4.0).center.x, 14.0);
  EXPECT_DOUBLE_EQ(m.at(4.0).center.y, -2.0);
}

TEST(ObstacleMotion, OscillationBoundedByAmplitude) {
  ObstacleMotion m;
  m.origin = {10.0, 0.0};
  m.osc_amplitude = 1.5;
  m.osc_omega = 2.0;
  for (double t = 0.0; t < 10.0; t += 0.05) {
    EXPECT_LE(std::abs(m.at(t).center.y), 1.5 + 1e-12);
    EXPECT_DOUBLE_EQ(m.at(t).center.x, 10.0);
  }
}

TEST(ObstacleMotion, MaxSpeedBound) {
  ObstacleMotion m;
  m.velocity = {3.0, 4.0};
  m.osc_amplitude = 1.5;
  m.osc_omega = 2.0;
  EXPECT_DOUBLE_EQ(m.max_speed(), 5.0 + 3.0);
  // Numerical check: finite-difference speed never exceeds the bound.
  for (double t = 0.0; t < 5.0; t += 0.01) {
    const Vec2 v = (m.at(t + 1e-5).center - m.at(t).center) / 1e-5;
    EXPECT_LE(v.norm(), m.max_speed() + 1e-3);
  }
}

TEST(MovingObstacleField, SnapshotAtTime) {
  ObstacleMotion m;
  m.origin = {5.0, 1.0};
  m.radius = 0.7;
  m.velocity = {0.0, 1.0};
  const MovingObstacleField field({m});
  EXPECT_EQ(field.at(2.0).size(), 1u);
  EXPECT_DOUBLE_EQ(field.at(2.0).at(0).center.y, 3.0);
}

TEST(World, DynamicObstaclesTrackTime) {
  ObstacleMotion m;
  m.origin = {50.0, -3.0};
  m.velocity = {0.0, 1.0};  // crossing the road upward
  World world(Road(RoadParams{}), MovingObstacleField({m}), BicycleModel{},
              VehicleState{{0, 0}, 0.0, 0.0}, 0.9);
  EXPECT_TRUE(world.dynamic_environment());
  // Stationary vehicle; advance 3 s: obstacle should be at y = 0.
  for (int i = 0; i < 150; ++i) world.apply(Control{0.0, 0.0}, 0.02, 2);
  EXPECT_NEAR(world.obstacles().at(0).center.y, -3.0 + world.time(), 1e-9);
}

TEST(World, MovingObstacleCanCauseCollision) {
  // Obstacle sweeps across the standing vehicle's position.
  ObstacleMotion m;
  m.origin = {0.0, -5.0};
  m.velocity = {0.0, 2.0};
  World world(Road(RoadParams{}), MovingObstacleField({m}), BicycleModel{},
              VehicleState{{0, 0}, 0.0, 0.0}, 0.9);
  for (int i = 0; i < 400 && !world.terminal(); ++i)
    world.apply(Control{0.0, 0.0}, 0.02, 4);
  EXPECT_TRUE(world.collided());
}

TEST(LipschitzInterval, EnvironmentSpeedTightensCertificate) {
  LipschitzIntervalConfig static_config;
  LipschitzIntervalConfig dynamic_config;
  dynamic_config.environment_speed = 3.0;
  const Barrier barrier{BarrierConfig{}};
  const LipschitzSafeInterval s(static_config, barrier);
  const LipschitzSafeInterval d(dynamic_config, barrier);
  const ObstacleField field({Obstacle{{15.0, 0.0}, 1.0}});
  VehicleState state;
  state.speed = 8.0;
  EXPECT_LT(d.evaluate(state, Control{}, field).delta_max_s,
            s.evaluate(state, Control{}, field).delta_max_s);
}

TEST(Episode, MovingObstaclesFilteredStaysSafe) {
  ScenarioConfig c = default_scenario();
  c.obstacle_count = 3;
  c.moving_obstacles = true;
  c.mode = OptimizerMode::kGating;
  c.filtered = true;
  int completed = 0;
  for (std::uint64_t seed = 600; seed < 606; ++seed) {
    c.seed = seed;
    const EpisodeResult r = run_episode(c);
    EXPECT_FALSE(r.collided) << "seed=" << seed;
    completed += r.completed ? 1 : 0;
  }
  EXPECT_GE(completed, 4);  // dynamic scenes may occasionally time out
}

TEST(Episode, MovingObstaclesShrinkDeadlines) {
  // Same placement, moving vs static: the certificate must sample smaller
  // delta_max in the dynamic world (environment speed enters the bound).
  ScenarioConfig c = default_scenario();
  c.obstacle_count = 3;
  c.mode = OptimizerMode::kGating;
  c.seed = 611;
  const EpisodeResult still = run_episode(c);
  c.moving_obstacles = true;
  const EpisodeResult moving = run_episode(c);
  EXPECT_LT(moving.mean_delta_max(), still.mean_delta_max());
}

// --- Model-scaling optimizer ----------------------------------------------

TEST(ScaledMode, OptSlotsRunScaledVariant) {
  ScenarioConfig c = default_scenario();
  c.obstacle_count = 2;
  c.mode = OptimizerMode::kScaled;
  c.seed = 620;
  const EpisodeResult r = run_episode(c);
  ASSERT_TRUE(r.success());
  std::uint64_t scaled = 0, gated = 0;
  for (const auto& p : r.pipelines) {
    scaled += p.tally.total().scaled_local;
    gated += p.tally.total().gated;
  }
  EXPECT_GT(scaled, 0u);
  EXPECT_EQ(gated, 0u);  // scaling replaces gating, never idles frames
}

TEST(ScaledMode, GainBetweenLocalAndGating) {
  ExperimentConfig ec;
  ec.scenario = default_scenario();
  ec.scenario.obstacle_count = 2;
  ec.episodes = 6;
  ec.base_seed = 630;

  ec.scenario.mode = OptimizerMode::kScaled;
  const ExperimentResult scaled = run_experiment(ec);
  ec.scenario.mode = OptimizerMode::kGating;
  const ExperimentResult gated = run_experiment(ec);

  const auto& pm = ec.scenario.platform;
  const double g_scaled = scaled.combined_model_energy(pm).gain();
  const double g_gated = gated.combined_model_energy(pm).gain();
  EXPECT_GT(g_scaled, 0.05);   // real savings
  EXPECT_LT(g_scaled, g_gated);  // but less than full gating
}

TEST(ScaledMode, KeepsDetectionsFresherThanGating) {
  ScenarioConfig c = default_scenario();
  c.obstacle_count = 2;
  c.seed = 640;
  EpisodeTrace scaled_trace, gated_trace;
  c.mode = OptimizerMode::kScaled;
  (void)run_episode(c, &scaled_trace);
  c.mode = OptimizerMode::kGating;
  (void)run_episode(c, &gated_trace);
  EXPECT_LT(scaled_trace.max_detection_age(),
            gated_trace.max_detection_age());
}

TEST(ScaledMode, EnergyAccountingUsesScaledSpec) {
  PipelineTally tally(4);
  tally.record(4, SlotOutcome::kScaledLocal);
  tally.record(4, SlotOutcome::kLocalDeadline);
  const PerceptionModelSpec full = resnet152_px2();
  const PerceptionModelSpec scaled = resnet50_px2();
  PlatformPowerModel pm;
  const EnergyComparison cmp = model_energy(tally, full, 0.02, pm, &scaled);
  const double e_full = local_frame_energy_j(full, 0.02, pm);
  const double e_scaled = local_frame_energy_j(scaled, 0.02, pm);
  EXPECT_NEAR(cmp.actual_j, e_full + e_scaled, 1e-12);
  EXPECT_NEAR(cmp.baseline_j, 2 * e_full, 1e-12);
  // Omitting the scaled spec with scaled frames present is a contract bug.
  EXPECT_THROW(model_energy(tally, full, 0.02, pm), ContractViolation);
}

// --- Edge server -------------------------------------------------------------

TEST(EdgeServer, SequentialJobsDoNotQueue) {
  EdgeServer server(EdgeServerParams{0.005, 1, 4});
  EXPECT_DOUBLE_EQ(server.submit(0.0).value(), 0.005);
  EXPECT_DOUBLE_EQ(server.submit(0.010).value(), 0.015);
  EXPECT_DOUBLE_EQ(server.max_queue_delay(), 0.0);
}

TEST(EdgeServer, BurstSerializesOnWorkers) {
  EdgeServer server(EdgeServerParams{0.005, 2, 8});
  // Three simultaneous arrivals on two workers.
  EXPECT_DOUBLE_EQ(server.submit(1.0).value(), 1.005);
  EXPECT_DOUBLE_EQ(server.submit(1.0).value(), 1.005);
  EXPECT_DOUBLE_EQ(server.submit(1.0).value(), 1.010);  // queued behind
  EXPECT_NEAR(server.max_queue_delay(), 0.005, 1e-12);
}

TEST(EdgeServer, ShedsWhenQueueFull) {
  EdgeServer server(EdgeServerParams{0.010, 1, 1});
  EXPECT_TRUE(server.submit(0.0).has_value());   // running
  EXPECT_TRUE(server.submit(0.0).has_value());   // queued
  EXPECT_FALSE(server.submit(0.0).has_value());  // shed
  EXPECT_EQ(server.admitted(), 2u);
  EXPECT_EQ(server.rejected(), 1u);
}

TEST(EdgeServer, Contracts) {
  EXPECT_THROW(EdgeServer(EdgeServerParams{0.0, 1, 4}), ContractViolation);
  EXPECT_THROW(EdgeServer(EdgeServerParams{0.01, 0, 4}), ContractViolation);
}

TEST(OffloadLink, UsesAttachedServerQueue) {
  FixedChannel channel(units::mbps(16.0));
  EdgeServer server(EdgeServerParams{0.004, 1, 8});
  OffloadLink link(OffloadLinkParams{}, channel, Rng(3), &server);
  const auto a = link.submit(0, units::kib(16.0), 0.0, 0.0);
  const auto b = link.submit(1, units::kib(16.0), 0.0, 0.0);
  // Equal uplinks arrive together; the second serializes behind the first.
  EXPECT_NEAR(b.response_time - a.response_time, 0.004, 1e-9);
}

TEST(OffloadLink, ShedOffloadNeverArrives) {
  FixedChannel channel(units::mbps(16.0));
  EdgeServer server(EdgeServerParams{0.05, 1, 0});  // no queue at all
  OffloadLink link(OffloadLinkParams{}, channel, Rng(4), &server);
  (void)link.submit(0, units::kib(16.0), 0.0, 0.0);
  const auto second = link.submit(0, units::kib(16.0), 0.0, 0.0);
  EXPECT_GE(second.response_time, kNeverArrives);
  EXPECT_EQ(link.shed(), 1u);
  EXPECT_TRUE(link.collect_arrivals(1e6).size() == 1);  // only the first
}

TEST(Episode, EdgeServerQueueingPreservesSafety) {
  ScenarioConfig c = default_scenario();
  c.obstacle_count = 3;
  c.mode = OptimizerMode::kOffload;
  c.use_edge_server = true;
  c.edge_server = EdgeServerParams{0.012, 1, 1};  // slow, tiny server
  c.seed = 650;
  const EpisodeResult r = run_episode(c);
  EXPECT_FALSE(r.collided);
}

// --- Telemetry ----------------------------------------------------------------

TEST(Trace, RecordsEveryBasePeriod) {
  ScenarioConfig c = default_scenario();
  c.obstacle_count = 2;
  c.seed = 660;
  EpisodeTrace trace;
  const EpisodeResult r = run_episode(c, &trace);
  ASSERT_TRUE(r.success());
  // One sample per tick (final partial tick may be cut by termination).
  const auto expected = static_cast<double>(r.duration_s / c.tau_s);
  EXPECT_NEAR(static_cast<double>(trace.size()), expected, 2.0);
  // Time strictly increases by tau.
  for (std::size_t i = 1; i < trace.size(); ++i)
    EXPECT_NEAR(trace.samples()[i].t - trace.samples()[i - 1].t, c.tau_s,
                1e-9);
}

TEST(Trace, CsvHasHeaderAndRows) {
  EpisodeTrace trace;
  TraceSample s;
  s.t = 0.02;
  s.position = {1.0, 2.0};
  trace.add(s);
  const std::string csv = trace.to_csv();
  EXPECT_NE(csv.find("t,x,y,heading"), std::string::npos);
  EXPECT_NE(csv.find("0.0200,1.0000,2.0000"), std::string::npos);
}

TEST(Trace, EngagementRateMatchesFilterActivity) {
  ScenarioConfig c = default_scenario();
  c.obstacle_count = 4;
  c.filtered = true;
  c.seed = 661;
  EpisodeTrace trace;
  const EpisodeResult r = run_episode(c, &trace);
  const auto engaged_ticks = std::count_if(
      trace.samples().begin(), trace.samples().end(),
      [](const TraceSample& s) { return s.filter_engaged; });
  EXPECT_NEAR(static_cast<double>(engaged_ticks),
              static_cast<double>(r.filter_engagements), 1.5);
}

// --- Config bridge ---------------------------------------------------------------

TEST(Config, ParsesTypedValues) {
  const KeyValueConfig config = KeyValueConfig::parse_string(
      "a = 3\nb = 2.5 # comment\n# full comment line\nc = yes\nd = text\n");
  EXPECT_EQ(config.get_int("a", 0), 3);
  EXPECT_DOUBLE_EQ(config.get_double("b", 0.0), 2.5);
  EXPECT_TRUE(config.get_bool("c", false));
  EXPECT_EQ(config.get_string("d"), "text");
  EXPECT_EQ(config.get_int("missing", 7), 7);
}

TEST(Config, RejectsMalformedInput) {
  EXPECT_THROW(KeyValueConfig::parse_string("novalue\n"), ContractViolation);
  const KeyValueConfig config =
      KeyValueConfig::parse_string("x = notanumber\n");
  EXPECT_THROW(config.get_double("x", 0.0), ContractViolation);
  EXPECT_THROW(config.get_bool("x", false), ContractViolation);
}

TEST(Config, LaterKeysOverride) {
  const KeyValueConfig config =
      KeyValueConfig::parse_string("k = 1\nk = 2\n");
  EXPECT_EQ(config.get_int("k", 0), 2);
  EXPECT_EQ(config.size(), 1u);
}

TEST(ScenarioIo, AppliesOverrides) {
  ScenarioConfig scenario = default_scenario();
  const KeyValueConfig config = KeyValueConfig::parse_string(
      "tau_ms = 25\nobstacles = 5\nmode = offload\nfiltered = false\n"
      "channel_mbps = 42\nbogus_key = 1\n");
  const auto unknown = apply_overrides(config, scenario);
  EXPECT_DOUBLE_EQ(scenario.tau_s, 0.025);
  EXPECT_DOUBLE_EQ(scenario.pipelines[1].sensor.period_s, 0.05);  // 2*tau
  EXPECT_EQ(scenario.obstacle_count, 5);
  EXPECT_EQ(scenario.mode, OptimizerMode::kOffload);
  EXPECT_FALSE(scenario.filtered);
  EXPECT_DOUBLE_EQ(scenario.channel_scale_mbps, 42.0);
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "bogus_key");
}

TEST(ScenarioIo, TemplateRoundTrips) {
  // The shipped template must parse and apply cleanly with no unknowns.
  const KeyValueConfig config =
      KeyValueConfig::parse_string(scenario_config_template());
  ScenarioConfig scenario = default_scenario();
  const auto unknown = apply_overrides(config, scenario);
  EXPECT_TRUE(unknown.empty());
  EXPECT_EQ(scenario.obstacle_count, 3);
  EXPECT_EQ(scenario.mode, OptimizerMode::kGating);
}

TEST(ScenarioIo, RejectsUnknownMode) {
  ScenarioConfig scenario = default_scenario();
  const KeyValueConfig config =
      KeyValueConfig::parse_string("mode = warp\n");
  EXPECT_THROW(apply_overrides(config, scenario), ContractViolation);
}

}  // namespace
}  // namespace seo
