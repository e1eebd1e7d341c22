// Unit tests for the driving policy (the RL-agent substitution) — path
// tracking, gap-target avoidance, side commitment and speed control.
#include <gtest/gtest.h>

#include <cmath>

#include "control/hybrid_policy.hpp"
#include "util/expect.hpp"

namespace seo {
namespace {

HybridPolicyConfig noiseless_config() {
  HybridPolicyConfig c;
  c.steer_noise = 0.0;
  return c;
}

PolicyObservation observation(const Road& road, VehicleState state,
                              std::vector<Detection> detections = {}) {
  PolicyObservation obs;
  obs.state = state;
  obs.road = &road;
  obs.detections = std::move(detections);
  return obs;
}

VehicleState state_at(double x, double y, double heading, double speed) {
  VehicleState s;
  s.position = {x, y};
  s.heading = heading;
  s.speed = speed;
  return s;
}

TEST(HybridPolicy, TracksCenterlineWhenClear) {
  const Road road(RoadParams{});
  HybridPolicy policy(noiseless_config(), BicycleParams{}, Rng(1));
  const Control u =
      policy.act(observation(road, state_at(10, 0, 0, 8.5)));
  EXPECT_NEAR(u.steering, 0.0, 1e-9);
}

TEST(HybridPolicy, RecentersFromLateralOffset) {
  const Road road(RoadParams{});
  HybridPolicy policy(noiseless_config(), BicycleParams{}, Rng(2));
  const Control left =
      policy.act(observation(road, state_at(10, 2.0, 0, 8.5)));
  EXPECT_LT(left.steering, 0.0);  // steer right, back to center
  const Control right =
      policy.act(observation(road, state_at(10, -2.0, 0, 8.5)));
  EXPECT_GT(right.steering, 0.0);
}

TEST(HybridPolicy, PlansPassingLineAroundObstacle) {
  const Road road(RoadParams{});
  HybridPolicy policy(noiseless_config(), BicycleParams{}, Rng(3));
  // Obstacle slightly right of center, 12 m ahead: pass on the left.
  const PolicyObservation obs = observation(
      road, state_at(0, 0, 0, 8.5), {Detection{{12.0, -0.5}, 0.8, 12.0}});
  const double desired = policy.desired_lateral(obs);
  EXPECT_GE(desired - (-0.5), policy.config().lateral_clearance - 1e-9);
  const Control u = policy.act(obs);
  EXPECT_GT(u.steering, 0.0);  // steering toward the left passing line
}

TEST(HybridPolicy, IgnoresObstaclesBeyondPlanningRange) {
  const Road road(RoadParams{});
  HybridPolicy policy(noiseless_config(), BicycleParams{}, Rng(4));
  const PolicyObservation obs = observation(
      road, state_at(0, 0, 0, 8.5), {Detection{{60.0, 0.0}, 0.8, 60.0}});
  EXPECT_DOUBLE_EQ(policy.desired_lateral(obs), 0.0);
}

TEST(HybridPolicy, ThreadsBetweenStaggeredObstacles) {
  // Two staggered obstacles: the chosen line must keep the largest worst-
  // case separation achievable inside the road.
  const Road road(RoadParams{});
  HybridPolicy policy(noiseless_config(), BicycleParams{}, Rng(5));
  const PolicyObservation obs = observation(
      road, state_at(60, 0, 0, 8.5),
      {Detection{{72.0, -1.3}, 0.8, 12.0}, Detection{{78.0, 1.2}, 0.8, 18.0}});
  const double desired = policy.desired_lateral(obs);
  const double sep1 = std::abs(desired - (-1.3));
  const double sep2 = std::abs(desired - 1.2);
  EXPECT_GT(std::min(sep1, sep2), 2.0);
}

TEST(HybridPolicy, CommitsToChosenSideNearObstacle) {
  // Regression test for the side-flip collision: approaching an obstacle
  // already committed to the left (ego above the obstacle's line), the
  // policy must not pick a passing line on the right side.
  const Road road(RoadParams{});
  HybridPolicy policy(noiseless_config(), BicycleParams{}, Rng(6));
  const PolicyObservation obs = observation(
      road, state_at(74, 2.5, 0.1, 8.0),
      {Detection{{83.0, 0.2}, 0.8, 9.0}, Detection{{90.0, 1.2}, 0.8, 16.0}});
  const double desired = policy.desired_lateral(obs);
  EXPECT_GT(desired, 0.2);  // stays on the committed (left) side
}

TEST(HybridPolicy, NeverChoosesBlockedLine) {
  // Property: over random threat layouts, the chosen passing line never
  // requires crossing a nearby threat's lateral line (the side-flip
  // collision class), and always stays inside the road.
  const Road road(RoadParams{});
  HybridPolicy policy(noiseless_config(), BicycleParams{}, Rng(7));
  Rng rng(70);
  for (int trial = 0; trial < 200; ++trial) {
    const double ego_y = rng.uniform(-4.0, 4.0);
    std::vector<Detection> dets;
    const int n = rng.uniform_int(1, 3);
    for (int i = 0; i < n; ++i)
      dets.push_back(Detection{
          {rng.uniform(4.0, 16.0), rng.uniform(-2.0, 2.0)}, 0.8, 10.0});
    const PolicyObservation obs =
        observation(road, state_at(0, ego_y, 0, 8.0), dets);
    const double desired = policy.desired_lateral(obs);
    EXPECT_LE(std::abs(desired),
              road.half_width() + 1e-9);  // inside (or clamped to) the road
    for (const auto& det : dets) {
      if (det.position.x > 1.5 * policy.config().lookahead) continue;
      const double ty = det.position.y;
      // Crossing requires strictly opposite sides (product < 0).
      EXPECT_GE((ego_y - ty) * (desired - ty), -1e-9)
          << "trial " << trial << ": side flip across threat at y=" << ty;
    }
  }
}

TEST(HybridPolicy, SlowsDownForBlockingObstacle) {
  const Road road(RoadParams{});
  HybridPolicy policy(noiseless_config(), BicycleParams{}, Rng(8));
  const Control clear =
      policy.act(observation(road, state_at(0, 0, 0, 8.5)));
  const Control blocked = policy.act(observation(
      road, state_at(0, 0, 0, 8.5), {Detection{{6.0, 0.0}, 0.8, 6.0}}));
  EXPECT_LT(blocked.throttle, clear.throttle);
}

TEST(HybridPolicy, AcceleratesTowardTargetSpeed) {
  const Road road(RoadParams{});
  HybridPolicy policy(noiseless_config(), BicycleParams{}, Rng(9));
  const Control slow = policy.act(observation(road, state_at(0, 0, 0, 2.0)));
  EXPECT_GT(slow.throttle, 0.5);
  const Control fast =
      policy.act(observation(road, state_at(0, 0, 0, 12.0)));
  EXPECT_LT(fast.throttle, 0.0);
}

TEST(HybridPolicy, DeterministicWithoutNoise) {
  const Road road(RoadParams{});
  HybridPolicy a(noiseless_config(), BicycleParams{}, Rng(10));
  HybridPolicy b(noiseless_config(), BicycleParams{}, Rng(11));
  const PolicyObservation obs = observation(
      road, state_at(5, 0.3, 0.05, 7.0), {Detection{{20.0, 1.0}, 0.8, 15.0}});
  const Control ua = a.act(obs);
  const Control ub = b.act(obs);
  EXPECT_DOUBLE_EQ(ua.steering, ub.steering);
  EXPECT_DOUBLE_EQ(ua.throttle, ub.throttle);
}

TEST(HybridPolicy, ConfigContracts) {
  HybridPolicyConfig bad = noiseless_config();
  bad.lateral_clearance = 0.0;
  EXPECT_THROW(HybridPolicy(bad, BicycleParams{}, Rng(1)),
               ContractViolation);
  bad = noiseless_config();
  bad.min_speed_factor = 0.0;
  EXPECT_THROW(HybridPolicy(bad, BicycleParams{}, Rng(1)),
               ContractViolation);
}

}  // namespace
}  // namespace seo
