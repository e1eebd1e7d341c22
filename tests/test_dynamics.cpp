// Unit + property tests for the kinematic bicycle model, obstacles and road
// geometry — the plant the safety analysis is derived on.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <vector>

#include "dynamics/bicycle.hpp"
#include "dynamics/obstacle.hpp"
#include "dynamics/road.hpp"
#include "util/expect.hpp"

namespace seo {
namespace {

TEST(Vec2, Arithmetic) {
  const Vec2 a{1.0, 2.0}, b{3.0, -1.0};
  EXPECT_DOUBLE_EQ((a + b).x, 4.0);
  EXPECT_DOUBLE_EQ((a - b).y, 3.0);
  EXPECT_DOUBLE_EQ((a * 2.0).x, 2.0);
  EXPECT_DOUBLE_EQ((2.0 * a).y, 4.0);
  EXPECT_DOUBLE_EQ(a.dot(b), 1.0);
  EXPECT_DOUBLE_EQ(a.cross(b), -7.0);
  EXPECT_DOUBLE_EQ((Vec2{3.0, 4.0}.norm()), 5.0);
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
}

TEST(Vec2, NormalizedHandlesZero) {
  const Vec2 z{0.0, 0.0};
  EXPECT_DOUBLE_EQ(z.normalized().x, 1.0);
  const Vec2 v = Vec2{0.0, -2.0}.normalized();
  EXPECT_DOUBLE_EQ(v.y, -1.0);
}

TEST(Vec2, FromPolar) {
  const Vec2 v = Vec2::from_polar(2.0, std::numbers::pi / 2.0);
  EXPECT_NEAR(v.x, 0.0, 1e-12);
  EXPECT_NEAR(v.y, 2.0, 1e-12);
}

class WrapAngleTest : public ::testing::TestWithParam<double> {};

TEST_P(WrapAngleTest, ResultInHalfOpenInterval) {
  const double wrapped = wrap_angle(GetParam());
  EXPECT_GT(wrapped, -std::numbers::pi);
  EXPECT_LE(wrapped, std::numbers::pi);
  // Wrapping preserves the angle modulo 2*pi.
  EXPECT_NEAR(std::sin(wrapped), std::sin(GetParam()), 1e-9);
  EXPECT_NEAR(std::cos(wrapped), std::cos(GetParam()), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, WrapAngleTest,
                         ::testing::Values(-25.0, -7.0, -3.2, -3.14159, 0.0,
                                           1.0, 3.14159, 3.2, 9.42, 100.0,
                                           -1e4, 1e6));

TEST(WrapAngle, WithinAFewTurnsMatchesTheSubtractionLoop) {
  // Up to 8 pi the subtraction loop runs as it always did, bit for bit.
  const auto loop = [](double a) {
    constexpr double kPi = 3.14159265358979323846;
    while (a > kPi) a -= 2.0 * kPi;
    while (a <= -kPi) a += 2.0 * kPi;
    return a;
  };
  const double limit = 8.0 * 3.14159265358979323846;
  for (int i = -4000; i <= 4000; ++i) {
    const double a = limit * i / 4000.0;
    EXPECT_EQ(wrap_angle(a), loop(a)) << a;
  }
  const double pi = 3.14159265358979323846;
  for (const double a : {pi, -pi, 3.0 * pi, -3.0 * pi, limit, -limit}) {
    for (const double b : {std::nextafter(a, -1e9), a, std::nextafter(a, 1e9)})
      EXPECT_EQ(wrap_angle(b), loop(b)) << b;
  }
}

TEST(WrapAngle, HugeAndNonFiniteAnglesReturnPromptly) {
  // The subtraction loop never ends for these: a - 2 pi == a beyond ~7e16,
  // and for an infinite angle.
  const double max = std::numeric_limits<double>::max();
  for (const double a : {7e16, -1e17, 1e300, max, -max}) {
    const double wrapped = wrap_angle(a);
    EXPECT_GT(wrapped, -std::numbers::pi) << a;
    EXPECT_LE(wrapped, std::numbers::pi) << a;
  }
  EXPECT_TRUE(std::isnan(wrap_angle(std::numeric_limits<double>::infinity())));
  EXPECT_TRUE(
      std::isnan(wrap_angle(-std::numeric_limits<double>::infinity())));
  EXPECT_TRUE(std::isnan(wrap_angle(std::nan(""))));
}

TEST(Bicycle, StraightLineStaysOnAxis) {
  const BicycleModel model;
  VehicleState s;
  s.speed = 10.0;
  for (int i = 0; i < 200; ++i) s = model.step(s, Control{0.0, 0.0}, 0.01);
  EXPECT_NEAR(s.position.y, 0.0, 1e-9);
  EXPECT_NEAR(s.heading, 0.0, 1e-9);
  EXPECT_GT(s.position.x, 0.0);
}

TEST(Bicycle, LeftSteerTurnsLeft) {
  const BicycleModel model;
  VehicleState s;
  s.speed = 8.0;
  for (int i = 0; i < 100; ++i) s = model.step(s, Control{0.3, 0.0}, 0.01);
  EXPECT_GT(s.heading, 0.1);
  EXPECT_GT(s.position.y, 0.0);
}

TEST(Bicycle, ThrottleAcceleratesBrakeDecelerates) {
  const BicycleModel model;
  VehicleState s;
  s.speed = 5.0;
  const VehicleState faster = model.step(s, Control{0.0, 1.0}, 0.1);
  EXPECT_GT(faster.speed, s.speed);
  const VehicleState slower = model.step(s, Control{0.0, -1.0}, 0.1);
  EXPECT_LT(slower.speed, s.speed);
}

TEST(Bicycle, SpeedNeverNegativeNorAboveMax) {
  BicycleParams p;
  p.max_speed = 12.0;
  const BicycleModel model(p);
  VehicleState s;
  s.speed = 0.5;
  for (int i = 0; i < 500; ++i) {
    s = model.step(s, Control{0.0, -1.0}, 0.02);
    EXPECT_GE(s.speed, 0.0);
  }
  for (int i = 0; i < 2000; ++i) {
    s = model.step(s, Control{0.0, 1.0}, 0.02);
    EXPECT_LE(s.speed, 12.0 + 1e-9);
  }
}

TEST(Bicycle, DragDecaysCoastingSpeed) {
  BicycleParams p;
  p.drag_coeff = 0.2;
  const BicycleModel model(p);
  VehicleState s;
  s.speed = 10.0;
  const VehicleState coasted = model.step(s, Control{0.0, 0.0}, 1.0);
  // v' = -drag*v -> exponential decay.
  EXPECT_NEAR(coasted.speed, 10.0 * std::exp(-0.2), 0.05);
}

TEST(Bicycle, ClampLimitsActuators) {
  const BicycleModel model;
  const Control c = model.clamp(Control{10.0, -5.0});
  EXPECT_DOUBLE_EQ(c.steering, model.params().max_steer);
  EXPECT_DOUBLE_EQ(c.throttle, -1.0);
}

TEST(Bicycle, SteadyStateTurningRadiusMatchesGeometry) {
  // At constant speed and steering, the KBM traces a circle of radius
  // R = l_r / sin(beta).
  const BicycleModel model;
  const double steer = 0.2;
  const double beta = model.slip_angle(steer);
  const double expected_r = model.params().wheelbase_rear / std::sin(beta);

  VehicleState s;
  s.speed = 5.0;
  // Drag-free throttle to hold speed ~constant: compensate drag.
  const double throttle =
      model.params().drag_coeff * 5.0 / model.params().max_accel;
  // Integrate one full-ish turn and fit the radius from yaw rate.
  const VehicleDerivative d = model.derivative(s, Control{steer, throttle});
  const double measured_r = s.speed / d.yaw_rate;
  EXPECT_NEAR(measured_r, expected_r, 1e-9);
}

TEST(Bicycle, Rk4AndEulerConvergeForSmallSteps) {
  const BicycleModel model;
  VehicleState rk = {{0, 0}, 0.0, 8.0};
  VehicleState eu = rk;
  const Control u{0.15, 0.3};
  for (int i = 0; i < 1000; ++i) {
    rk = model.step(rk, u, 0.001);
    eu = model.step_euler(eu, u, 0.001);
  }
  EXPECT_NEAR(distance(rk.position, eu.position), 0.0, 0.05);
  EXPECT_NEAR(rk.heading, eu.heading, 0.01);
}

TEST(Bicycle, InvalidParamsRejected) {
  BicycleParams p;
  p.max_steer = 0.0;
  EXPECT_THROW(BicycleModel{p}, ContractViolation);
  p = BicycleParams{};
  p.wheelbase_rear = -1.0;
  EXPECT_THROW(BicycleModel{p}, ContractViolation);
}

TEST(Bicycle, NonFiniteOrOverflowingParamsRejected) {
  // Every parameter must be finite, and small enough that the RK4 blend
  // (weights summing to 6) of terms that large stays finite.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  double BicycleParams::*const fields[] = {
      &BicycleParams::wheelbase_front, &BicycleParams::wheelbase_rear,
      &BicycleParams::max_steer,       &BicycleParams::max_accel,
      &BicycleParams::max_brake,       &BicycleParams::drag_coeff,
      &BicycleParams::max_speed};
  for (double BicycleParams::*field : fields) {
    for (const double bad : {nan, inf, 1e308}) {
      BicycleParams p;
      p.*field = bad;
      EXPECT_THROW(BicycleModel{p}, ContractViolation) << bad;
    }
    BicycleParams p;
    p.*field = 1e307;  // absurd but representable: accepted
    EXPECT_NO_THROW(BicycleModel{p});
  }
}

TEST(ObstacleField, NearestFindsClosestSurface) {
  // The big-but-distant obstacle loses to the small-but-near one.
  const ObstacleField field(
      {Obstacle{{10.0, 0.0}, 3.0}, Obstacle{{4.0, 0.0}, 0.5}});
  const auto nearest = field.nearest({0.0, 0.0});
  ASSERT_TRUE(nearest.has_value());
  EXPECT_EQ(nearest->index, 1u);
  EXPECT_DOUBLE_EQ(nearest->surface_distance, 3.5);
}

TEST(ObstacleField, EmptyFieldHasNoNearest) {
  const ObstacleField field;
  EXPECT_FALSE(field.nearest({0, 0}).has_value());
  EXPECT_FALSE(field.collides({0, 0}, 10.0));
}

TEST(ObstacleField, CollisionBoundary) {
  const ObstacleField field({Obstacle{{5.0, 0.0}, 1.0}});
  EXPECT_TRUE(field.collides({3.1, 0.0}, 1.0));   // 1.9 < 2.0
  EXPECT_TRUE(field.collides({3.0, 0.0}, 1.0));   // exactly touching
  EXPECT_FALSE(field.collides({2.9, 0.0}, 1.0));  // 2.1 > 2.0
}

TEST(ObstacleField, RejectsNonPositiveRadius) {
  EXPECT_THROW(ObstacleField({Obstacle{{0, 0}, 0.0}}), ContractViolation);
}

TEST(ObstacleField, ColumnsHoldThePushedObstaclesThroughEveryMutation) {
  // The columns are the only storage: after construction, push_back,
  // clear and reuse, at(i) and the columns must give back exactly the
  // obstacles that went in, in order.
  const auto check = [](const ObstacleField& f,
                        const std::vector<Obstacle>& pushed) {
    ASSERT_EQ(f.size(), pushed.size());
    ASSERT_EQ(f.xs().size(), pushed.size());
    ASSERT_EQ(f.ys().size(), pushed.size());
    ASSERT_EQ(f.radii().size(), pushed.size());
    for (std::size_t i = 0; i < pushed.size(); ++i) {
      const Obstacle o = f.at(i);
      EXPECT_EQ(o.center.x, pushed[i].center.x);
      EXPECT_EQ(o.center.y, pushed[i].center.y);
      EXPECT_EQ(o.radius, pushed[i].radius);
      EXPECT_EQ(f.xs()[i], pushed[i].center.x);
      EXPECT_EQ(f.ys()[i], pushed[i].center.y);
      EXPECT_EQ(f.radii()[i], pushed[i].radius);
    }
  };
  std::vector<Obstacle> pushed = {Obstacle{{1.0, 2.0}, 0.5},
                                  Obstacle{{-3.0, 4.0}, 2.0}};
  ObstacleField field(pushed);
  check(field, pushed);
  pushed.push_back(Obstacle{{7.0, -1.0}, 1.25});
  field.push_back(pushed.back());
  check(field, pushed);
  field.clear();
  pushed.clear();
  EXPECT_TRUE(field.empty());
  check(field, pushed);
  field.reserve(4);
  pushed.push_back(Obstacle{{0.25, 0.75}, 3.0});
  field.push_back(pushed.back());
  check(field, pushed);
  EXPECT_THROW((void)field.at(1), ContractViolation);
}

TEST(ObstacleField, SoAQueriesMatchAoSReferenceBitExactly) {
  // nearest/collides run over the columns; pin them to a plain loop over
  // at(i) in the distance(point, center) - radius formulation.
  const ObstacleField field({Obstacle{{5.0, 1.0}, 1.0},
                             Obstacle{{-2.0, 3.0}, 0.75},
                             Obstacle{{9.0, -4.0}, 2.5}});
  const Vec2 probes[] = {{0.0, 0.0}, {4.0, 1.0}, {-1.0, 2.0}, {8.0, -3.0}};
  for (const Vec2& p : probes) {
    std::size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < field.size(); ++i) {
      const double d = distance(p, field.at(i).center) - field.at(i).radius;
      if (d < best_d) {
        best_d = d;
        best = i;
      }
    }
    const auto nearest = field.nearest(p);
    ASSERT_TRUE(nearest.has_value());
    EXPECT_EQ(nearest->index, best);
    EXPECT_EQ(nearest->surface_distance, best_d);
    EXPECT_EQ(field.collides(p, 1.0), best_d <= 1.0);
  }
}

TEST(Road, ProgressClampsToRoute) {
  const Road road(RoadParams{100.0, 6.0});
  EXPECT_DOUBLE_EQ(road.progress({-5.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(road.progress({42.0, 3.0}), 42.0);
  EXPECT_DOUBLE_EQ(road.progress({140.0, 0.0}), 100.0);
}

TEST(Road, BoundaryMarginSignedAndOffRoad) {
  const Road road(RoadParams{100.0, 6.0});
  EXPECT_DOUBLE_EQ(road.boundary_margin({0.0, 0.0}), 6.0);
  EXPECT_DOUBLE_EQ(road.boundary_margin({0.0, 4.0}), 2.0);
  EXPECT_DOUBLE_EQ(road.boundary_margin({0.0, -7.0}), -1.0);
  EXPECT_FALSE(road.off_road({0.0, 5.9}));
  EXPECT_TRUE(road.off_road({0.0, 6.1}));
}

TEST(Road, FinishLine) {
  const Road road(RoadParams{100.0, 6.0});
  EXPECT_FALSE(road.finished({99.9, 0.0}));
  EXPECT_TRUE(road.finished({100.0, 0.0}));
}

TEST(Road, LookaheadPointOnCenterline) {
  const Road road(RoadParams{100.0, 6.0});
  const Vec2 p = road.lookahead_point({30.0, 2.0}, 8.0);
  EXPECT_DOUBLE_EQ(p.x, 38.0);
  EXPECT_DOUBLE_EQ(p.y, 0.0);
}

}  // namespace
}  // namespace seo
