// Unit + property tests for the safety stack: barrier function, predictive
// safety filter, safe-interval evaluators (phi), and the deadline lookup
// table T(x,u).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/binary_io.hpp"
#include "safety/barrier.hpp"
#include "safety/deadline_table.hpp"
#include "safety/safe_interval.hpp"
#include "safety/safety_filter.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace seo {
namespace {

VehicleState state_at(double x, double y, double heading, double speed) {
  VehicleState s;
  s.position = {x, y};
  s.heading = heading;
  s.speed = speed;
  return s;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(Barrier, FartherIsSafer) {
  const Barrier barrier{BarrierConfig{}};
  const Obstacle o{{20.0, 0.0}, 1.0};
  double prev = -std::numeric_limits<double>::infinity();
  for (double x = 0.0; x < 18.0; x += 1.0) {
    const double h = barrier.value(state_at(x, 0.0, 0.0, 8.0), o);
    EXPECT_LT(h, prev == -std::numeric_limits<double>::infinity()
                  ? std::numeric_limits<double>::infinity()
                  : prev);
    prev = h;
  }
}

TEST(Barrier, HeadOnRequiresMoreClearanceThanTangential) {
  const Barrier barrier{BarrierConfig{}};
  const Obstacle ahead{{10.0, 0.0}, 1.0};
  // Same distance, heading toward vs. away from the obstacle.
  const double h_toward = barrier.value(state_at(0, 0, 0.0, 8.0), ahead);
  const double h_away = barrier.value(state_at(0, 0, 3.1415, 8.0), ahead);
  EXPECT_LT(h_toward, h_away);
  // The difference equals margin * heading_gain * (cos span)/2 ~ margin*k.
  const BarrierConfig c;
  EXPECT_NEAR(h_away - h_toward, c.margin * c.heading_gain, 0.01);
}

TEST(Barrier, FieldTakesWorstObstacle) {
  const Barrier barrier{BarrierConfig{}};
  const ObstacleField field(
      {Obstacle{{30.0, 0.0}, 1.0}, Obstacle{{5.0, 0.0}, 1.0}});
  const VehicleState s = state_at(0, 0, 0, 8);
  EXPECT_DOUBLE_EQ(barrier.value(s, field),
                   barrier.value(s, field.at(1)));
}

TEST(Barrier, EmptyFieldIsVacuouslySafe) {
  const Barrier barrier{BarrierConfig{}};
  EXPECT_TRUE(std::isinf(barrier.value(state_at(0, 0, 0, 8),
                                       ObstacleField{})));
  EXPECT_TRUE(barrier.safe(state_at(0, 0, 0, 8), ObstacleField{}));
}

TEST(Barrier, SoAFieldKernelMatchesScalarFacadeBitExactly) {
  // The field overload runs the SoA trig-skip kernel; it must return the
  // exact double of folding the per-obstacle AoS facade in index order —
  // the invariant that lets the hot path use the fast kernel while goldens
  // stay untouched.
  Rng rng(51);
  for (int trial = 0; trial < 40; ++trial) {
    BarrierConfig config;
    config.heading_gain = rng.uniform(0.0, 3.0);
    const Barrier barrier{config};
    const auto count = static_cast<std::size_t>(rng.uniform(1.0, 24.0));
    ObstacleField field;
    field.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
      field.push_back(Obstacle{{rng.uniform(-40.0, 40.0),
                                rng.uniform(-40.0, 40.0)},
                               rng.uniform(0.3, 4.0)});
    const VehicleState s =
        state_at(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0),
                 rng.uniform(-3.0, 3.0), rng.uniform(0.0, 12.0));
    double expected = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < field.size(); ++i)
      expected = std::min(expected, barrier.value(s, field.at(i)));
    EXPECT_EQ(barrier.value(s, field), expected) << "trial " << trial;
  }
}

TEST(Barrier, CappedKernelIsMinOfCapAndValueBitExactly) {
  // value(s, f, cap) starts the kernel's running minimum at `cap` (and so
  // skips more trig); it must return exactly std::min(cap, value(s, f)):
  // the same bits for caps above, below and equal to h, ±inf and ±0, on
  // random fields and the empty one.
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(53);
  int empty_fields = 0;
  for (int trial = 0; trial < 400; ++trial) {
    BarrierConfig config;
    config.heading_gain = rng.uniform(0.0, 3.0);
    const Barrier barrier{config};
    const int count = rng.uniform_int(0, 16);
    ObstacleField field;
    for (int i = 0; i < count; ++i)
      field.push_back(Obstacle{{rng.uniform(-20.0, 20.0),
                                rng.uniform(-20.0, 20.0)},
                               rng.uniform(0.3, 4.0)});
    if (count == 0) ++empty_fields;
    const VehicleState s =
        state_at(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0),
                 rng.uniform(-3.0, 3.0), rng.uniform(0.0, 12.0));
    const double h = barrier.value(s, field);
    const double caps[] = {inf,
                           -inf,
                           0.0,
                           -0.0,
                           h,
                           std::nextafter(h, inf),
                           std::nextafter(h, -inf),
                           h + rng.uniform(-5.0, 5.0),
                           rng.uniform(-30.0, 30.0)};
    for (const double cap : caps)
      EXPECT_TRUE(same_bits(barrier.value(s, field, cap), std::min(cap, h)))
          << std::hexfloat << "trial " << trial << " cap " << cap << " h "
          << h;
  }
  EXPECT_GT(empty_fields, 0);

  // Exact ±0 ties: the cap's sign of zero must survive a tie with h == +0.
  // Clearance is exactly 2.5 == margin and g is exactly 1: with
  // heading_gain 0 (the trig skip fires), and with the obstacle dead
  // astern, cos(pi) == -1 (the trig runs).
  BarrierConfig config;
  config.body_radius = 1.0;
  config.margin = 2.5;
  const VehicleState s = state_at(0.0, 0.0, 0.0, 5.0);
  for (const double gain : {0.0, 1.0}) {
    config.heading_gain = gain;
    const Barrier barrier{config};
    const ObstacleField field({gain == 0.0 ? Obstacle{{3.0, 4.0}, 1.5}
                                           : Obstacle{{-5.0, 0.0}, 1.5}});
    ASSERT_TRUE(same_bits(barrier.value(s, field), 0.0)) << "gain " << gain;
    for (const double cap : {0.0, -0.0})
      EXPECT_TRUE(same_bits(barrier.value(s, field, cap), std::min(cap, 0.0)))
          << "gain " << gain << " cap " << cap;
  }
}

// The capped kernel over a whole field, with a hint and a trig counter.
double fold(const Barrier& barrier, const VehicleState& s,
            const ObstacleField& field, double cap, const HeadingHint& hint,
            std::uint64_t* trig_evals) {
  return barrier.value(s, field.xs().data(), field.ys().data(),
                       field.radii().data(), field.size(), cap, hint,
                       trig_evals);
}

TEST(Barrier, HeadingScreenIsBitIdenticalToTheUnhintedFold) {
  // The rollouts' heading hint lets the capped kernel skip more trig; the
  // hinted fold must return the unhinted fold's bits.  Random states
  // (headings near ±pi too, so a step may wrap), held controls up to max
  // steer and max speed, fields of 1-8 obstacles near the ego, and caps
  // at, just off and around h, so the screen decides at its edge.
  const double inf = std::numeric_limits<double>::infinity();
  const double pi = 3.14159265358979323846;
  const BicycleModel model;
  const BicycleParams& vehicle = model.params();
  const double dt = SafetyFilterConfig{}.step_s;
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const auto pick = [](Rng& rng, double lo, double hi) {
    const int r = rng.uniform_int(0, 7);  // the extremes one time in four
    return r == 0 ? lo : r == 1 ? hi : rng.uniform(lo, hi);
  };
  Rng rng(59);
  std::uint64_t plain_total = 0;
  std::uint64_t hinted_total = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    BarrierConfig config;
    config.heading_gain = rng.uniform(0.0, 3.0);
    const Barrier barrier{config};
    const double heading = trial % 4 == 0
                               ? (trial % 8 == 0 ? pi : -pi) +
                                     rng.uniform(-0.05, 0.05)
                               : rng.uniform(-pi, pi);
    const VehicleState before =
        state_at(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0), heading,
                 pick(rng, 0.0, vehicle.max_speed));
    const HeldControl held = model.hold(
        Control{pick(rng, -vehicle.max_steer, vehicle.max_steer),
                rng.uniform(-1.0, 1.0)});
    ASSERT_EQ(bits(held.cos_beta), bits(std::cos(held.beta)));
    Vec2 course;
    const VehicleState s = model.step_euler(before, held, dt, course);
    const VehicleState plain_step = model.step_euler(before, held, dt);
    ASSERT_EQ(bits(s.position.x), bits(plain_step.position.x));
    ASSERT_EQ(bits(s.position.y), bits(plain_step.position.y));
    ASSERT_EQ(bits(s.heading), bits(plain_step.heading));
    ASSERT_EQ(bits(s.speed), bits(plain_step.speed));
    ASSERT_EQ(bits(course.x), bits(std::cos(before.heading + held.beta)));
    ASSERT_EQ(bits(course.y), bits(std::sin(before.heading + held.beta)));
    const HeadingHint hint = heading_hint_after_step(
        held, course, before.speed, vehicle.wheelbase_rear, dt);

    ObstacleField field;
    const int count = rng.uniform_int(1, 8);
    for (int i = 0; i < count; ++i)
      field.push_back(Obstacle{{s.position.x + rng.uniform(-12.0, 12.0),
                                s.position.y + rng.uniform(-12.0, 12.0)},
                               rng.uniform(0.3, 2.0)});
    const double h = barrier.value(s, field);
    const double caps[] = {inf,
                           h,
                           std::nextafter(h, inf),
                           std::nextafter(h, -inf),
                           h + rng.uniform(0.0, 1.0),
                           h - rng.uniform(0.0, 1.0),
                           0.0,
                           -0.0};
    for (const double cap : caps) {
      std::uint64_t plain = 0;
      std::uint64_t hinted = 0;
      const double want = barrier.value(s, field, cap);
      ASSERT_EQ(bits(fold(barrier, s, field, cap, {}, &plain)), bits(want));
      const double got = fold(barrier, s, field, cap, hint, &hinted);
      EXPECT_EQ(bits(got), bits(want))
          << std::hexfloat << "trial " << trial << " cap " << cap << " got "
          << got << " want " << want;
      EXPECT_LE(hinted, plain);
      plain_total += plain;
      hinted_total += hinted;
    }
  }
  // The screen must actually fire for the test to mean anything.
  EXPECT_LT(hinted_total, plain_total);
}

TEST(Barrier, HeadingScreenAdversarialHints) {
  // Hints that carry no information (NaN, err = +inf), the tightest
  // legal hint (the exact heading, err = 0), an obstacle centred on the
  // ego (dist 0), caps of ±0 and ±inf, and non-finite positions: the
  // hinted fold keeps the unhinted fold's bits, and a hint without
  // information never skips.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const Barrier barrier{BarrierConfig{}};
  const double psi = 0.7;
  struct Case {
    HeadingHint hint;
    bool informative;
  };
  const Case cases[] = {
      {{nan, nan, 0.1}, false},
      {{nan, nan, nan}, false},
      {{std::cos(psi), std::sin(psi), nan}, false},
      {{std::cos(psi), std::sin(psi), inf}, false},
      {{std::cos(psi), std::sin(psi), 2.0}, false},
      {{std::cos(psi), std::sin(psi), 0.0}, true},
  };
  const double positions[] = {0.0, 1.0, inf, -inf, nan};
  // From (1, 2): 2.5 m dead astern (clearance 1.1, h -0.1, so caps in
  // (-1.3, -0.1] need the screen), ahead and to the left, on the ego, and
  // far off to the side.
  const ObstacleField field(
      {Obstacle{{1.0 - 2.5 * std::cos(psi), 2.0 - 2.5 * std::sin(psi)}, 0.5},
       Obstacle{{3.0, 2.0}, 0.8}, Obstacle{{1.0, 2.0}, 0.5},
       Obstacle{{2.0, -5.0}, 1.2}});
  int screened = 0;
  for (const double x : positions) {
    for (const double y : {2.0, nan}) {
      const VehicleState s = state_at(x, y, psi, 10.0);
      const double h = barrier.value(s, field);
      for (const double cap : {inf, -inf, 0.0, -0.0, -0.5, -1.0, h,
                               std::nextafter(h, inf), h + 0.5}) {
        std::uint64_t plain = 0;
        const double want = barrier.value(s, field, cap);
        ASSERT_EQ(bits(fold(barrier, s, field, cap, {}, &plain)), bits(want));
        for (const Case& c : cases) {
          std::uint64_t hinted = 0;
          const double got = fold(barrier, s, field, cap, c.hint, &hinted);
          EXPECT_EQ(bits(got), bits(want))
              << std::hexfloat << "x " << x << " y " << y << " cap " << cap
              << " hint (" << c.hint.cos << ", " << c.hint.sin << ", "
              << c.hint.err << ")";
          if (c.informative)
            screened += hinted < plain;
          else
            EXPECT_EQ(hinted, plain);
        }
      }
    }
  }
  EXPECT_GT(screened, 0);

  // The obstacle centred on the ego, alone under an infinite cap, always
  // takes the trig, even with the exact heading.
  const VehicleState on = state_at(1.0, 2.0, psi, 10.0);
  const ObstacleField centred({Obstacle{{1.0, 2.0}, 0.5}});
  std::uint64_t evals = 0;
  EXPECT_EQ(bits(fold(barrier, on, centred, inf, cases[5].hint, &evals)),
            bits(barrier.value(on, centred)));
  EXPECT_EQ(evals, 1u);
}

TEST(RolloutInterval, HeldControlMatchesPerStepClampBitExactly) {
  // evaluate() holds the control once (clamp + slip angle hoisted out of
  // the march); re-marching with the per-step Control overload must land on
  // the same crossing time bit for bit, clamp being idempotent.
  Rng rng(52);
  const BicycleModel model{};
  const Barrier barrier{BarrierConfig{}};
  const RolloutIntervalConfig config{};
  const RolloutSafeInterval rollout(config, model, barrier);
  for (int trial = 0; trial < 20; ++trial) {
    ObstacleField field;
    const auto count = static_cast<std::size_t>(rng.uniform(1.0, 6.0));
    for (std::size_t i = 0; i < count; ++i)
      field.push_back(Obstacle{{rng.uniform(5.0, 30.0),
                                rng.uniform(-6.0, 6.0)},
                               rng.uniform(0.5, 2.0)});
    const VehicleState s = state_at(0.0, rng.uniform(-2.0, 2.0),
                                    rng.uniform(-0.3, 0.3),
                                    rng.uniform(4.0, 12.0));
    const Control u{rng.uniform(-0.2, 0.2), rng.uniform(-1.0, 1.0)};
    const SafeInterval got = rollout.evaluate(s, u, field);
    if (!got.constrained) continue;

    // Reference: the pre-HeldControl march, stepping with the raw control.
    double expected = config.horizon_s;
    if (barrier.value(s, field) < 0.0) {
      expected = 0.0;
    } else {
      VehicleState prev = s;
      double t = 0.0;
      bool crossed = false;
      while (t < config.horizon_s) {
        const VehicleState next = model.step_euler(prev, u, config.step_s);
        if (barrier.value(next, field) < 0.0) {
          double lo = 0.0, hi = config.step_s;
          for (int i = 0; i < config.bisection_iters; ++i) {
            const double mid = 0.5 * (lo + hi);
            if (barrier.value(model.step_euler(prev, u, mid), field) < 0.0)
              hi = mid;
            else
              lo = mid;
          }
          expected = t + lo;
          crossed = true;
          break;
        }
        prev = next;
        t += config.step_s;
      }
      if (!crossed) expected = config.horizon_s;
    }
    EXPECT_EQ(got.delta_max_s, expected) << "trial " << trial;
  }
}

TEST(Barrier, SafeIffNonNegative) {
  const Barrier barrier{BarrierConfig{}};
  const ObstacleField field({Obstacle{{4.0, 0.0}, 1.0}});
  EXPECT_FALSE(barrier.safe(state_at(0, 0, 0, 8), field));  // h < 0: close+head-on
  const ObstacleField far({Obstacle{{30.0, 0.0}, 1.0}});
  EXPECT_TRUE(barrier.safe(state_at(0, 0, 0, 8), far));
}

TEST(Barrier, SurfaceClearanceAndBearing) {
  const Barrier barrier{BarrierConfig{}};
  const Obstacle o{{10.0, 10.0}, 2.0};
  const VehicleState s = state_at(10.0, 0.0, 0.0, 5.0);
  EXPECT_NEAR(barrier.surface_clearance(s, o), 10.0 - 2.0 - 0.9, 1e-12);
  EXPECT_NEAR(barrier.relative_bearing(s, o), 1.5708, 1e-3);  // straight left
}

// --- Safety filter --------------------------------------------------------

SafetyFilter make_filter() {
  return SafetyFilter(SafetyFilterConfig{}, BicycleModel{},
                      Barrier{BarrierConfig{}});
}

TEST(SafetyFilter, PassesThroughWhenFar) {
  const SafetyFilter filter = make_filter();
  const ObstacleField field({Obstacle{{80.0, 0.0}, 1.0}});
  const Control raw{0.1, 0.5};
  const FilterDecision d =
      filter.filter(state_at(0, 0, 0, 8), field, raw);
  EXPECT_FALSE(d.engaged);
  EXPECT_DOUBLE_EQ(d.control.steering, raw.steering);
  EXPECT_DOUBLE_EQ(d.control.throttle, raw.throttle);
  EXPECT_EQ(filter.engagements(), 0u);
}

TEST(SafetyFilter, EngagesOnCollisionCourse) {
  const SafetyFilter filter = make_filter();
  const ObstacleField field({Obstacle{{9.0, 0.0}, 1.0}});
  const FilterDecision d =
      filter.filter(state_at(0, 0, 0, 10), field, Control{0.0, 0.5});
  EXPECT_TRUE(d.engaged);
  EXPECT_NE(d.control.steering, 0.0);  // corrective steering applied
  EXPECT_EQ(filter.engagements(), 1u);
}

TEST(SafetyFilter, CorrectionImprovesWorstCaseBarrier) {
  // Property: the corrective action's predicted min-h must beat holding the
  // raw control on a collision course.
  const SafetyFilter filter = make_filter();
  const BicycleModel model;
  const Barrier barrier{BarrierConfig{}};
  const ObstacleField field({Obstacle{{14.0, 0.5}, 1.0}});
  Rng rng(21);
  for (int trial = 0; trial < 30; ++trial) {
    const VehicleState s =
        state_at(0.0, rng.uniform(-1.0, 1.0), rng.uniform(-0.1, 0.1),
                 rng.uniform(6.0, 11.0));
    const Control raw{rng.uniform(-0.05, 0.05), 0.5};
    const FilterDecision d = filter.filter(s, field, raw);
    if (!d.engaged) continue;
    // Roll both controls forward and compare the worst barrier value.
    auto min_h = [&](const Control& u) {
      double mh = barrier.value(s, field);
      VehicleState cur = s;
      for (int i = 0; i < 30; ++i) {
        cur = model.step_euler(cur, u, 0.02);
        mh = std::min(mh, barrier.value(cur, field));
      }
      return mh;
    };
    EXPECT_GE(min_h(d.control) + 1e-9, min_h(raw));
  }
}

TEST(SafetyFilter, SteersAwayFromSide) {
  const SafetyFilter filter = make_filter();
  // Obstacle slightly left of dead ahead: correction should steer right.
  const ObstacleField field({Obstacle{{9.0, 0.8}, 1.0}});
  const FilterDecision d =
      filter.filter(state_at(0, 0, 0, 10), field, Control{0.0, 0.5});
  ASSERT_TRUE(d.engaged);
  EXPECT_LT(d.control.steering, 0.0);
}

TEST(SafetyFilter, RoadAwareCorrectionStaysOnRoad) {
  // With the road supplied, the corrective candidate that dodges off-road
  // must lose to an on-road candidate.
  const Road road(RoadParams{100.0, 3.0});  // narrow road
  const SafetyFilter filter(SafetyFilterConfig{}, BicycleModel{},
                            Barrier{BarrierConfig{}}, road);
  const ObstacleField field({Obstacle{{9.0, 1.8}, 1.0}});
  // Vehicle near the left edge; dodging further left exits the road.
  const VehicleState s = state_at(0.0, 1.5, 0.0, 9.0);
  const FilterDecision d = filter.filter(s, field, Control{0.0, 0.5});
  ASSERT_TRUE(d.engaged);
  // Roll the corrected control: must not go far off-road.
  const BicycleModel model;
  VehicleState cur = s;
  double worst_margin = road.boundary_margin(cur.position);
  for (int i = 0; i < 30; ++i) {
    cur = model.step_euler(cur, d.control, 0.02);
    worst_margin = std::min(worst_margin, road.boundary_margin(cur.position));
  }
  EXPECT_GT(worst_margin, -0.5);
}

TEST(SafetyFilter, LowSpeedMarginRelaxation) {
  // Crawling toward a moderately distant obstacle must not engage (the
  // deadlock guard), while approaching fast must.
  const SafetyFilter filter = make_filter();
  const ObstacleField field({Obstacle{{9.0, 0.0}, 1.0}});
  const FilterDecision slow =
      filter.filter(state_at(0, 0, 0, 1.0), field, Control{0.0, 0.1});
  const FilterDecision fast =
      filter.filter(state_at(0, 0, 0, 11.0), field, Control{0.0, 0.1});
  EXPECT_FALSE(slow.engaged);
  EXPECT_TRUE(fast.engaged);
}

TEST(SafetyFilter, ConfigContracts) {
  SafetyFilterConfig bad;
  bad.steering_candidates = 2;
  EXPECT_THROW(SafetyFilter(bad, BicycleModel{}, Barrier{BarrierConfig{}}),
               ContractViolation);
  bad = SafetyFilterConfig{};
  bad.horizon_s = 0.0;
  EXPECT_THROW(SafetyFilter(bad, BicycleModel{}, Barrier{BarrierConfig{}}),
               ContractViolation);
  // Hostile margins: each keeps margin_eff from being finite, or makes the
  // std::clamp bounds cross.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v : {nan, inf, -0.1}) {
    bad = SafetyFilterConfig{};
    bad.engage_margin = v;
    EXPECT_THROW(SafetyFilter(bad, BicycleModel{}, Barrier{BarrierConfig{}}),
                 ContractViolation)
        << "engage_margin " << v;
  }
  for (const double v : {nan, inf, 0.0, -8.0}) {
    bad = SafetyFilterConfig{};
    bad.speed_ref = v;
    EXPECT_THROW(SafetyFilter(bad, BicycleModel{}, Barrier{BarrierConfig{}}),
                 ContractViolation)
        << "speed_ref " << v;
  }
  for (const double v : {nan, -0.1, 1.5}) {
    bad = SafetyFilterConfig{};
    bad.min_margin_factor = v;
    EXPECT_THROW(SafetyFilter(bad, BicycleModel{}, Barrier{BarrierConfig{}}),
                 ContractViolation)
        << "min_margin_factor " << v;
  }
  // Hostile geometry: one call's rollout steps must fit rollout_steps (a
  // 1e300 s horizon overflows a 32-bit step count, which could wrap to 0
  // and switch the filter off), and grid indices must fit an int.
  for (const double horizon : {1e300, inf, 1e9}) {
    bad = SafetyFilterConfig{};
    bad.horizon_s = horizon;
    EXPECT_THROW(SafetyFilter(bad, BicycleModel{}, Barrier{BarrierConfig{}}),
                 ContractViolation)
        << "horizon_s " << horizon;
  }
  bad = SafetyFilterConfig{};
  bad.step_s = 1e-300;
  EXPECT_THROW(SafetyFilter(bad, BicycleModel{}, Barrier{BarrierConfig{}}),
               ContractViolation);
  bad = SafetyFilterConfig{};
  bad.steering_candidates = std::numeric_limits<int>::max();
  EXPECT_THROW(SafetyFilter(bad, BicycleModel{}, Barrier{BarrierConfig{}}),
               ContractViolation);
  // One step per rollout: (1 + 2 * INT_MAX) steps still fit 32 bits, but
  // the brake-assisted grid's indices would not fit an int.
  bad.horizon_s = bad.step_s;
  EXPECT_THROW(SafetyFilter(bad, BicycleModel{}, Barrier{BarrierConfig{}}),
               ContractViolation);
  SafetyFilterConfig edge;
  edge.horizon_s = 1e4;  // 500k steps per rollout, 17.5M per call
  EXPECT_NO_THROW(SafetyFilter(edge, BicycleModel{}, Barrier{BarrierConfig{}}));
  edge = SafetyFilterConfig{};
  edge.engage_margin = 0.0;
  edge.min_margin_factor = 1.0;
  EXPECT_NO_THROW(SafetyFilter(edge, BicycleModel{}, Barrier{BarrierConfig{}}));
  edge.min_margin_factor = 0.0;
  EXPECT_NO_THROW(SafetyFilter(edge, BicycleModel{}, Barrier{BarrierConfig{}}));
}

TEST(SafetyFilter, RolloutStepsGoldenOnBenchRigs) {
  // The BM_SafetyFilterPass / PassNear / Engaged / EngagedRoad rigs of
  // bench/micro_hotpaths.cpp.  rollout_steps is deterministic, so these
  // golden counts show on any machine how much work the search prunes.
  const SafetyFilter filter = make_filter();
  const ObstacleField field({Obstacle{{20.0, 1.0}, 0.8},
                             Obstacle{{32.0, -1.2}, 0.8},
                             Obstacle{{45.0, 0.5}, 0.8}});
  const Control raw{0.0, 0.4};

  // BM_SafetyFilterPass: far enough from every obstacle that the
  // reachability bound certifies the call without a rollout.
  const FilterDecision pass =
      filter.filter(state_at(0.0, 0.0, 0.05, 8.5), field, raw);
  ASSERT_FALSE(pass.engaged);
  EXPECT_EQ(pass.rollout_steps, 0u);

  // BM_SafetyFilterPassNear: the bound does not hold, but the raw rollout
  // stays clear: one full pass-through rollout.
  const FilterDecision near =
      filter.filter(state_at(10.0, 0.2, 0.05, 8.5), field, raw);
  ASSERT_FALSE(near.engaged);
  EXPECT_EQ(near.rollout_steps, 30u);

  const FilterDecision engaged =
      filter.filter(state_at(16.5, 0.8, 0.05, 8.5), field, raw);
  ASSERT_TRUE(engaged.engaged);
  // The exhaustive search integrates (1 + 17 * 2) * 30 = 1050 steps.
  EXPECT_LT(engaged.rollout_steps, (1u + 34u) * 30u);
  EXPECT_EQ(engaged.rollout_steps, 350u);

  // The benchmark loop reuses one filter: from the second engaged call on,
  // the search starts from the previous winner.  Coarse-first already
  // scores this rig's winner early, so the warm call does the same work.
  const FilterDecision warm =
      filter.filter(state_at(16.5, 0.8, 0.05, 8.5), field, raw);
  ASSERT_TRUE(warm.engaged);
  EXPECT_EQ(warm.control.steering, engaged.control.steering);
  EXPECT_EQ(warm.control.throttle, engaged.control.throttle);
  EXPECT_EQ(warm.rollout_steps, 350u);

  // BM_SafetyFilterEngagedRoad: an 8-obstacle dense field on a narrow
  // road, where off-road excursions decide many candidates and the
  // off-road term in the cutoff bound stops them early.
  const SafetyFilter road_filter(SafetyFilterConfig{}, BicycleModel{},
                                 Barrier{BarrierConfig{}},
                                 Road(RoadParams{100.0, 3.0}));
  const ObstacleField dense(
      {Obstacle{{20.0, 1.0}, 0.8}, Obstacle{{27.0, -1.5}, 0.7},
       Obstacle{{32.0, 1.8}, 0.8}, Obstacle{{38.0, -0.4}, 0.9},
       Obstacle{{45.0, 1.2}, 0.8}, Obstacle{{52.0, -1.8}, 0.7},
       Obstacle{{58.0, 0.6}, 0.8}, Obstacle{{65.0, -0.9}, 0.8}});
  const VehicleState on_road = state_at(16.5, 2.0, 0.05, 8.5);
  const FilterDecision road_cold = road_filter.filter(on_road, dense, raw);
  ASSERT_TRUE(road_cold.engaged);
  EXPECT_EQ(road_cold.rollout_steps, 664u);
  const FilterDecision road_warm = road_filter.filter(on_road, dense, raw);
  ASSERT_TRUE(road_warm.engaged);
  EXPECT_EQ(road_warm.control.steering, road_cold.control.steering);
  EXPECT_EQ(road_warm.control.throttle, road_cold.control.throttle);
  EXPECT_EQ(road_warm.rollout_steps, 509u);
}

// --- Differential test: pruned search vs the exhaustive search ------------

// The corrective search as it stood before pruning, kept verbatim as the
// oracle: every candidate rolls out the whole horizon in grid order and the
// first one with the highest score wins.
class ExhaustiveFilter {
 public:
  ExhaustiveFilter(SafetyFilterConfig config, BicycleModel model,
                   Barrier barrier, std::optional<Road> road)
      : config_(config),
        model_(std::move(model)),
        barrier_(barrier),
        road_(std::move(road)) {}

  std::uint64_t engagements() const { return engagements_; }

  struct RolloutEval {
    double min_h = 0.0;
    double road_violation = 0.0;
  };

  RolloutEval rollout(const VehicleState& state, const ObstacleField& field,
                      const Control& control, double h_start) const {
    RolloutEval eval;
    eval.min_h = h_start;
    VehicleState s = state;
    const HeldControl held = model_.hold(control);
    const int steps =
        static_cast<int>(std::ceil(config_.horizon_s / config_.step_s));
    for (int i = 0; i < steps; ++i) {
      s = model_.step_euler(s, held, config_.step_s);
      eval.min_h = std::min(eval.min_h, barrier_.value(s, field));
      if (road_) {
        const double margin = road_->boundary_margin(s.position);
        if (margin < 0.0)
          eval.road_violation = std::max(eval.road_violation, -margin);
      }
    }
    return eval;
  }

  FilterDecision filter(const VehicleState& state, const ObstacleField& field,
                        const Control& raw) const {
    FilterDecision decision;
    decision.h_now = barrier_.value(state, field);
    decision.control = model_.clamp(raw);

    const double margin_eff =
        config_.engage_margin *
        std::clamp(state.speed / config_.speed_ref,
                   config_.min_margin_factor, 1.0);
    const RolloutEval raw_eval =
        rollout(state, field, decision.control, decision.h_now);
    if (raw_eval.min_h >= margin_eff) return decision;

    ++engagements_;
    decision.engaged = true;

    const double max_steer = model_.params().max_steer;
    double best_score = -std::numeric_limits<double>::infinity();
    Control best = decision.control;

    const int n = config_.steering_candidates;
    for (int i = 0; i < n; ++i) {
      const double steer =
          -max_steer + 2.0 * max_steer * static_cast<double>(i) /
                           static_cast<double>(n - 1);
      for (int brake = 0; brake < (config_.brake_assist ? 2 : 1); ++brake) {
        Control candidate;
        candidate.steering = steer;
        candidate.throttle =
            brake == 0 ? decision.control.throttle : config_.brake_throttle;
        const RolloutEval eval =
            rollout(state, field, candidate, decision.h_now);
        const double score =
            eval.min_h - config_.off_road_penalty * eval.road_violation -
            1e-3 * std::abs(steer - raw.steering) - (brake == 1 ? 1e-4 : 0.0);
        if (score > best_score) {
          best_score = score;
          best = candidate;
        }
      }
    }
    decision.control = best;
    return decision;
  }

 private:
  SafetyFilterConfig config_;
  BicycleModel model_;
  Barrier barrier_;
  std::optional<Road> road_;
  mutable std::uint64_t engagements_ = 0;
};

// A pass-through the reachability bound settled without a rollout.
bool certified(const FilterDecision& d) {
  return !d.engaged && d.rollout_steps == 0;
}

::testing::AssertionResult same_decision(const FilterDecision& got,
                                         const FilterDecision& want) {
  if (got.engaged == want.engaged &&
      same_bits(got.control.steering, want.control.steering) &&
      same_bits(got.control.throttle, want.control.throttle) &&
      same_bits(got.h_now, want.h_now))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << std::hexfloat << "pruned {engaged " << got.engaged << ", u ("
         << got.control.steering << ", " << got.control.throttle << "), h_now "
         << got.h_now << "} vs exhaustive {engaged " << want.engaged << ", u ("
         << want.control.steering << ", " << want.control.throttle
         << "), h_now " << want.h_now << "}";
}

TEST(SafetyFilterDifferential, PrunedSearchIsBitEqualToExhaustive) {
  constexpr int kCases = 20000;
  constexpr int kCandidates[] = {3, 4, 17, 33};
  const BicycleModel model;
  const Barrier barrier{BarrierConfig{}};
  const double max_speed = model.params().max_speed;
  Rng rng(20260611);
  int engaged = 0;
  int empty_fields = 0;
  int certified_calls = 0;
  std::uint64_t pruned_steps = 0;
  std::uint64_t exhaustive_steps = 0;
  for (int c = 0; c < kCases; ++c) {
    SafetyFilterConfig config;
    config.steering_candidates = kCandidates[rng.uniform_int(0, 3)];
    config.brake_assist = rng.bernoulli(0.5);
    config.engage_margin = rng.uniform(0.0, 2.0);
    config.off_road_penalty = rng.uniform(0.0, 4.0);
    std::optional<Road> road;
    if (rng.bernoulli(0.5))
      road = Road(RoadParams{100.0, rng.uniform(2.5, 6.0)});

    const double u = rng.uniform();
    const double speed = u < 0.05   ? 0.0
                         : u < 0.1 ? max_speed
                                   : rng.uniform(0.0, max_speed);
    const VehicleState state = state_at(rng.uniform(0.0, 5.0),
                                        rng.uniform(-2.0, 2.0),
                                        rng.uniform(-0.4, 0.4), speed);
    ObstacleField field;
    const int obstacles = rng.uniform_int(0, 8);
    for (int k = 0; k < obstacles; ++k)
      field.push_back(Obstacle{
          {state.position.x + rng.uniform(-4.0, 8.0 + 1.5 * speed),
           rng.uniform(-4.0, 4.0)},
          rng.uniform(0.3, 1.5)});
    if (obstacles == 0) ++empty_fields;
    const Control raw{rng.uniform(-0.7, 0.7), rng.uniform(-1.0, 1.0)};

    const SafetyFilter pruned(config, model, barrier, road);
    const ExhaustiveFilter oracle(config, model, barrier, road);
    const FilterDecision got = pruned.filter(state, field, raw);
    const FilterDecision want = oracle.filter(state, field, raw);
    ASSERT_TRUE(same_decision(got, want)) << "case " << c;
    ASSERT_EQ(pruned.engagements(), oracle.engagements()) << "case " << c;

    const int candidates = want.engaged ? config.steering_candidates *
                                              (config.brake_assist ? 2 : 1)
                                        : 0;
    pruned_steps += got.rollout_steps;
    exhaustive_steps += 30u * static_cast<std::uint64_t>(1 + candidates);
    engaged += want.engaged ? 1 : 0;
    certified_calls += certified(got) ? 1 : 0;
  }
  // The cases must exercise every path, and the pruning must pay.
  EXPECT_GT(engaged, kCases / 5);
  EXPECT_LT(engaged, kCases - kCases / 5);
  EXPECT_GT(empty_fields, 0);
  EXPECT_GT(certified_calls, 0);
  EXPECT_LT(pruned_steps, exhaustive_steps);
}

TEST(SafetyFilterDifferential, WarmSequenceIsBitEqualToExhaustive) {
  // The test above builds a fresh filter per case, so no call there has a
  // warm-start hint.  Here one filter serves each closed-loop trajectory,
  // as in an episode: the state follows the filtered control, and every
  // engaged call after the first starts from the previous winner.
  constexpr int kTrajectories = 80;
  constexpr int kTicks = 200;
  constexpr int kCandidates[] = {3, 4, 17, 33};
  const BicycleModel model;
  const Barrier barrier{BarrierConfig{}};
  Rng rng(20261017);
  int engaged = 0;
  int certified_calls = 0;
  std::uint64_t warm_steps = 0;
  std::uint64_t cold_steps = 0;
  for (int t = 0; t < kTrajectories; ++t) {
    SafetyFilterConfig config;
    config.steering_candidates = kCandidates[rng.uniform_int(0, 3)];
    config.brake_assist = rng.bernoulli(0.5);
    std::optional<Road> road;
    if (rng.bernoulli(0.5)) road = Road(RoadParams{100.0, 4.0});
    ObstacleField field;
    const int obstacles = rng.uniform_int(2, 10);
    for (int k = 0; k < obstacles; ++k)
      field.push_back(Obstacle{{rng.uniform(8.0, 90.0),
                                rng.uniform(-3.0, 3.0)},
                               rng.uniform(0.4, 1.2)});
    VehicleState state =
        state_at(0.0, rng.uniform(-1.0, 1.0), rng.uniform(-0.1, 0.1),
                 rng.uniform(4.0, 10.0));
    const SafetyFilter warm(config, model, barrier, road);
    const ExhaustiveFilter oracle(config, model, barrier, road);
    for (int k = 0; k < kTicks; ++k) {
      // A lane keeper with a little noise: it drives into the obstacles
      // and leaves the avoiding to the filter.
      const Control raw{
          std::clamp(-0.3 * state.position.y - state.heading, -0.5, 0.5) +
              rng.uniform(-0.05, 0.05),
          rng.uniform(0.0, 0.8)};
      const FilterDecision got = warm.filter(state, field, raw);
      const FilterDecision want = oracle.filter(state, field, raw);
      ASSERT_TRUE(same_decision(got, want))
          << "trajectory " << t << " tick " << k;
      const SafetyFilter cold(config, model, barrier, road);
      cold_steps += cold.filter(state, field, raw).rollout_steps;
      warm_steps += got.rollout_steps;
      engaged += want.engaged ? 1 : 0;
      certified_calls += certified(got) ? 1 : 0;
      state = model.step(state, got.control, 0.05);
    }
    ASSERT_EQ(warm.engagements(), oracle.engagements()) << "trajectory " << t;
  }
  // The sequences must engage often, also pass far from every obstacle,
  // and the hint must pay.
  EXPECT_GT(engaged, kTrajectories * kTicks / 5);
  EXPECT_GT(certified_calls, 0);
  EXPECT_LT(warm_steps, cold_steps);
}

TEST(SafetyFilterDifferential, NonFiniteInputsMatchExhaustive) {
  // NaN comparisons never cut a rollout, so NaN and infinite inputs still
  // decide exactly like the exhaustive search.  The far field is one a
  // finite, non-negative speed at a finite position would certify.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const BicycleModel model;
  const Barrier barrier{BarrierConfig{}};
  const ObstacleField near({Obstacle{{9.0, 0.5}, 1.0}});
  const ObstacleField far({Obstacle{{60.0, 0.5}, 1.0}});
  const ObstacleField empty;
  const Road road(RoadParams{100.0, 3.0});
  const VehicleState states[] = {
      state_at(0, 0, 0, 10),   state_at(0, 0, 0, nan),
      state_at(nan, 0, 0, 10), state_at(0, nan, 0, 10),
      state_at(0, 0, nan, 10), state_at(0, 0, 0, -1.0)};
  const Control raws[] = {{0.0, 0.5}, {nan, 0.5}, {inf, 0.5}, {-inf, 0.5},
                          {0.1, nan}};
  // An infinite speed turns any non-zero steering into an infinite yaw
  // rate, which wrap_angle cannot reduce, so it only drives straight or
  // with NaN steering (both integrate to NaN states the barrier skips).
  const VehicleState fast = state_at(0, 0, 0, inf);
  const Control fast_raws[] = {{0.0, 0.5}, {nan, 0.5}};
  for (const bool with_road : {false, true}) {
    const std::optional<Road> r = with_road ? std::optional<Road>(road)
                                            : std::nullopt;
    const SafetyFilter pruned(SafetyFilterConfig{}, model, barrier, r);
    const ExhaustiveFilter oracle(SafetyFilterConfig{}, model, barrier, r);
    const auto check = [&](const VehicleState& state,
                           const ObstacleField& field, const Control& raw) {
      const FilterDecision got = pruned.filter(state, field, raw);
      EXPECT_TRUE(same_decision(got, oracle.filter(state, field, raw)))
          << "road " << with_road << " obstacles " << field.size()
          << " state (" << state.position.x << ", " << state.position.y
          << ", " << state.heading << ", " << state.speed << ") raw ("
          << raw.steering << ", " << raw.throttle << ")";
      // A NaN, negative or infinite speed, or a non-finite position, never
      // certifies (an empty field excepted for an infinite speed).
      const bool hostile = !(state.speed >= 0.0) ||
                           !std::isfinite(state.position.x) ||
                           !std::isfinite(state.position.y) ||
                           (state.speed == inf && !field.empty());
      if (hostile) EXPECT_FALSE(certified(got)) << state.speed;
      return certified(got);
    };
    int far_certified = 0;
    for (const ObstacleField* field : {&near, &far, &empty}) {
      for (const VehicleState& state : states)
        for (const Control& raw : raws)
          far_certified += check(state, *field, raw) && field == &far;
      for (const Control& raw : fast_raws) check(fast, *field, raw);
    }
    // The plain and NaN-heading states certify on the far field.
    EXPECT_EQ(far_certified, 2 * 5);
    EXPECT_EQ(pruned.engagements(), oracle.engagements());
  }
}

TEST(SafetyFilterDifferential, CertificateBoundaryMatchesExhaustive) {
  // The nearest obstacle sits dead ahead with its surface at
  // body_radius + reach + margin * (1 + heading_gain) + margin_eff + delta,
  // reach = v_bar * T: just inside and just outside the certificate.  The
  // decision must match the exhaustive search on both sides; the bound's
  // slack makes it certify only beyond delta = 0, while the rollout (which
  // never covers the full reach) still passes many calls just inside it.
  const BicycleModel model;
  const BicycleParams& vehicle = model.params();
  const BarrierConfig barrier_config{};
  const Barrier barrier{barrier_config};
  const SafetyFilterConfig config;
  const double horizon = 30 * config.step_s;
  const double worst =
      barrier_config.margin * (1.0 + barrier_config.heading_gain);
  const double deltas[] = {-0.5, -1e-6, -1e-12, 0.0, 1e-12, 1e-6, 0.5};
  const double speeds[] = {0.0, 0.5 * vehicle.max_speed, vehicle.max_speed,
                           1.2 * vehicle.max_speed};
  const VehicleState origin = state_at(37.25, -1.5, 0.0, 0.0);
  int inside_passes = 0;
  int engaged = 0;
  for (const double delta : deltas) {
    for (const double speed : speeds) {
      const double v_bar = std::max(
          speed, std::min(vehicle.max_speed,
                          speed + vehicle.max_accel * horizon));
      const double margin_eff =
          config.engage_margin *
          std::clamp(speed / config.speed_ref, config.min_margin_factor, 1.0);
      const double surface = barrier_config.body_radius + v_bar * horizon +
                             worst + margin_eff + delta;
      const double radius = 0.8;
      const ObstacleField field(
          {Obstacle{{origin.position.x + surface + radius, origin.position.y},
                    radius},
           Obstacle{{origin.position.x + surface + 6.0, 4.0}, 1.0}});
      VehicleState state = origin;
      state.speed = speed;
      for (const double throttle : {-1.0, 0.0, 1.0}) {
        for (const bool with_road : {false, true}) {
          std::optional<Road> road;
          if (with_road) road = Road(RoadParams{200.0, 4.0});
          const SafetyFilter pruned(config, model, barrier, road);
          const ExhaustiveFilter oracle(config, model, barrier, road);
          const Control raw{0.0, throttle};
          const FilterDecision got = pruned.filter(state, field, raw);
          ASSERT_TRUE(same_decision(got, oracle.filter(state, field, raw)))
              << "delta " << delta << " speed " << speed << " throttle "
              << throttle << " road " << with_road;
          // Conservative below the boundary, certain well beyond it.
          if (delta <= 0.0) EXPECT_FALSE(certified(got)) << delta;
          if (delta >= 1e-6) EXPECT_TRUE(certified(got)) << delta;
          inside_passes += delta <= 0.0 && !got.engaged;
          engaged += got.engaged;
        }
      }
    }
  }
  EXPECT_GT(inside_passes, 0);
  EXPECT_GT(engaged, 0);
}

TEST(SafetyFilterDifferential, CullBoundaryMatchesExhaustive) {
  // Obstacle A sits behind the vehicle and sets h_now; every rollout moves
  // away from it.  Obstacle B sits dead ahead.  The engage margin is h_now
  // itself, so the raw rollout passes exactly when B never goes below
  // h_now: dropping B from the fold while it can lower min_h flips the
  // decision.  B is placed two ways: where its culling bound lb_B reaches
  // h_now + delta, and, at max_speed under full throttle, where the
  // straight rollout ends with h_B within a few ulps of h_now.  That
  // rollout covers the whole reach, so only the bound's slack keeps such a
  // B from being culled.
  const BicycleModel model;
  const BicycleParams& vehicle = model.params();
  const BarrierConfig barrier_config{};
  const Barrier barrier{barrier_config};
  const double eps = 1e-12 * (30 + 16.0);
  const double horizon = 30 * SafetyFilterConfig{}.step_s;
  const double worst =
      barrier_config.margin * (1.0 + barrier_config.heading_gain);
  const double radius = 0.8;
  int engaged = 0;
  int passed = 0;
  const auto check = [&](const VehicleState& state, const Obstacle& behind,
                         const Obstacle& ahead, double throttle) {
    SafetyFilterConfig config;
    config.engage_margin = barrier.value(state, ObstacleField({behind}));
    const ObstacleField field({behind, ahead});
    for (const bool with_road : {false, true}) {
      std::optional<Road> road;
      if (with_road) road = Road(RoadParams{20000.0, 40.0});
      const SafetyFilter pruned(config, model, barrier, road);
      const ExhaustiveFilter oracle(config, model, barrier, road);
      const Control raw{0.0, throttle};
      const FilterDecision got = pruned.filter(state, field, raw);
      EXPECT_TRUE(same_decision(got, oracle.filter(state, field, raw)))
          << "state (" << state.position.x << ", " << state.position.y
          << ", " << state.heading << ", " << state.speed << ") B at ("
          << ahead.center.x << ", " << ahead.center.y << ") throttle "
          << throttle << " road " << with_road;
      EXPECT_FALSE(certified(got));
      engaged += got.engaged;
      passed += !got.engaged;
    }
  };

  // lb_B = h_now + delta, for B at (center, 0) ahead of the origin.
  const Obstacle behind{{-4.6, 0.0}, 1.0};
  for (const double speed : {8.0, 20.0, vehicle.max_speed}) {
    const VehicleState state = state_at(0.0, 0.0, 0.0, speed);
    const double h_now = barrier.value(state, ObstacleField({behind}));
    const double v_bar = std::max(
        speed,
        std::min(vehicle.max_speed, speed + vehicle.max_accel * horizon));
    const double reach = v_bar * horizon * (1.0 + eps) + eps;
    // The filter's lb for an obstacle at (center, 0), computed its way.
    const auto lb = [&](double center) {
      const double dx = 0.0 - center;
      const double dy = 0.0;
      const double c = std::sqrt(dx * dx + dy * dy) * (1.0 - eps) - radius;
      return ((c - reach) - barrier_config.body_radius) - worst;
    };
    for (const double delta : {-1.0, -1e-6, -1e-12, 0.0, 1e-12, 1e-6}) {
      const double target = h_now + delta;
      double center = (target + worst + barrier_config.body_radius + reach +
                       radius) / (1.0 - eps);
      while (lb(center) < target) center = std::nextafter(center, 1e9);
      while (lb(std::nextafter(center, 0.0)) >= target)
        center = std::nextafter(center, 0.0);
      for (const double throttle : {-1.0, 0.0, 1.0})
        check(state, behind, Obstacle{{center, 0.0}, radius}, throttle);
    }
  }

  // h_B at the end of the straight max-speed rollout = h_now +- 12 ulps.
  for (const double x0 : {0.0, 37.25, 1e4 + 0.3}) {
    for (const double heading : {0.0, 0.3, -1.1, 2.0}) {
      const Vec2 dir{std::cos(heading), std::sin(heading)};
      const VehicleState state =
          state_at(x0, -1.5, heading, vehicle.max_speed);
      const Obstacle back{state.position - 4.6 * dir, 1.0};
      const double h_now = barrier.value(state, ObstacleField({back}));
      VehicleState end = state;
      const HeldControl held = model.hold(Control{0.0, 1.0});
      for (int k = 0; k < 30; ++k)
        end = model.step_euler(end, held, SafetyFilterConfig{}.step_s);
      const auto h_end = [&](double distance) {
        return barrier.value(
            end, ObstacleField({Obstacle{state.position + distance * dir,
                                         radius}}));
      };
      double distance = h_now + worst + barrier_config.body_radius +
                        radius + vehicle.max_speed * horizon;
      for (int k = 0; k < 60; ++k) distance -= h_end(distance) - h_now;
      for (int k = 0; k < 12; ++k) distance = std::nextafter(distance, 0.0);
      for (int k = -12; k <= 12; ++k) {
        check(state, back, Obstacle{state.position + distance * dir, radius},
              1.0);
        distance = std::nextafter(distance, 1e9);
      }
    }
  }
  EXPECT_GT(engaged, 0);
  EXPECT_GT(passed, 0);
}

TEST(SafetyFilterDifferential, NonFiniteObstaclesMatchExhaustive) {
  // The barrier skips an obstacle whose h is NaN, and culling keeps every
  // obstacle whose bound is NaN; an obstacle at infinite distance is
  // culled, an infinite one never.  Decisions must match the exhaustive
  // search either way.  (A field rejects NaN and non-positive radii.)
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const BicycleModel model;
  const Barrier barrier{BarrierConfig{}};
  const Obstacle hostile[] = {
      Obstacle{{nan, 0.5}, 1.0}, Obstacle{{12.0, nan}, 1.0},
      Obstacle{{inf, 0.5}, 1.0}, Obstacle{{-inf, nan}, 1.0},
      Obstacle{{40.0, 0.0}, inf}};
  const VehicleState states[] = {state_at(0, 0, 0, 10),
                                 state_at(3.0, -0.5, 0.1, 20),
                                 state_at(0, 0, 0, 0)};
  const Control raws[] = {{0.0, 0.5}, {0.3, 1.0}, {-0.2, -1.0}};
  int engaged = 0;
  for (const bool with_road : {false, true}) {
    const std::optional<Road> road =
        with_road ? std::optional<Road>(Road(RoadParams{100.0, 3.0}))
                  : std::nullopt;
    const SafetyFilter pruned(SafetyFilterConfig{}, model, barrier, road);
    const ExhaustiveFilter oracle(SafetyFilterConfig{}, model, barrier, road);
    for (const Obstacle& bad : hostile) {
      for (const bool with_near : {false, true}) {
        ObstacleField field;
        field.push_back(Obstacle{{60.0, 1.0}, 1.0});
        field.push_back(bad);
        if (with_near) field.push_back(Obstacle{{9.0, 0.5}, 1.0});
        for (const VehicleState& state : states) {
          for (const Control& raw : raws) {
            const FilterDecision got = pruned.filter(state, field, raw);
            EXPECT_TRUE(
                same_decision(got, oracle.filter(state, field, raw)))
                << "road " << with_road << " obstacle (" << bad.center.x
                << ", " << bad.center.y << ", " << bad.radius << ") near "
                << with_near << " speed " << state.speed;
            engaged += got.engaged;
          }
        }
      }
    }
    EXPECT_EQ(pruned.engagements(), oracle.engagements());
  }
  EXPECT_GT(engaged, 0);
}

TEST(SafetyFilterDifferential, OffRoadPenaltiesMatchExhaustive) {
  // A narrow road, so excursions decide many candidates, with no penalty
  // (the off-road term is 0, or NaN for an infinite excursion), a large
  // one, and an infinite one (every score is NaN and the raw control
  // stands).
  constexpr int kCases = 4000;
  const double penalties[] = {0.0, 1e6,
                              std::numeric_limits<double>::infinity()};
  const BicycleModel model;
  const Barrier barrier{BarrierConfig{}};
  Rng rng(20261018);
  int engaged = 0;
  for (int c = 0; c < kCases; ++c) {
    SafetyFilterConfig config;
    config.brake_assist = rng.bernoulli(0.5);
    config.off_road_penalty = penalties[c % 3];
    const double half_width = rng.uniform(2.0, 3.5);
    const Road road(RoadParams{100.0, half_width});
    const double speed = rng.uniform(4.0, model.params().max_speed);
    const VehicleState state =
        state_at(rng.uniform(0.0, 5.0),
                 rng.uniform(-half_width + 0.5, half_width - 0.5),
                 rng.uniform(-0.4, 0.4), speed);
    ObstacleField field;
    const int obstacles = rng.uniform_int(1, 8);
    for (int k = 0; k < obstacles; ++k)
      field.push_back(Obstacle{
          {state.position.x + rng.uniform(-2.0, 6.0 + speed),
           rng.uniform(-half_width, half_width)},
          rng.uniform(0.3, 1.2)});
    const Control raw{rng.uniform(-0.5, 0.5), rng.uniform(-1.0, 1.0)};
    const SafetyFilter pruned(config, model, barrier, road);
    const ExhaustiveFilter oracle(config, model, barrier, road);
    const FilterDecision want = oracle.filter(state, field, raw);
    ASSERT_TRUE(same_decision(pruned.filter(state, field, raw), want))
        << "case " << c << " penalty " << config.off_road_penalty;
    engaged += want.engaged;
  }
  EXPECT_GT(engaged, kCases / 4);
}

TEST(SafetyFilterDifferential, FieldsBeyondTheCullBufferMatchExhaustive) {
  // The filter gathers the obstacles it keeps into a 32-entry stack
  // buffer; a larger field is folded whole.  Both sides of that size, and
  // a field far past it, decide like the exhaustive search.
  constexpr int kCasesPerSize = 150;
  const BicycleModel model;
  const Barrier barrier{BarrierConfig{}};
  Rng rng(20261019);
  int engaged = 0;
  for (const int obstacles : {32, 33, 100}) {
    for (int c = 0; c < kCasesPerSize; ++c) {
      std::optional<Road> road;
      if (rng.bernoulli(0.5)) road = Road(RoadParams{300.0, 6.0});
      const VehicleState state =
          state_at(rng.uniform(0.0, 5.0), rng.uniform(-2.0, 2.0),
                   rng.uniform(-0.4, 0.4), rng.uniform(0.0, 25.0));
      ObstacleField field;
      for (int k = 0; k < obstacles; ++k)
        field.push_back(Obstacle{{rng.uniform(-20.0, 250.0),
                                  rng.uniform(-6.0, 6.0)},
                                 rng.uniform(0.3, 1.5)});
      const Control raw{rng.uniform(-0.5, 0.5), rng.uniform(-1.0, 1.0)};
      const SafetyFilter pruned(SafetyFilterConfig{}, model, barrier, road);
      const ExhaustiveFilter oracle(SafetyFilterConfig{}, model, barrier,
                                    road);
      const FilterDecision want = oracle.filter(state, field, raw);
      ASSERT_TRUE(same_decision(pruned.filter(state, field, raw), want))
          << obstacles << " obstacles, case " << c;
      engaged += want.engaged;
    }
  }
  EXPECT_GT(engaged, 0);
}

TEST(SafetyFilterDifferential, MirrorTieGoesToTheLowerGridIndex) {
  // A field symmetric about the vehicle's axis with raw steering 0: every
  // candidate +s scores exactly like its mirror -s (n - 1 is a power of two,
  // so the steering grid itself is exactly symmetric).  The head-on
  // obstacle rules out driving straight, so the best score is a tie and
  // the lower grid index (negative steering) must win.
  const BicycleModel model;
  const Barrier barrier{BarrierConfig{}};
  const ObstacleField field({Obstacle{{10.0, 0.0}, 1.0},
                             Obstacle{{15.0, 2.5}, 0.8},
                             Obstacle{{15.0, -2.5}, 0.8}});
  const VehicleState state = state_at(0.0, 0.0, 0.0, 10.0);
  const Control raw{0.0, 0.5};
  for (const int n : {3, 17, 33}) {
    for (const bool brake_assist : {false, true}) {
      for (const bool with_road : {false, true}) {
        SafetyFilterConfig config;
        config.steering_candidates = n;
        config.brake_assist = brake_assist;
        std::optional<Road> road;
        if (with_road) road = Road(RoadParams{100.0, 4.0});
        const SafetyFilter pruned(config, model, barrier, road);
        const ExhaustiveFilter oracle(config, model, barrier, road);
        const FilterDecision want = oracle.filter(state, field, raw);
        ASSERT_TRUE(want.engaged);
        ASSERT_LT(want.control.steering, 0.0);
        // The mirror candidate scores exactly the same.
        const auto score = [&](const Control& u) {
          const auto eval = oracle.rollout(state, field, u, want.h_now);
          return eval.min_h - config.off_road_penalty * eval.road_violation -
                 1e-3 * std::abs(u.steering - raw.steering) -
                 (u.throttle == config.brake_throttle ? 1e-4 : 0.0);
        };
        const Control mirror{-want.control.steering, want.control.throttle};
        EXPECT_TRUE(same_bits(score(want.control), score(mirror)))
            << "n " << n << ": no exact tie to break";
        EXPECT_TRUE(same_decision(pruned.filter(state, field, raw), want))
            << "n " << n << " brake " << brake_assist << " road " << with_road;
      }
    }
  }
}

TEST(SafetyFilterDifferential, TieWithAnEarlierVisitedHigherIndex) {
  // Coarse-first visits steering index 4 before index 3.  With the raw
  // steering exactly between them and an obstacle falling behind (min_h is
  // h_now for every candidate), both score the same; index 3 is visited
  // second and must still take the tie.
  SafetyFilterConfig config;
  config.steering_candidates = 17;
  config.brake_assist = false;
  const BicycleModel model;
  const Barrier barrier{BarrierConfig{}};
  const double max_steer = model.params().max_steer;
  const double steer3 = -max_steer + 2.0 * max_steer * 3.0 / 16.0;
  const double steer4 = -max_steer + 2.0 * max_steer * 4.0 / 16.0;
  const Control raw{0.5 * (steer3 + steer4), 0.3};
  const ObstacleField field({Obstacle{{-3.5, 0.0}, 1.0}});
  const VehicleState state = state_at(0.0, 0.0, 0.0, 10.0);

  const SafetyFilter pruned(config, model, barrier, std::nullopt);
  const ExhaustiveFilter oracle(config, model, barrier, std::nullopt);
  const FilterDecision want = oracle.filter(state, field, raw);
  ASSERT_TRUE(want.engaged);
  ASSERT_TRUE(same_bits(oracle.rollout(state, field, Control{steer3, 0.3},
                                       want.h_now).min_h,
                        oracle.rollout(state, field, Control{steer4, 0.3},
                                       want.h_now).min_h));
  EXPECT_EQ(want.control.steering, steer3);
  EXPECT_TRUE(same_decision(pruned.filter(state, field, raw), want));
}

// --- Safe-interval evaluators ----------------------------------------------

TEST(LipschitzInterval, UnconstrainedBeyondSensingRange) {
  const LipschitzSafeInterval eval(LipschitzIntervalConfig{},
                                   Barrier{BarrierConfig{}});
  const ObstacleField far({Obstacle{{60.0, 0.0}, 1.0}});
  EXPECT_FALSE(eval.evaluate(state_at(0, 0, 0, 8), Control{}, far)
                   .constrained);
  EXPECT_FALSE(
      eval.evaluate(state_at(0, 0, 0, 8), Control{}, ObstacleField{})
          .constrained);
}

TEST(LipschitzInterval, CloserObstacleShorterInterval) {
  const LipschitzSafeInterval eval(LipschitzIntervalConfig{},
                                   Barrier{BarrierConfig{}});
  double prev = std::numeric_limits<double>::infinity();
  for (double d = 35.0; d >= 5.0; d -= 5.0) {
    const ObstacleField field({Obstacle{{d, 0.0}, 1.0}});
    const SafeInterval si =
        eval.evaluate(state_at(0, 0, 0, 8), Control{}, field);
    ASSERT_TRUE(si.constrained);
    EXPECT_LT(si.delta_max_s, prev);
    prev = si.delta_max_s;
  }
}

TEST(LipschitzInterval, FasterIsShorter) {
  const LipschitzSafeInterval eval(LipschitzIntervalConfig{},
                                   Barrier{BarrierConfig{}});
  const ObstacleField field({Obstacle{{15.0, 0.0}, 1.0}});
  const double slow =
      eval.evaluate(state_at(0, 0, 0, 4), Control{}, field).delta_max_s;
  const double fast =
      eval.evaluate(state_at(0, 0, 0, 12), Control{}, field).delta_max_s;
  EXPECT_GT(slow, fast);
}

TEST(LipschitzInterval, ControlIndependence) {
  // The certificate bounds over all admissible controls; the current
  // control must not change it.
  const LipschitzSafeInterval eval(LipschitzIntervalConfig{},
                                   Barrier{BarrierConfig{}});
  const ObstacleField field({Obstacle{{15.0, 2.0}, 1.0}});
  const VehicleState s = state_at(0, 0, 0, 8);
  EXPECT_DOUBLE_EQ(
      eval.evaluate(s, Control{0.5, 1.0}, field).delta_max_s,
      eval.evaluate(s, Control{-0.5, -1.0}, field).delta_max_s);
}

TEST(LipschitzInterval, ZeroAtBarrierBoundary) {
  const LipschitzSafeInterval eval(LipschitzIntervalConfig{},
                                   Barrier{BarrierConfig{}});
  // Deep inside the unsafe set: h <= 0 -> Delta_max = 0.
  const ObstacleField field({Obstacle{{2.5, 0.0}, 1.0}});
  const SafeInterval si =
      eval.evaluate(state_at(0, 0, 0, 8), Control{}, field);
  ASSERT_TRUE(si.constrained);
  EXPECT_DOUBLE_EQ(si.delta_max_s, 0.0);
}

TEST(LipschitzInterval, RoadTermBindsWhenHeadingForEdge) {
  LipschitzIntervalConfig config;
  const Road road(RoadParams{100.0, 6.0});
  const LipschitzSafeInterval eval(config, Barrier{BarrierConfig{}}, road);
  const ObstacleField field({Obstacle{{30.0, 0.0}, 1.0}});
  // Heading sharply toward the left edge from near it.
  const SafeInterval toward = eval.evaluate(
      state_at(0, 5.0, 0.8, 9.0), Control{}, field);
  const SafeInterval parallel = eval.evaluate(
      state_at(0, 5.0, 0.0, 9.0), Control{}, field);
  ASSERT_TRUE(toward.constrained && parallel.constrained);
  EXPECT_LT(toward.delta_max_s, parallel.delta_max_s);
}

TEST(LipschitzInterval, ClosedFormInterval) {
  LipschitzIntervalConfig config;
  config.rate_gain = 6.0;
  config.speed_floor = 1.0;
  const LipschitzSafeInterval eval(config, Barrier{BarrierConfig{}});
  EXPECT_NEAR(eval.interval_from_h(5.4, 8.0), 5.4 / (6.0 * 9.0), 1e-12);
  EXPECT_DOUBLE_EQ(eval.interval_from_h(-1.0, 8.0), 0.0);
}

TEST(RolloutInterval, HeadOnCrossingTimeMatchesKinematics) {
  // Head-on at constant speed v toward an obstacle: h reaches 0 when the
  // clearance equals margin*(1+k); crossing time ~ distance/speed.
  RolloutIntervalConfig config;
  const Barrier barrier{BarrierConfig{}};
  const RolloutSafeInterval eval(config, BicycleModel{}, barrier);
  const double d_center = 20.0;
  const ObstacleField field({Obstacle{{d_center, 0.0}, 1.0}});
  const double v = 8.0;
  // Throttle compensating drag to hold speed roughly constant.
  const Control hold{0.0, BicycleParams{}.drag_coeff * v /
                              BicycleParams{}.max_accel};
  const SafeInterval si =
      eval.evaluate(state_at(0, 0, 0, v), hold, field);
  ASSERT_TRUE(si.constrained);
  // h = (d - 1 - 0.9) - 1.2*2 at head-on; h=0 at clearance 2.4 from surface,
  // i.e. at x = 20 - 1 - 0.9 - 2.4 = 15.7 -> t ~ 15.7/8.
  EXPECT_NEAR(si.delta_max_s, 15.7 / v, 0.1);
}

TEST(RolloutInterval, BisectionRefinesCrossing) {
  RolloutIntervalConfig config;
  config.step_s = 0.01;
  const Barrier barrier{BarrierConfig{}};
  const BicycleModel model;
  const RolloutSafeInterval eval(config, model, barrier);
  const ObstacleField field({Obstacle{{12.0, 0.0}, 1.0}});
  const VehicleState s = state_at(0, 0, 0, 9.0);
  const Control u{0.0, 0.2};
  const SafeInterval si = eval.evaluate(s, u, field);
  ASSERT_TRUE(si.constrained);
  // h at the reported crossing time must be ~0 (within integration slack).
  VehicleState cur = s;
  double t = 0.0;
  while (t + 0.001 < si.delta_max_s) {
    cur = model.step_euler(cur, u, 0.001);
    t += 0.001;
  }
  EXPECT_NEAR(barrier.value(cur, field), 0.0, 0.05);
}

TEST(RolloutInterval, HorizonCapsResult) {
  RolloutIntervalConfig config;
  config.horizon_s = 0.5;
  const RolloutSafeInterval eval(config, BicycleModel{},
                                 Barrier{BarrierConfig{}});
  const ObstacleField field({Obstacle{{39.0, 0.0}, 1.0}});  // in range, far
  const SafeInterval si =
      eval.evaluate(state_at(0, 0, 0, 2.0), Control{}, field);
  ASSERT_TRUE(si.constrained);
  EXPECT_DOUBLE_EQ(si.delta_max_s, 0.5);
}

TEST(RolloutInterval, MoreConservativeLipschitzBound) {
  // The Lipschitz certificate must never exceed the rollout time for the
  // same state (it bounds the worst case over all controls).
  const Barrier barrier{BarrierConfig{}};
  const LipschitzSafeInterval lip(LipschitzIntervalConfig{}, barrier);
  const RolloutSafeInterval roll(RolloutIntervalConfig{}, BicycleModel{},
                                 barrier);
  Rng rng(31);
  for (int i = 0; i < 40; ++i) {
    const double d = rng.uniform(6.0, 35.0);
    const ObstacleField field({Obstacle{{d, rng.uniform(-2.0, 2.0)}, 0.8}});
    const VehicleState s = state_at(0, 0, rng.uniform(-0.2, 0.2),
                                    rng.uniform(3.0, 12.0));
    const SafeInterval l = lip.evaluate(s, Control{}, field);
    const SafeInterval r = roll.evaluate(s, Control{0.0, 0.3}, field);
    if (!l.constrained || !r.constrained) continue;
    EXPECT_LE(l.delta_max_s, r.delta_max_s + 1e-9);
  }
}

// --- Deadline lookup table ---------------------------------------------------

TEST(DeadlineTable, MatchesSourceOnProbes) {
  const Barrier barrier{BarrierConfig{}};
  const LipschitzSafeInterval source(LipschitzIntervalConfig{}, barrier);
  const DeadlineTable table(DeadlineTableConfig{}, source,
                            BarrierConfig{}.body_radius);
  Rng rng(33);
  for (int i = 0; i < 200; ++i) {
    const double d = rng.uniform(1.0, 38.0);
    const double chi = rng.uniform(-3.0, 3.0);
    const double v = rng.uniform(0.5, 14.0);
    const Obstacle o{Vec2::from_polar(d + 0.8 + 0.9, chi), 0.8};
    const ObstacleField field({o});
    VehicleState s;
    s.speed = v;
    const double truth =
        source.evaluate(s, Control{}, field).delta_max_s;
    const double approx = table.sample(d, chi, v);
    // Multilinear interpolation on a Lipschitz-smooth map: small error.
    EXPECT_NEAR(approx, truth, 0.06 + 0.1 * truth);
  }
}

TEST(DeadlineTable, EvaluateReducesNearestObstacle) {
  const Barrier barrier{BarrierConfig{}};
  const LipschitzSafeInterval source(LipschitzIntervalConfig{}, barrier);
  const DeadlineTable table(DeadlineTableConfig{}, source,
                            BarrierConfig{}.body_radius);
  const ObstacleField field({Obstacle{{15.0, 1.0}, 0.8}});
  const VehicleState s = state_at(0, 0, 0, 8);
  const SafeInterval direct = source.evaluate(s, Control{}, field);
  const SafeInterval proxied = table.evaluate(s, Control{}, field);
  ASSERT_TRUE(direct.constrained);
  ASSERT_TRUE(proxied.constrained);
  EXPECT_NEAR(proxied.delta_max_s, direct.delta_max_s,
              0.05 + 0.1 * direct.delta_max_s);
}

TEST(DeadlineTable, UnconstrainedBeyondDomain) {
  const Barrier barrier{BarrierConfig{}};
  const LipschitzSafeInterval source(LipschitzIntervalConfig{}, barrier);
  const DeadlineTable table(DeadlineTableConfig{}, source,
                            BarrierConfig{}.body_radius);
  const ObstacleField far({Obstacle{{80.0, 0.0}, 1.0}});
  EXPECT_FALSE(
      table.evaluate(state_at(0, 0, 0, 8), Control{}, far).constrained);
}

TEST(DeadlineTable, PreservesDistanceMonotonicity) {
  const Barrier barrier{BarrierConfig{}};
  const LipschitzSafeInterval source(LipschitzIntervalConfig{}, barrier);
  const DeadlineTable table(DeadlineTableConfig{}, source,
                            BarrierConfig{}.body_radius);
  double prev = -1.0;
  for (double d = 2.0; d <= 38.0; d += 2.0) {
    const double v = table.sample(d, 0.0, 8.0);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(DeadlineTable, ConfigContracts) {
  const Barrier barrier{BarrierConfig{}};
  const LipschitzSafeInterval source(LipschitzIntervalConfig{}, barrier);
  DeadlineTableConfig bad;
  bad.distance_bins = 1;
  EXPECT_THROW(DeadlineTable(bad, source, 0.9), ContractViolation);
  // Build enforces the same domain contract load() does, so every
  // buildable table round-trips: degenerate radii fail up front.
  DeadlineTableConfig zero_obstacle;
  zero_obstacle.obstacle_radius = 0.0;
  EXPECT_THROW(DeadlineTable(zero_obstacle, source, 0.9), ContractViolation);
  EXPECT_THROW(DeadlineTable(DeadlineTableConfig{}, source, 0.0),
               ContractViolation);
}

// --- Serialization ----------------------------------------------------------

/// A small real table's binary payload, shared by the round-trip test.
std::string small_table_bytes() {
  const Barrier barrier{BarrierConfig{}};
  const LipschitzSafeInterval source(LipschitzIntervalConfig{}, barrier);
  DeadlineTableConfig config;
  config.distance_bins = 3;
  config.bearing_bins = 3;
  config.speed_bins = 2;
  const DeadlineTable table(config, source, BarrierConfig{}.body_radius);
  std::string bytes;
  BinaryWriter out(bytes);
  table.encode(out);
  return bytes;
}

TEST(DeadlineTableIo, RoundTripsExactly) {
  const std::string bytes = small_table_bytes();
  BinaryReader in{std::string_view(bytes)};
  const DeadlineTable loaded = DeadlineTable::decode(in);
  std::string again;
  BinaryWriter out(again);
  loaded.encode(out);
  EXPECT_EQ(again, bytes);
  EXPECT_EQ(loaded.body_radius(), BarrierConfig{}.body_radius);
}

/// A hand-built binary table payload: the three bin counts, the domain
/// scalars (max_distance, max_speed, obstacle_radius, body_radius), then
/// `cells` cells all holding `cell`.
std::string table_payload(const std::array<std::uint32_t, 3>& bins,
                          const std::array<double, 4>& domain,
                          std::size_t cells, double cell = 0.5) {
  std::string bytes;
  BinaryWriter out(bytes);
  for (const std::uint32_t b : bins) out.u32(b);
  for (const double v : domain) out.f64(v);
  for (std::size_t i = 0; i < cells; ++i) out.f64(cell);
  return bytes;
}

TEST(DeadlineTableIo, DecodeRejectsCorruptInput) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::array<std::uint32_t, 3> bins{2, 2, 2};
  const std::array<double, 4> domain{40.0, 15.0, 0.8, 0.9};
  const std::string good = table_payload(bins, domain, 8);

  struct Case {
    const char* what;
    std::string payload;
  };
  const std::vector<Case> cases = {
      {"degenerate bin count", table_payload({1, 2, 2}, domain, 4)},
      {"bin count above the allocation guard",
       table_payload({100001, 2, 2}, domain, 0)},
      {"negative max_distance",
       table_payload(bins, {-40.0, 15.0, 0.8, 0.9}, 8)},
      {"zero max_speed", table_payload(bins, {40.0, 0.0, 0.8, 0.9}, 8)},
      {"negative obstacle_radius",
       table_payload(bins, {40.0, 15.0, -0.8, 0.9}, 8)},
      {"zero body_radius", table_payload(bins, {40.0, 15.0, 0.8, 0.0}, 8)},
      {"NaN max_distance", table_payload(bins, {kNan, 15.0, 0.8, 0.9}, 8)},
      {"infinite cell", table_payload(bins, domain, 8, kInf)},
      {"truncated cell block", good.substr(0, good.size() - 4)},
      {"one trailing byte", good + '\0'},
  };
  for (const Case& c : cases) {
    BinaryReader in{std::string_view(c.payload)};
    EXPECT_THROW(DeadlineTable::decode(in), ContractViolation) << c.what;
  }
  // The untampered payload still decodes (the guards reject corruption,
  // not legitimate tables).
  BinaryReader in{std::string_view(good)};
  EXPECT_NO_THROW(DeadlineTable::decode(in));
}

}  // namespace
}  // namespace seo
