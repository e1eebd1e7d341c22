#include "safety/safe_interval.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/expect.hpp"

namespace seo {

LipschitzSafeInterval::LipschitzSafeInterval(LipschitzIntervalConfig config,
                                             Barrier barrier,
                                             std::optional<Road> road)
    : config_(config), barrier_(barrier), road_(std::move(road)) {
  SEO_EXPECT(config_.sensing_range > 0.0);
  SEO_EXPECT(config_.rate_gain > 0.0);
  SEO_EXPECT(config_.speed_floor > 0.0);
}

double LipschitzSafeInterval::interval_from_h(double h, double speed) const {
  if (h <= 0.0) return 0.0;
  const double rate =
      config_.rate_gain * (std::max(speed, 0.0) + config_.environment_speed +
                           config_.speed_floor);
  return h / rate;
}

double LipschitzSafeInterval::road_term_s(const VehicleState& state) const {
  if (!road_ || config_.road_conservatism <= 0.0)
    return std::numeric_limits<double>::infinity();
  // Lateral velocity toward the edge being approached.
  const double vy = state.speed * std::sin(state.heading);
  if (std::abs(vy) < 1e-6) return std::numeric_limits<double>::infinity();
  const double edge_y =
      vy > 0.0 ? road_->half_width() : -road_->half_width();
  const double gap = vy > 0.0 ? edge_y - state.position.y
                              : state.position.y - edge_y;
  if (gap <= 0.0) return 0.0;  // already at/over the edge
  return gap / std::abs(vy) / config_.road_conservatism;
}

SafeInterval LipschitzSafeInterval::evaluate(const VehicleState& state,
                                             const Control& /*u*/,
                                             const ObstacleField& field) const {
  // Worst-case certificate: independent of the applied control, so `u` is
  // intentionally unused (the bound holds over all admissible actions).
  // Range is measured as body-to-surface clearance, matching the reduced
  // coordinate the lookup table is built over.
  const auto nearest = field.nearest(state.position);
  // Epsilon absorbs polar-coordinate round-trip noise at the domain edge.
  if (!nearest || nearest->surface_distance - barrier_.config().body_radius >
                      config_.sensing_range + 1e-9)
    return SafeInterval{false, 0.0};

  const double h = barrier_.value(state, field);
  double delta = interval_from_h(h, state.speed);
  delta = std::min(delta, road_term_s(state));
  return SafeInterval{true, delta};
}

RolloutSafeInterval::RolloutSafeInterval(RolloutIntervalConfig config,
                                         BicycleModel model, Barrier barrier)
    : config_(config), model_(std::move(model)), barrier_(barrier) {
  SEO_EXPECT(config_.sensing_range > 0.0);
  SEO_EXPECT(config_.horizon_s > 0.0);
  SEO_EXPECT(config_.step_s > 0.0 && config_.step_s < config_.horizon_s);
  SEO_EXPECT(config_.bisection_iters >= 0);
}

SafeInterval RolloutSafeInterval::evaluate(const VehicleState& state,
                                           const Control& u,
                                           const ObstacleField& field) const {
  const auto nearest = field.nearest(state.position);
  if (!nearest || nearest->surface_distance - barrier_.config().body_radius >
                      config_.sensing_range + 1e-9)
    return SafeInterval{false, 0.0};

  // Sign tests cap the barrier at 0: min(0, h) < 0 exactly when h < 0, and
  // obstacles that cannot reach below 0 skip their trig.
  if (barrier_.value(state, field, 0.0) < 0.0) return SafeInterval{true, 0.0};

  // March forward until h crosses 0 (or the horizon passes).  `u` is held
  // for the whole march, so its clamp/slip-angle terms are computed once.
  const HeldControl held = model_.hold(u);
  VehicleState prev = state;
  double t = 0.0;
  while (t < config_.horizon_s) {
    VehicleState next = model_.step_euler(prev, held, config_.step_s);
    if (barrier_.value(next, field, 0.0) < 0.0) {
      // Bisection-refine the crossing inside (t, t + step].
      double lo = 0.0, hi = config_.step_s;
      for (int i = 0; i < config_.bisection_iters; ++i) {
        const double mid = 0.5 * (lo + hi);
        const VehicleState s_mid = model_.step_euler(prev, held, mid);
        if (barrier_.value(s_mid, field, 0.0) < 0.0)
          hi = mid;
        else
          lo = mid;
      }
      return SafeInterval{true, t + lo};
    }
    prev = next;
    t += config_.step_s;
  }
  // Never crossed within the horizon: the held control is safe for at
  // least the horizon.
  return SafeInterval{true, config_.horizon_s};
}

}  // namespace seo
