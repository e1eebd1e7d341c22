// The safety function h(x,u) of the paper's eq. (1), instantiated for
// obstacle avoidance on the kinematic bicycle model — the same structure as
// the ShieldNN controller shield [19] the paper builds on: h depends on the
// distance to the obstacle and the vehicle's orientation relative to it.
//
//   h(x; o) = d_surface(x, o) - margin * g(chi)
//   g(chi)  = 1 + heading_gain * (1 + cos(chi)) / 2
//
// where d_surface is the clearance between vehicle body and obstacle
// surface and chi is the obstacle bearing relative to the vehicle heading.
// Driving straight at the obstacle (chi = 0) inflates the required
// clearance by (1 + heading_gain); passing tangentially (|chi| = pi)
// requires only `margin`.  h >= 0 defines the safe set (S = 1).
#pragma once

#include <cstddef>
#include <limits>

#include "dynamics/obstacle.hpp"
#include "dynamics/types.hpp"

namespace seo {

struct BarrierConfig {
  double body_radius = 0.9;   ///< ego body disc radius [m]
  double margin = 1.2;        ///< base required clearance [m]
  double heading_gain = 1.0;  ///< head-on inflation factor
};

class Barrier {
 public:
  explicit Barrier(BarrierConfig config = {});

  const BarrierConfig& config() const { return config_; }

  /// h with respect to one obstacle.
  double value(const VehicleState& state, const Obstacle& obstacle) const;

  /// h with respect to a whole field: min over obstacles
  /// (+infinity when the field is empty — vacuously safe).
  double value(const VehicleState& state, const ObstacleField& field) const {
    return value(state, field, std::numeric_limits<double>::infinity());
  }

  /// Capped field value: exactly std::min(cap, value(state, field)), bit
  /// for bit (a tie returns `cap`, a NaN cap returns NaN).  The kernel
  /// starts its running minimum at `cap`, so every obstacle that provably
  /// cannot go below it skips its trig.  A caller that only needs h up to
  /// a known bound — a rollout's running minimum, or 0 for a sign test —
  /// passes that bound.  Never returns NaN for a non-NaN cap.
  double value(const VehicleState& state, const ObstacleField& field,
               double cap) const {
    return value(state, field.xs().data(), field.ys().data(),
                 field.radii().data(), field.size(), cap);
  }

  /// The capped kernel over `n` obstacles in parallel columns (centers
  /// `xs`, `ys` and `radii`), folded in index order: a field's own columns
  /// or a caller's subset of them.
  double value(const VehicleState& state, const double* xs, const double* ys,
               const double* radii, std::size_t n, double cap) const;

  /// Binary safety state S of eq. (1): S = 1 iff h >= 0.
  bool safe(const VehicleState& state, const ObstacleField& field) const {
    return value(state, field) >= 0.0;
  }

  /// Clearance between body surface and obstacle surface (no heading term).
  double surface_clearance(const VehicleState& state,
                           const Obstacle& obstacle) const;

  /// Obstacle bearing relative to the vehicle heading, wrapped to (-pi,pi].
  double relative_bearing(const VehicleState& state,
                          const Obstacle& obstacle) const;

 private:
  BarrierConfig config_;
};

}  // namespace seo
