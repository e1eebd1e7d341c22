// Moving obstacles — closed-form trajectories for dynamic environments.
//
// The paper's framework is motivated by "continuously evolving
// environments"; its evaluation uses static obstacles.  This extension
// adds deterministic moving obstacles (linear drift and lateral
// oscillation, e.g. a pedestrian pacing across the road) so that detector
// staleness has *positional* consequences: a gated or in-flight detection
// of a moving obstacle points at where the obstacle was, which is exactly
// the coupling the safety deadline bounds.
//
// Positions are closed-form in absolute time (no integration state), so
// trajectories are exactly reproducible and never drift.
#pragma once

#include <vector>

#include "dynamics/obstacle.hpp"
#include "dynamics/vec2.hpp"

namespace seo {

/// One obstacle trajectory: origin + linear drift + sinusoidal oscillation
/// along an axis.
struct ObstacleMotion {
  Vec2 origin{};          ///< position at t = 0
  double radius = 0.8;
  Vec2 velocity{};        ///< constant drift [m/s]
  double osc_amplitude = 0.0;  ///< oscillation half-range [m]
  double osc_omega = 0.0;      ///< angular frequency [rad/s]
  double osc_phase = 0.0;      ///< phase at t = 0 [rad]
  Vec2 osc_axis{0.0, 1.0};     ///< unit oscillation direction

  /// Obstacle at absolute time t.
  Obstacle at(double t) const;
  /// Instantaneous speed bound over the whole trajectory (for worst-case
  /// safety rates): |velocity| + amplitude * omega.
  double max_speed() const;
};

/// A set of moving obstacles; produces a static snapshot for any time.
class MovingObstacleField {
 public:
  MovingObstacleField() = default;
  explicit MovingObstacleField(std::vector<ObstacleMotion> motions);

  bool empty() const { return motions_.empty(); }
  std::size_t size() const { return motions_.size(); }
  const std::vector<ObstacleMotion>& motions() const { return motions_; }

  /// Snapshot of all obstacles at absolute time t.
  ObstacleField at(double t) const;

  /// Snapshot into a caller-owned field — allocation-free once the field's
  /// capacity covers `size()`; the hot path for worlds that resample every
  /// physics substep.
  void at_into(double t, ObstacleField& out) const;

  /// Largest per-obstacle speed bound (0 when empty).
  double max_obstacle_speed() const;

 private:
  std::vector<ObstacleMotion> motions_;
};

}  // namespace seo
