// Deterministic driving policy: pure-pursuit path tracking with gap-target
// obstacle avoidance + proportional speed control.
//
// This is the substitution for the paper's CARLA-trained RL agent, which
// the paper does not optimize (its energy gains come from the perception
// pipelines, modelled separately): it has the same action space
// (steering + throttle), consumes the same inputs (Lambda'' state estimate
// + Lambda' detections), and exhibits the same qualitative behaviour the
// paper relies on — it avoids obstacles using possibly-stale detections, so
// gating/offloading degrade its margin and the safety filter picks up the
// slack.  A small steering dither models the residual jitter of an RL
// policy and is deterministic per seed.
//
// Avoidance works by laterally offsetting the pure-pursuit target: when a
// detection blocks the intended corridor, the target shifts to a passing
// line `lateral_clearance` away from the obstacle center (side chosen away
// from the obstacle, clamped inside the road), which converges smoothly
// instead of oscillating like raw repulsive steering.
#pragma once

#include <vector>

#include "control/policy.hpp"
#include "dynamics/bicycle.hpp"
#include "util/rng.hpp"

namespace seo {

struct HybridPolicyConfig {
  double lookahead = 8.0;          ///< pure-pursuit lookahead [m]
  double target_speed = 8.5;       ///< cruise speed [m/s]
  double speed_gain = 0.6;         ///< P gain on speed error -> throttle
  double avoid_range = 18.0;       ///< plan around obstacles within this [m]
  double lateral_clearance = 3.1;  ///< passing distance from obstacle center
  double road_margin = 1.6;        ///< keep |target y| <= half_width - this
  double slow_range = 10.0;        ///< begin slowing within this range
  double min_speed_factor = 0.6;   ///< floor of the slow-down scaling
  double steer_noise = 0.008;      ///< 1-sigma steering dither [rad]
};

class HybridPolicy {
 public:
  HybridPolicy(HybridPolicyConfig config, BicycleParams vehicle, Rng rng);

  /// One control decision (raw u, later filtered by Psi).
  Control act(const PolicyObservation& obs);

  const HybridPolicyConfig& config() const { return config_; }

  /// The lateral passing line chosen for the current detections (exposed
  /// for tests): 0 when the corridor ahead is free.
  double desired_lateral(const PolicyObservation& obs) const;

 private:
  /// Longitudinal distance to the nearest corridor-blocking detection;
  /// +inf when the corridor is free.
  double nearest_threat_dx(const PolicyObservation& obs) const;

  HybridPolicyConfig config_;
  BicycleParams vehicle_;
  Rng rng_;
  // Scratch for desired_lateral, reused across ticks so the per-tick act()
  // path performs no heap allocation in steady state.  Mutable because the
  // planning query itself is logically const.
  mutable std::vector<const Detection*> threats_;
  mutable std::vector<double> candidates_;
};

}  // namespace seo
