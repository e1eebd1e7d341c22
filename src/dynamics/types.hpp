// Core state/control value types shared by dynamics, safety and control.
#pragma once

#include "dynamics/vec2.hpp"

namespace seo {

/// Full kinematic state of the ego vehicle.
struct VehicleState {
  Vec2 position{};      ///< rear-axle reference point in world frame [m]
  double heading = 0.0; ///< yaw angle from +x axis [rad]
  double speed = 0.0;   ///< longitudinal speed [m/s], >= 0 enforced by model
};

/// Raw control command produced by the driving policy (the paper's `u`):
/// steering angle and throttle, exactly the RL agent's action space.
struct Control {
  double steering = 0.0; ///< front-wheel steering angle [rad], +left
  double throttle = 0.0; ///< normalized accel command in [-1, 1] (<0 brakes)
};

}  // namespace seo
