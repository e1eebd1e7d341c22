// Kinematic bicycle model (KBM) — the plant `xdot = f(x, u)` of the paper's
// section III-A.  ShieldNN [19] and EnergyShield [20], which SEO builds on,
// derive their barrier functions on exactly this model, so using it as the
// CARLA substitution keeps the safety analysis faithful.
#pragma once

#include "dynamics/types.hpp"

namespace seo {

/// Physical parameters of the KBM.  Defaults approximate a mid-size car
/// (CARLA's Tesla Model 3 blueprint dimensions).
struct BicycleParams {
  double wheelbase_front = 1.4;  ///< CG -> front axle [m] (l_f)
  double wheelbase_rear = 1.4;   ///< CG -> rear axle [m] (l_r)
  double max_steer = 0.5;        ///< steering limit [rad] (~28.6 deg)
  double max_accel = 3.5;        ///< throttle=+1 acceleration [m/s^2]
  double max_brake = 6.0;        ///< throttle=-1 deceleration [m/s^2]
  double drag_coeff = 0.08;      ///< linear speed-proportional drag [1/s]
  double max_speed = 25.0;       ///< saturation speed [m/s]
};

/// Time derivative of the vehicle state (for external integrators).
struct VehicleDerivative {
  Vec2 velocity{};
  double yaw_rate = 0.0;
  double accel = 0.0;
};

/// A control held fixed across integration steps, with the control-only
/// derivative terms precomputed once: the clamped command, the side-slip
/// angle beta, its sine and its cosine (no step reads the cosine; it lets
/// a caller rotate a step's course back to the heading).  Every quantity
/// is produced by exactly the same operations `derivative()` would perform
/// per step, so stepping with a HeldControl is bit-identical to
/// re-deriving from the raw control — it just skips re-clamping and
/// re-evaluating atan/tan/sin each step.
struct HeldControl {
  Control clamped{};
  double beta = 0.0;
  double sin_beta = 0.0;
  double cos_beta = 1.0;
};

/// Deterministic kinematic bicycle model.
///
/// State evolution (side-slip form):
///   beta  = atan( l_r / (l_f + l_r) * tan(delta) )
///   x'    = v * cos(psi + beta)
///   y'    = v * sin(psi + beta)
///   psi'  = v / l_r * sin(beta)
///   v'    = a(throttle) - drag * v
class BicycleModel {
 public:
  explicit BicycleModel(BicycleParams params = {});

  const BicycleParams& params() const { return params_; }

  /// Clamps a raw control into the actuator limits (steering/throttle).
  Control clamp(const Control& u) const;

  /// Continuous-time derivative at (state, control); control is clamped.
  VehicleDerivative derivative(const VehicleState& state,
                               const Control& u) const;

  /// Advances one step of length `dt` seconds with 4th-order Runge–Kutta.
  /// Speed is kept in [0, max_speed].
  VehicleState step(const VehicleState& state, const Control& u,
                    double dt) const;

  /// Advances with forward Euler — cheaper, used by the safe-interval
  /// evaluator's inner loop where thousands of short rollouts are needed.
  VehicleState step_euler(const VehicleState& state, const Control& u,
                          double dt) const;

  /// Precomputes the control-only derivative terms for a control held
  /// fixed across a rollout (clamp, beta, sin(beta), cos(beta)).
  HeldControl hold(const Control& u) const;

  /// `derivative()` with the held control's precomputed terms.
  VehicleDerivative derivative(const VehicleState& state,
                               const HeldControl& held) const;

  /// `step()` (RK4) with a held control — bit-identical, one clamp and one
  /// slip-angle evaluation instead of four.
  VehicleState step(const VehicleState& state, const HeldControl& held,
                    double dt) const;

  /// `step_euler()` with a held control — bit-identical; the hot variant
  /// for safe-interval and safety-filter rollouts where one candidate
  /// control is integrated over many steps.
  VehicleState step_euler(const VehicleState& state, const HeldControl& held,
                          double dt) const {
    Vec2 course;
    return step_euler(state, held, dt, course);
  }

  /// The same step, also storing the course unit vector it moved along,
  /// (cos, sin) of state.heading + beta: the one trig pair of the step.
  VehicleState step_euler(const VehicleState& state, const HeldControl& held,
                          double dt, Vec2& course) const;

  /// Side-slip angle beta for a (clamped) steering command.
  double slip_angle(double steering) const;

 private:
  double accel_command(double throttle, double speed) const;

  /// `derivative(state, held)`, also storing its course unit vector.
  VehicleDerivative derivative(const VehicleState& state,
                               const HeldControl& held, Vec2& course) const;

  BicycleParams params_;
};

}  // namespace seo
