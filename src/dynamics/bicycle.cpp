#include "dynamics/bicycle.hpp"

#include <algorithm>
#include <cmath>

#include "util/expect.hpp"

namespace seo {

BicycleModel::BicycleModel(BicycleParams params) : params_(params) {
  // Finite, and small enough that RK4's blend k1 + 2 k2 + 2 k3 + k4 of
  // terms this large stays finite.
  for (const double p : {params_.wheelbase_front, params_.wheelbase_rear,
                         params_.max_steer, params_.max_accel,
                         params_.max_brake, params_.drag_coeff,
                         params_.max_speed})
    SEO_EXPECT(std::isfinite(6.0 * p));
  SEO_EXPECT(params_.wheelbase_front > 0.0);
  SEO_EXPECT(params_.wheelbase_rear > 0.0);
  SEO_EXPECT(params_.max_steer > 0.0);
  SEO_EXPECT(params_.max_accel > 0.0);
  SEO_EXPECT(params_.max_brake > 0.0);
  SEO_EXPECT(params_.max_speed > 0.0);
  SEO_EXPECT(params_.drag_coeff >= 0.0);
}

Control BicycleModel::clamp(const Control& u) const {
  Control c = u;
  c.steering = std::clamp(c.steering, -params_.max_steer, params_.max_steer);
  c.throttle = std::clamp(c.throttle, -1.0, 1.0);
  return c;
}

double BicycleModel::slip_angle(double steering) const {
  const double delta =
      std::clamp(steering, -params_.max_steer, params_.max_steer);
  const double ratio =
      params_.wheelbase_rear / (params_.wheelbase_front + params_.wheelbase_rear);
  return std::atan(ratio * std::tan(delta));
}

double BicycleModel::accel_command(double throttle, double speed) const {
  const double drive = throttle >= 0.0 ? throttle * params_.max_accel
                                       : throttle * params_.max_brake;
  return drive - params_.drag_coeff * speed;
}

VehicleDerivative BicycleModel::derivative(const VehicleState& state,
                                           const Control& u) const {
  const Control c = clamp(u);
  const double beta = slip_angle(c.steering);
  VehicleDerivative d;
  d.velocity = Vec2::from_polar(state.speed, state.heading + beta);
  d.yaw_rate = state.speed / params_.wheelbase_rear * std::sin(beta);
  d.accel = accel_command(c.throttle, state.speed);
  return d;
}

HeldControl BicycleModel::hold(const Control& u) const {
  HeldControl h;
  h.clamped = clamp(u);
  h.beta = slip_angle(h.clamped.steering);
  h.sin_beta = std::sin(h.beta);
  h.cos_beta = std::cos(h.beta);
  return h;
}

VehicleDerivative BicycleModel::derivative(const VehicleState& state,
                                           const HeldControl& held) const {
  Vec2 course;
  return derivative(state, held, course);
}

VehicleDerivative BicycleModel::derivative(const VehicleState& state,
                                           const HeldControl& held,
                                           Vec2& course) const {
  // Same operations as derivative(state, Control) after its clamp and
  // slip-angle evaluation — beta and sin(beta) are the very doubles that
  // call would produce (clamp is idempotent), so the outputs match bitwise.
  // from_polar(speed, angle) is split into the unit course times the
  // speed: the same two products, since 1.0 * cos is exact and
  // multiplication commutes.
  course = Vec2::from_polar(1.0, state.heading + held.beta);
  VehicleDerivative d;
  d.velocity = course * state.speed;
  d.yaw_rate = state.speed / params_.wheelbase_rear * held.sin_beta;
  d.accel = accel_command(held.clamped.throttle, state.speed);
  return d;
}

namespace {
/// Applies a derivative scaled by dt to a state (the RK4 building block).
VehicleState apply(const VehicleState& s, const VehicleDerivative& d,
                   double dt) {
  VehicleState out = s;
  out.position += d.velocity * dt;
  out.heading = wrap_angle(s.heading + d.yaw_rate * dt);
  out.speed = s.speed + d.accel * dt;
  return out;
}
}  // namespace

VehicleState BicycleModel::step(const VehicleState& state, const Control& u,
                                double dt) const {
  SEO_EXPECT(dt > 0.0);
  const VehicleDerivative k1 = derivative(state, u);
  const VehicleDerivative k2 = derivative(apply(state, k1, dt * 0.5), u);
  const VehicleDerivative k3 = derivative(apply(state, k2, dt * 0.5), u);
  const VehicleDerivative k4 = derivative(apply(state, k3, dt), u);

  VehicleDerivative blended;
  blended.velocity =
      (k1.velocity + 2.0 * k2.velocity + 2.0 * k3.velocity + k4.velocity) /
      6.0;
  blended.yaw_rate =
      (k1.yaw_rate + 2.0 * k2.yaw_rate + 2.0 * k3.yaw_rate + k4.yaw_rate) /
      6.0;
  blended.accel = (k1.accel + 2.0 * k2.accel + 2.0 * k3.accel + k4.accel) / 6.0;

  VehicleState out = apply(state, blended, dt);
  out.speed = std::clamp(out.speed, 0.0, params_.max_speed);
  return out;
}

VehicleState BicycleModel::step_euler(const VehicleState& state,
                                      const Control& u, double dt) const {
  SEO_EXPECT(dt > 0.0);
  VehicleState out = apply(state, derivative(state, u), dt);
  out.speed = std::clamp(out.speed, 0.0, params_.max_speed);
  return out;
}

VehicleState BicycleModel::step(const VehicleState& state,
                                const HeldControl& held, double dt) const {
  SEO_EXPECT(dt > 0.0);
  const VehicleDerivative k1 = derivative(state, held);
  const VehicleDerivative k2 = derivative(apply(state, k1, dt * 0.5), held);
  const VehicleDerivative k3 = derivative(apply(state, k2, dt * 0.5), held);
  const VehicleDerivative k4 = derivative(apply(state, k3, dt), held);

  VehicleDerivative blended;
  blended.velocity =
      (k1.velocity + 2.0 * k2.velocity + 2.0 * k3.velocity + k4.velocity) /
      6.0;
  blended.yaw_rate =
      (k1.yaw_rate + 2.0 * k2.yaw_rate + 2.0 * k3.yaw_rate + k4.yaw_rate) /
      6.0;
  blended.accel = (k1.accel + 2.0 * k2.accel + 2.0 * k3.accel + k4.accel) / 6.0;

  VehicleState out = apply(state, blended, dt);
  out.speed = std::clamp(out.speed, 0.0, params_.max_speed);
  return out;
}

VehicleState BicycleModel::step_euler(const VehicleState& state,
                                      const HeldControl& held, double dt,
                                      Vec2& course) const {
  SEO_EXPECT(dt > 0.0);
  VehicleState out = apply(state, derivative(state, held, course), dt);
  out.speed = std::clamp(out.speed, 0.0, params_.max_speed);
  return out;
}

}  // namespace seo
