#include "safety/barrier.hpp"

#include <cmath>

#include "util/expect.hpp"

namespace seo {

Barrier::Barrier(BarrierConfig config) : config_(config) {
  SEO_EXPECT(config_.body_radius >= 0.0);
  SEO_EXPECT(config_.margin > 0.0);
  SEO_EXPECT(config_.heading_gain >= 0.0);
}

double Barrier::surface_clearance(const VehicleState& state,
                                  const Obstacle& obstacle) const {
  return distance(state.position, obstacle.center) - obstacle.radius -
         config_.body_radius;
}

double Barrier::relative_bearing(const VehicleState& state,
                                 const Obstacle& obstacle) const {
  const Vec2 rel = obstacle.center - state.position;
  return wrap_angle(rel.angle() - state.heading);
}

double Barrier::value(const VehicleState& state,
                      const Obstacle& obstacle) const {
  const double clearance = surface_clearance(state, obstacle);
  const double chi = relative_bearing(state, obstacle);
  const double g = 1.0 + config_.heading_gain * (1.0 + std::cos(chi)) * 0.5;
  return clearance - config_.margin * g;
}

double Barrier::value(const VehicleState& state, const double* xs,
                      const double* ys, const double* radii, std::size_t n,
                      double cap) const {
  // SoA kernel over parallel obstacle columns, bit-identical to folding
  // the per-obstacle `value()` in index order, starting from `cap`:
  //
  //   h_i = clearance_i - margin * g(chi_i),   g in [1, 1 + heading_gain]
  //
  // Trig skip: lb_i = clearance_i - margin * (1 + heading_gain) bounds h_i
  // from below *in floating point* — g(chi) <= 1 + heading_gain holds under
  // rounding because every step ((1+cos)<=2 with 1+1==2 exact, *0.5 exact,
  // monotone multiply/add) preserves the bound.  When lb_i >= running min m
  // we have h_i >= m, so min(m, h_i) == m and the atan2/wrap/cos for this
  // obstacle can be skipped without changing a single output bit.
  //
  // Cap: std::min keeps its first argument on a tie and drops a NaN second
  // argument, so the fold from `cap` equals std::min(cap, fold from +inf)
  // to the bit (±0 ties included); a low cap just skips more trig.
  const double px = state.position.x;
  const double py = state.position.y;
  const double worst_g = 1.0 + config_.heading_gain;
  double h = cap;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = px - xs[i];
    const double dy = py - ys[i];
    const double clearance =
        std::sqrt(dx * dx + dy * dy) - radii[i] - config_.body_radius;
    if (clearance - config_.margin * worst_g >= h) continue;
    const double chi =
        wrap_angle(std::atan2(ys[i] - py, xs[i] - px) - state.heading);
    const double g = 1.0 + config_.heading_gain * (1.0 + std::cos(chi)) * 0.5;
    h = std::min(h, clearance - config_.margin * g);
  }
  return h;
}

}  // namespace seo
