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

namespace {

/// The one kernel body behind both capped overloads.  `kScreen` compiles
/// the heading screen in; each instantiation has one caller and is
/// inlined there, so the unhinted fold carries none of the screen's code
/// and its unread count compiles away.
template <bool kScreen>
double fold(const BarrierConfig& config, const VehicleState& state,
            const double* xs, const double* ys, const double* radii,
            std::size_t n, double cap, const HeadingHint& hint,
            std::uint64_t& trig_evals) {
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
  //
  // Heading screen: an obstacle that fails the trig skip is tested once
  // more with g at an upper bound of its cos(chi) from `hint` (argued in
  // the header); only one that fails both takes the trig.
  const double px = state.position.x;
  const double py = state.position.y;
  const double worst_g = 1.0 + config.heading_gain;
  const double tol = hint.err + 1e-12 * (4.0 + std::abs(state.heading));
  double h = cap;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = px - xs[i];
    const double dy = py - ys[i];
    const double dist = std::sqrt(dx * dx + dy * dy);
    const double clearance = dist - radii[i] - config.body_radius;
    if (clearance - config.margin * worst_g >= h) continue;
    if constexpr (kScreen) {
      if (dist >= 1e-150) {
        const double c =
            std::min(1.0, -(dx * hint.cos + dy * hint.sin) / dist + tol);
        const double g = 1.0 + config.heading_gain * (1.0 + c) * 0.5;
        if (clearance - config.margin * g >= h) continue;
      }
    }
    ++trig_evals;
    const double chi =
        wrap_angle(std::atan2(ys[i] - py, xs[i] - px) - state.heading);
    const double g = 1.0 + config.heading_gain * (1.0 + std::cos(chi)) * 0.5;
    h = std::min(h, clearance - config.margin * g);
  }
  return h;
}

}  // namespace

double Barrier::value(const VehicleState& state, const double* xs,
                      const double* ys, const double* radii, std::size_t n,
                      double cap) const {
  std::uint64_t trig_evals = 0;
  return fold<false>(config_, state, xs, ys, radii, n, cap, HeadingHint{},
                     trig_evals);
}

double Barrier::value(const VehicleState& state, const double* xs,
                      const double* ys, const double* radii, std::size_t n,
                      double cap, const HeadingHint& hint,
                      std::uint64_t* trig_evals) const {
  std::uint64_t evals = 0;
  const double h =
      fold<true>(config_, state, xs, ys, radii, n, cap, hint, evals);
  if (trig_evals != nullptr) *trig_evals += evals;
  return h;
}

}  // namespace seo
