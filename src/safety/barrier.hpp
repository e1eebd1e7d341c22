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
//
// Heading screen.  The capped kernel can take a HeadingHint: a unit vector
// u = (cos, sin) whose angle is within `err` radians of the state's
// heading psi.  It then skips the atan2/wrap/cos of an obstacle that fails
// the trig skip (see Barrier::value) but provably cannot lower the running
// minimum h, because an upper bound C on the computed cos(chi) gives
//
//   screen = clearance - margin * g(C) <= clearance - margin * g(cos chi)
//
// in floating point: rounded g is monotone in its argument (1 + c, the
// multiply by heading_gain >= 0 and the exact * 0.5 all are), so are the
// multiply by margin > 0 and the subtraction.  When screen >= h, the
// obstacle's h_i >= h, std::min(h, h_i) keeps its first argument (a tie,
// ±0 included, returns h), and skipping changes no bit.  The bound is
//
//   C = min(1, -(dx * cos + dy * sin) / dist + tol),
//   tol = err + 1e-12 * (4 + |psi|)
//
// with (dx, dy) = position - center, the kernel's own doubles: atan2 sees
// their exact negation, so -(dx, dy) / dist is the unit vector to the
// obstacle and its dot with u is cos(bearing - hint angle) up to ~10 ulps.
// cos is 1-Lipschitz, so |cos(bearing - angle) - cos(bearing - psi)| <=
// err, and the computed chi (atan2, the subtraction of psi, wrap_angle)
// and cos round by a few ulps of (1 + |psi|); 1e-12 * (4 + |psi|) covers
// both by a factor of over 1000.  Guards keep every other case on the
// exact path: a dist below 1e-150 (zero when the obstacle is centred on
// the ego), where dx * dx and dy * dy may underflow, never screens; and an
// err of +inf (the default hint) or a NaN hint or tol gives C = 1 (note
// std::min(1.0, NaN) == 1.0), the worst g, which is the trig skip's own
// test and has already failed.  The fold without a hint compiles no
// screen at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "dynamics/obstacle.hpp"
#include "dynamics/types.hpp"

namespace seo {

struct BarrierConfig {
  double body_radius = 0.9;   ///< ego body disc radius [m]
  double margin = 1.2;        ///< base required clearance [m]
  double heading_gain = 1.0;  ///< head-on inflation factor
};

/// The heading the capped kernel may screen obstacles with (header comment,
/// "Heading screen"): cos and sin, each to within a few ulps, of an angle
/// within `err` radians of the state's heading.  The default carries no
/// information, so nothing is screened.
struct HeadingHint {
  double cos = 1.0;
  double sin = 0.0;
  double err = std::numeric_limits<double>::infinity();
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

  /// The same fold with a heading hint: more obstacles skip their trig,
  /// with the same result bit for bit.  `trig_evals`, when not null, is
  /// incremented by the number of obstacles that took the trig.
  double value(const VehicleState& state, const double* xs, const double* ys,
               const double* radii, std::size_t n, double cap,
               const HeadingHint& hint,
               std::uint64_t* trig_evals = nullptr) const;

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
