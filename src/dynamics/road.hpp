// Straight road segment along the +x axis — the paper's "100 m road that is
// populated with obstacles in the final third" (section VI-A).
#pragma once

#include "dynamics/vec2.hpp"

namespace seo {

/// Geometry of the test road.  The centerline runs from (0,0) to (length,0).
struct RoadParams {
  double length = 100.0;     ///< paper: 100 m route
  double half_width = 6.0;   ///< drivable half-width [m] (road + shoulder)
};

/// Road-frame queries used by the controller (lateral error) and by the
/// safety layer (boundary margins count as unsafe set boundaries too).
class Road {
 public:
  explicit Road(RoadParams params = {});

  const RoadParams& params() const { return params_; }
  double length() const { return params_.length; }
  double half_width() const { return params_.half_width; }

  /// Longitudinal progress along the route, clamped to [0, length].
  double progress(const Vec2& position) const;
  /// Distance from `position` to the nearer road edge (negative if off-road).
  double boundary_margin(const Vec2& position) const;
  /// True once the vehicle's x coordinate passes the end of the route.
  bool finished(const Vec2& position) const;
  /// True if the position lies outside the drivable band.
  bool off_road(const Vec2& position) const;
  /// Point on the centerline `lookahead` meters ahead of `position`'s
  /// progress (for pure-pursuit steering).
  Vec2 lookahead_point(const Vec2& position, double lookahead) const;

 private:
  RoadParams params_;
};

}  // namespace seo
