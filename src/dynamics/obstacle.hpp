// Static obstacles and queries over them.  The paper models each obstacle's
// "safety bound coordinates" as a sphere around the obstacle (section III-B);
// here that is a disc in the plane.
//
// Storage is one SoA layout: parallel `xs/ys/radii` columns feed the
// min-over-obstacles kernels in the safety layer — contiguous same-type
// columns let those loops vectorize and skip the struct stride.  `Obstacle`
// is the value type going in (construction, push_back) and coming out
// (`at`); nothing stores it.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "dynamics/vec2.hpp"

namespace seo {

/// A circular static obstacle (e.g. a parked vehicle or barrel in CARLA).
struct Obstacle {
  Vec2 center{};
  double radius = 1.0;  ///< physical extent [m]
};

/// Result of a nearest-obstacle query.
struct NearestObstacle {
  std::size_t index = 0;
  double surface_distance = 0.0;  ///< distance from query point to obstacle
                                  ///< *surface* (can be negative inside)
  Vec2 center{};
  double radius = 0.0;
};

/// Collection of obstacles with proximity queries.  Logically immutable in
/// most uses; the in-place mutators (`clear`/`reserve`/`push_back`) exist
/// so per-substep rebuilds (moving-obstacle worlds) reuse capacity instead
/// of allocating a fresh field.
class ObstacleField {
 public:
  ObstacleField() = default;
  explicit ObstacleField(std::vector<Obstacle> obstacles);

  bool empty() const { return xs_.empty(); }
  std::size_t size() const { return xs_.size(); }
  /// Obstacle `i`, assembled from the columns.
  Obstacle at(std::size_t i) const;

  /// The columns, index-aligned (center.x, center.y, radius per obstacle)
  /// — the layout the barrier and safe-interval kernels iterate.
  const std::vector<double>& xs() const { return xs_; }
  const std::vector<double>& ys() const { return ys_; }
  const std::vector<double>& radii() const { return radii_; }

  /// Drops all obstacles, keeping capacity.
  void clear();

  /// Pre-sizes the columns for `n` obstacles.
  void reserve(std::size_t n);

  /// Appends one obstacle; allocation-free within capacity.
  void push_back(const Obstacle& o);

  /// Nearest obstacle to `point` by surface distance; nullopt when empty.
  std::optional<NearestObstacle> nearest(const Vec2& point) const;

  /// True if a disc of `body_radius` at `point` intersects any obstacle.
  bool collides(const Vec2& point, double body_radius) const;

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<double> radii_;
};

}  // namespace seo
