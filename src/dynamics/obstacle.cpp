#include "dynamics/obstacle.hpp"

#include <cmath>
#include <limits>

#include "util/expect.hpp"

namespace seo {

ObstacleField::ObstacleField(std::vector<Obstacle> obstacles) {
  reserve(obstacles.size());
  for (const auto& o : obstacles) push_back(o);
}

Obstacle ObstacleField::at(std::size_t i) const {
  SEO_EXPECT(i < xs_.size());
  return Obstacle{{xs_[i], ys_[i]}, radii_[i]};
}

void ObstacleField::clear() {
  xs_.clear();
  ys_.clear();
  radii_.clear();
}

void ObstacleField::reserve(std::size_t n) {
  xs_.reserve(n);
  ys_.reserve(n);
  radii_.reserve(n);
}

void ObstacleField::push_back(const Obstacle& o) {
  SEO_EXPECT(o.radius > 0.0);
  xs_.push_back(o.center.x);
  ys_.push_back(o.center.y);
  radii_.push_back(o.radius);
}

std::optional<NearestObstacle> ObstacleField::nearest(const Vec2& point) const {
  if (xs_.empty()) return std::nullopt;
  // The per-index arithmetic is distance(point, center) - radius operation
  // for operation, so the result is bit-identical to that formulation.
  std::size_t best_i = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  const std::size_t n = xs_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = point.x - xs_[i];
    const double dy = point.y - ys_[i];
    const double d = std::sqrt(dx * dx + dy * dy) - radii_[i];
    if (d < best_dist) {
      best_dist = d;
      best_i = i;
    }
  }
  return NearestObstacle{best_i, best_dist, {xs_[best_i], ys_[best_i]},
                         radii_[best_i]};
}

bool ObstacleField::collides(const Vec2& point, double body_radius) const {
  SEO_EXPECT(body_radius >= 0.0);
  const std::size_t n = xs_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = point.x - xs_[i];
    const double dy = point.y - ys_[i];
    if (std::sqrt(dx * dx + dy * dy) <= radii_[i] + body_radius) return true;
  }
  return false;
}

}  // namespace seo
