#include "dynamics/motion.hpp"

#include <algorithm>
#include <cmath>

#include "util/expect.hpp"

namespace seo {

Obstacle ObstacleMotion::at(double t) const {
  const double osc =
      osc_amplitude * std::sin(osc_omega * t + osc_phase);
  return Obstacle{origin + velocity * t + osc_axis * osc, radius};
}

double ObstacleMotion::max_speed() const {
  return velocity.norm() + std::abs(osc_amplitude * osc_omega);
}

MovingObstacleField::MovingObstacleField(std::vector<ObstacleMotion> motions)
    : motions_(std::move(motions)) {
  for (const auto& m : motions_) {
    SEO_EXPECT(m.radius > 0.0);
    SEO_EXPECT(m.osc_amplitude >= 0.0);
  }
}

ObstacleField MovingObstacleField::at(double t) const {
  ObstacleField out;
  at_into(t, out);
  return out;
}

void MovingObstacleField::at_into(double t, ObstacleField& out) const {
  out.clear();
  out.reserve(motions_.size());
  for (const auto& m : motions_) out.push_back(m.at(t));
}

double MovingObstacleField::max_obstacle_speed() const {
  double v = 0.0;
  for (const auto& m : motions_) v = std::max(v, m.max_speed());
  return v;
}

}  // namespace seo
