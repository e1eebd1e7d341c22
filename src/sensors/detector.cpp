#include "sensors/detector.hpp"

#include <cmath>

#include "util/expect.hpp"

namespace seo {

SyntheticDetector::SyntheticDetector(DetectorConfig config, Rng rng)
    : config_(config), rng_(rng) {
  SEO_EXPECT(config_.max_range > 0.0);
  SEO_EXPECT(config_.fov_half_angle > 0.0);
  SEO_EXPECT(config_.position_noise >= 0.0);
  SEO_EXPECT(config_.dropout_prob >= 0.0 && config_.dropout_prob < 1.0);
}

DetectionSet SyntheticDetector::detect(const VehicleState& ego,
                                       const ObstacleField& field,
                                       double frame_time) {
  DetectionSet out;
  detect_into(ego, field, frame_time, out);
  return out;
}

void SyntheticDetector::detect_into(const VehicleState& ego,
                                    const ObstacleField& field,
                                    double frame_time, DetectionSet& out) {
  out.frame_time = frame_time;
  out.valid = true;
  out.detections.clear();
  // At most one detection per obstacle: one exact reservation instead of
  // log2(n) reallocations on this per-frame path.
  const std::size_t n = field.size();
  out.detections.reserve(n);
  const std::vector<double>& xs = field.xs();
  const std::vector<double>& ys = field.ys();
  const std::vector<double>& radii = field.radii();
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 center{xs[i], ys[i]};
    const Vec2 rel = center - ego.position;
    const double range = rel.norm();
    if (range > config_.max_range) continue;
    const double bearing = wrap_angle(rel.angle() - ego.heading);
    if (std::abs(bearing) > config_.fov_half_angle) continue;
    if (config_.dropout_prob > 0.0 && rng_.bernoulli(config_.dropout_prob))
      continue;
    Detection d;
    d.position = center +
                 Vec2{rng_.gaussian(0.0, config_.position_noise),
                      rng_.gaussian(0.0, config_.position_noise)};
    d.radius = radii[i];
    d.range = range;
    out.detections.push_back(d);
  }
}

}  // namespace seo
