#include "sim/scenario.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace seo {

const char* to_string(OptimizerMode mode) {
  switch (mode) {
    case OptimizerMode::kNone: return "local";
    case OptimizerMode::kGating: return "gating";
    case OptimizerMode::kOffload: return "offload";
    case OptimizerMode::kScaled: return "scaled";
  }
  return "?";
}

ScenarioConfig default_scenario(double tau_s) {
  SEO_EXPECT(tau_s > 0.0);
  ScenarioConfig config;
  config.tau_s = tau_s;

  PipelineConfig detector_fast;
  detector_fast.name = "detector_p1";
  detector_fast.sensor = zed_stereo_camera(tau_s);
  detector_fast.model = resnet152_px2();
  detector_fast.criticality = Criticality::kOptimizable;

  PipelineConfig detector_slow;
  detector_slow.name = "detector_p2";
  detector_slow.sensor = zed_stereo_camera(2.0 * tau_s);
  detector_slow.model = resnet152_px2();
  detector_slow.criticality = Criticality::kOptimizable;

  PipelineConfig vae;
  vae.name = "vae_state_estimator";
  vae.sensor = zed_stereo_camera(tau_s);
  vae.model = vae_encoder_px2();
  vae.criticality = Criticality::kCritical;

  config.pipelines = {detector_fast, detector_slow, vae};
  return config;
}

MovingObstacleField make_moving_obstacles(const ScenarioConfig& config,
                                          Rng& rng) {
  const ObstacleField placed = make_obstacles(config, rng);
  std::vector<ObstacleMotion> motions;
  motions.reserve(placed.size());
  constexpr double kTwoPi = 6.28318530717958647692;
  for (std::size_t i = 0; i < placed.size(); ++i) {
    const Obstacle o = placed.at(i);
    ObstacleMotion m;
    m.origin = o.center;
    m.radius = o.radius;
    m.velocity = {config.obstacle_drift_speed, 0.0};
    m.osc_amplitude = config.obstacle_osc_amplitude;
    m.osc_omega = config.obstacle_osc_period > 0.0
                      ? kTwoPi / config.obstacle_osc_period
                      : 0.0;
    // Phase 0 or pi (sin = 0): the t = 0 snapshot coincides with the
    // static placement, the pacing band stays centered on the placed
    // position (|y| <= lateral_max + amplitude), and each obstacle still
    // starts pacing in a random direction.
    m.osc_phase = rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : kTwoPi * 0.5;
    motions.push_back(m);
  }
  return MovingObstacleField{std::move(motions)};
}

ObstacleField make_obstacles(const ScenarioConfig& config, Rng& rng) {
  SEO_EXPECT(config.obstacle_count >= 0);
  SEO_EXPECT(config.obstacle_region > 0.0 && config.obstacle_region <= 1.0);
  SEO_EXPECT(config.min_obstacle_gap >= 0.0);

  std::vector<Obstacle> obstacles;
  if (config.obstacle_count == 0) return ObstacleField{};

  const double region_start =
      config.road.length * (1.0 - config.obstacle_region);
  const double region_len = config.road.length - region_start;
  const double spacing =
      region_len / static_cast<double>(config.obstacle_count + 1);

  // Placement band: keep a small entry margin at the region start and an
  // exit margin before the end of the route.
  const double lo = region_start + 1.0;
  const double hi = config.road.length - 2.0;
  SEO_EXPECT(hi > lo);
  // Effective longitudinal gap: the configured minimum, shrunk only when
  // the requested count cannot physically fit in the band (dense fields
  // then degrade to even packing instead of spilling past the route end).
  const int count = config.obstacle_count;
  const double gap =
      count > 1 ? std::min(config.min_obstacle_gap,
                           (hi - lo) / static_cast<double>(count - 1))
                : config.min_obstacle_gap;

  double prev_x = lo - gap;
  for (int i = 0; i < count; ++i) {
    const double nominal =
        region_start + spacing * static_cast<double>(i + 1);
    const double jitter = rng.uniform(-0.25, 0.25) * spacing;
    double x = std::clamp(nominal + jitter, lo, hi);
    // Enforce the minimum longitudinal gap so scenarios stay drivable, and
    // cap so every remaining obstacle (at `gap` spacing) still fits before
    // `hi` — together these keep all placements inside [lo, hi] with
    // pairwise gaps >= `gap`.
    x = std::max(x, prev_x + gap);
    x = std::min(x, hi - gap * static_cast<double>(count - 1 - i));
    prev_x = x;
    const double y =
        rng.uniform(-config.obstacle_lateral_max, config.obstacle_lateral_max);
    obstacles.push_back(Obstacle{Vec2{x, y}, config.obstacle_radius});
  }
  return ObstacleField{std::move(obstacles)};
}

}  // namespace seo
