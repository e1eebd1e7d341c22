// Unit tests for sensor/model specs (the paper's published numbers) and the
// synthetic detector.
#include <gtest/gtest.h>

#include <cmath>

#include "sensors/detector.hpp"
#include "sensors/sensor_spec.hpp"
#include "util/expect.hpp"

namespace seo {
namespace {

TEST(SensorSpec, PaperTableIIIPowerNumbers) {
  const SensorSpec cam = zed_stereo_camera(0.02);
  EXPECT_DOUBLE_EQ(cam.meas_power_w, 1.9);
  EXPECT_DOUBLE_EQ(cam.mech_power_w, 0.0);

  const SensorSpec radar = navtech_cts350x_radar(0.02);
  EXPECT_DOUBLE_EQ(radar.meas_power_w, 21.6);
  EXPECT_DOUBLE_EQ(radar.mech_power_w, 2.4);

  const SensorSpec lidar = velodyne_hdl32e_lidar(0.02);
  EXPECT_DOUBLE_EQ(lidar.meas_power_w, 9.6);
  EXPECT_DOUBLE_EQ(lidar.mech_power_w, 2.4);
}

TEST(SensorSpec, PeriodPropagates) {
  EXPECT_DOUBLE_EQ(zed_stereo_camera(0.04).period_s, 0.04);
  EXPECT_THROW(zed_stereo_camera(0.0), ContractViolation);
}

TEST(PerceptionModelSpec, Px2ResNetCharacterization) {
  // The paper's TensorRT measurement: 17 ms latency, 7 W execution power.
  const PerceptionModelSpec m = resnet152_px2();
  EXPECT_DOUBLE_EQ(m.latency_s, 0.017);
  EXPECT_DOUBLE_EQ(m.power_w, 7.0);
}

DetectorConfig noiseless() {
  DetectorConfig c;
  c.position_noise = 0.0;
  c.dropout_prob = 0.0;
  return c;
}

TEST(Detector, SeesObstacleInRangeAndFov) {
  SyntheticDetector det(noiseless(), Rng(1));
  VehicleState ego;
  const ObstacleField field({Obstacle{{10.0, 0.0}, 1.0}});
  const DetectionSet out = det.detect(ego, field, 1.25);
  ASSERT_EQ(out.detections.size(), 1u);
  EXPECT_TRUE(out.valid);
  EXPECT_DOUBLE_EQ(out.frame_time, 1.25);
  EXPECT_DOUBLE_EQ(out.detections[0].position.x, 10.0);
  EXPECT_DOUBLE_EQ(out.detections[0].range, 10.0);
}

TEST(Detector, MissesOutOfRange) {
  SyntheticDetector det(noiseless(), Rng(2));
  VehicleState ego;
  const ObstacleField field({Obstacle{{60.0, 0.0}, 1.0}});  // beyond 40 m
  EXPECT_TRUE(det.detect(ego, field, 0.0).detections.empty());
}

TEST(Detector, MissesBehind) {
  SyntheticDetector det(noiseless(), Rng(3));
  VehicleState ego;  // heading +x
  const ObstacleField field({Obstacle{{-10.0, 0.0}, 1.0}});
  EXPECT_TRUE(det.detect(ego, field, 0.0).detections.empty());
}

TEST(Detector, FovBoundary) {
  DetectorConfig config = noiseless();
  config.fov_half_angle = 0.5;
  SyntheticDetector det(config, Rng(4));
  VehicleState ego;
  // Obstacle at bearing ~0.46 rad: inside; at ~0.79: outside.
  const ObstacleField inside({Obstacle{{10.0, 5.0}, 1.0}});
  const ObstacleField outside({Obstacle{{10.0, 10.0}, 1.0}});
  EXPECT_EQ(det.detect(ego, inside, 0.0).detections.size(), 1u);
  EXPECT_TRUE(det.detect(ego, outside, 0.0).detections.empty());
}

TEST(Detector, NoiseIsBoundedInDistribution) {
  DetectorConfig config;
  config.position_noise = 0.1;
  SyntheticDetector det(config, Rng(5));
  VehicleState ego;
  const ObstacleField field({Obstacle{{20.0, 0.0}, 1.0}});
  double sum_sq = 0.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const auto out = det.detect(ego, field, 0.0);
    ASSERT_EQ(out.detections.size(), 1u);
    const Vec2 err = out.detections[0].position - Vec2{20.0, 0.0};
    sum_sq += err.norm_sq();
  }
  // E[|err|^2] = 2*sigma^2 for isotropic Gaussian noise.
  EXPECT_NEAR(sum_sq / n, 2.0 * 0.1 * 0.1, 0.004);
}

TEST(Detector, DropoutRate) {
  DetectorConfig config = noiseless();
  config.dropout_prob = 0.25;
  SyntheticDetector det(config, Rng(6));
  VehicleState ego;
  const ObstacleField field({Obstacle{{15.0, 0.0}, 1.0}});
  int seen = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i)
    seen += det.detect(ego, field, 0.0).detections.empty() ? 0 : 1;
  EXPECT_NEAR(static_cast<double>(seen) / n, 0.75, 0.03);
}

TEST(Detector, DeterministicPerSeed) {
  DetectorConfig config;
  config.position_noise = 0.2;
  SyntheticDetector a(config, Rng(77)), b(config, Rng(77));
  VehicleState ego;
  const ObstacleField field({Obstacle{{12.0, 2.0}, 1.0}});
  for (int i = 0; i < 50; ++i) {
    const auto da = a.detect(ego, field, i * 0.02);
    const auto db = b.detect(ego, field, i * 0.02);
    ASSERT_EQ(da.detections.size(), db.detections.size());
    for (std::size_t k = 0; k < da.detections.size(); ++k) {
      EXPECT_DOUBLE_EQ(da.detections[k].position.x,
                       db.detections[k].position.x);
      EXPECT_DOUBLE_EQ(da.detections[k].position.y,
                       db.detections[k].position.y);
    }
  }
}

TEST(Detector, ConfigContracts) {
  DetectorConfig bad;
  bad.dropout_prob = 1.0;
  EXPECT_THROW(SyntheticDetector(bad, Rng(1)), ContractViolation);
  bad = DetectorConfig{};
  bad.max_range = 0.0;
  EXPECT_THROW(SyntheticDetector(bad, Rng(1)), ContractViolation);
}

}  // namespace
}  // namespace seo
