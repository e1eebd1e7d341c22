#include "sensors/sensor_spec.hpp"

#include "util/expect.hpp"
#include "util/units.hpp"

namespace seo {

SensorSpec zed_stereo_camera(double period_s) {
  SEO_EXPECT(period_s > 0.0);
  return SensorSpec{"zed_camera", period_s, 1.9, 0.0, units::kib(24)};
}

SensorSpec navtech_cts350x_radar(double period_s) {
  SEO_EXPECT(period_s > 0.0);
  return SensorSpec{"navtech_radar", period_s, 21.6, 2.4, units::kib(24)};
}

SensorSpec velodyne_hdl32e_lidar(double period_s) {
  SEO_EXPECT(period_s > 0.0);
  return SensorSpec{"velodyne_lidar", period_s, 9.6, 2.4, units::kib(48)};
}

PerceptionModelSpec resnet152_px2() {
  return PerceptionModelSpec{"resnet152", 0.017, 7.0};
}

PerceptionModelSpec resnet50_px2() {
  return PerceptionModelSpec{"resnet50", 0.006, 6.0};
}

PerceptionModelSpec vae_encoder_px2() {
  return PerceptionModelSpec{"vae_encoder", 0.004, 3.0};
}

}  // namespace seo
