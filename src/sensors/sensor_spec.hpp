// Sensor and perception-model specifications.
//
// Power numbers come straight from the paper's Table III (industry-grade
// datasheets: ZED stereo camera, Navtech CTS350-X radar, Velodyne HDL-32e
// LiDAR); the perception-model characterization (latency 17 ms, power 7 W)
// is the paper's TensorRT ResNet-152 measurement on the Nvidia Drive PX2.
#pragma once

#include <string>

namespace seo {

/// A physical sensor: sampling period plus the two power rails of the
/// paper's eq. (8).  `mech_power_w` (P_mech) is *not* gateable — a LiDAR or
/// radar motor keeps spinning through gated periods; `meas_power_w`
/// (P_meas) is drawn only while actually measuring.
struct SensorSpec {
  std::string name;
  double period_s = 0.02;       ///< sampling period p_i [s]
  double meas_power_w = 0.0;    ///< P_meas [W]
  double mech_power_w = 0.0;    ///< P_mech [W]
  double frame_bytes = 32768.0; ///< encoded frame size (offload payload)
};

/// A neural processing model characterized by its measured execution
/// overheads on the target edge platform (paper section VI-A).
struct PerceptionModelSpec {
  std::string name;
  double latency_s = 0.017;  ///< T_N: per-inference latency [s]
  double power_w = 7.0;      ///< P_N: execution power draw [W]
};

// --- Catalog (paper Table III + section VI-A) -----------------------------

/// ZED stereo camera: P_meas = 1.9 W, no mechanical parts.
SensorSpec zed_stereo_camera(double period_s);
/// Navtech CTS350-X radar: P_meas = 21.6 W, P_mech = 2.4 W.
SensorSpec navtech_cts350x_radar(double period_s);
/// Velodyne HDL-32e LiDAR: P_meas = 9.6 W, P_mech = 2.4 W (rotation motor).
SensorSpec velodyne_hdl32e_lidar(double period_s);
/// ResNet-152 object detector on Drive PX2 via TensorRT: 17 ms, 7 W.
PerceptionModelSpec resnet152_px2();
/// A scaled-down detector variant (ResNet-50-class) for the model-scaling
/// optimizer: ~1/3 the latency at slightly lower execution power.
PerceptionModelSpec resnet50_px2();
/// The VAE state-estimation encoder of ShieldNN's pipeline (critical subset;
/// small model, always on).
PerceptionModelSpec vae_encoder_px2();

}  // namespace seo
