// Platform power model and per-frame energy closed forms.
//
// Three accounting views are used by the paper's experiments:
//   * model-only view (Fig. 5, Tables I-II): accelerator energy, with a
//     calibrated idle rail P_idle drawn during gated/not-inferring slots
//     (clock gating keeps the accelerator warm), and deep sleep (0 W)
//     during offloaded slots whose response window is known (eq. 7 counts
//     only radio energy);
//   * radio view (eq. 7): E = T_tx * P_tx per transmission;
//   * sensor view (eq. 8, Table III): E_gated = p * P_mech,
//     E_active = p * (P_mech + P_meas) + T_N * P_N, with no idle term —
//     the paper's equation verbatim.
#pragma once

#include "sensors/sensor_spec.hpp"

namespace seo {

/// Power rails of the edge compute platform (defaults: Nvidia Drive PX2
/// characterization from the paper + calibrated idle rail).
struct PlatformPowerModel {
  double idle_w = 2.5;        ///< accelerator clock-gated idle power
  double deep_sleep_w = 0.0;  ///< accelerator power-gated during offload
  double tx_w = 1.3;          ///< Wi-Fi transmit power P_tx
};

/// Energy of one locally processed frame in the model-only view:
/// T_N*P_N while inferring, idle for the rest of the sensor period.
/// Requires model latency <= period (the schedulability precondition).
double local_frame_energy_j(const PerceptionModelSpec& model, double period_s,
                            const PlatformPowerModel& platform);

/// Energy of one gated frame in the model-only view: idle for the period.
double gated_frame_energy_j(double period_s,
                            const PlatformPowerModel& platform);

/// Energy of one offloaded frame in the model-only view, excluding radio:
/// deep sleep for the period (radio energy is tracked per-transmission).
double offloaded_frame_energy_j(double period_s,
                                const PlatformPowerModel& platform);

/// Sensor-inclusive energy of one *active* sensor period (paper eq. 8 E_N).
double sensor_active_energy_j(const SensorSpec& sensor,
                              const PerceptionModelSpec& model);

/// Sensor-inclusive energy of one *gated* sensor period (paper eq. 8
/// E_Omega): only the non-gateable mechanical rail keeps drawing.
double sensor_gated_energy_j(const SensorSpec& sensor);

}  // namespace seo
