// Energy reports: turn schedule tallies into the gain numbers the paper's
// tables and figures report.
#pragma once

#include "energy/power_model.hpp"
#include "energy/tally.hpp"
#include "sensors/sensor_spec.hpp"

namespace seo {

/// A pair of energies: what the optimized run cost vs. what always-local
/// execution of the same frames would have cost.
struct EnergyComparison {
  double actual_j = 0.0;
  double baseline_j = 0.0;

  /// Fractional energy gain over local execution (the paper's headline
  /// metric): 1 - actual/baseline.  0 when the baseline is empty.
  double gain() const {
    return baseline_j > 0.0 ? 1.0 - actual_j / baseline_j : 0.0;
  }
  /// Normalized energy (Fig. 1's y-axis): actual/baseline.
  double normalized() const {
    return baseline_j > 0.0 ? actual_j / baseline_j : 1.0;
  }

  EnergyComparison& operator+=(const EnergyComparison& other) {
    actual_j += other.actual_j;
    baseline_j += other.baseline_j;
    return *this;
  }
};

/// Model-only energy view (Fig. 5, Tables I and II): accelerator + radio.
/// Local frames cost T_N*P_N + idle remainder; gated frames cost idle;
/// offloaded frames cost radio energy only (deep sleep); scaled frames
/// cost the scaled variant's inference + idle remainder.  Baseline: every
/// frame local on the full model.  `scaled_model` may be omitted only when
/// the tally contains no scaled frames.
EnergyComparison model_energy(const BucketCounts& counts,
                              const PerceptionModelSpec& model,
                              double period_s,
                              const PlatformPowerModel& platform,
                              const PerceptionModelSpec* scaled_model =
                                  nullptr);
EnergyComparison model_energy(const PipelineTally& tally,
                              const PerceptionModelSpec& model,
                              double period_s,
                              const PlatformPowerModel& platform,
                              const PerceptionModelSpec* scaled_model =
                                  nullptr);

/// Sensor-gating energy view — the paper's eq. (8) verbatim (no idle rail):
/// gated sensor period costs p*P_mech, active costs p*(P_mech+P_meas)
/// + T_N*P_N.  Only meaningful for gating-mode tallies (offload outcomes are
/// treated as active: the sensor kept measuring).
EnergyComparison sensor_gating_energy(const BucketCounts& counts,
                                      const SensorSpec& sensor,
                                      const PerceptionModelSpec& model);
EnergyComparison sensor_gating_energy(const PipelineTally& tally,
                                      const SensorSpec& sensor,
                                      const PerceptionModelSpec& model);

/// Sensor-gating energy restricted to intervals whose discretized deadline
/// equals `delta_max` — Table III's "4tau gains" column.
EnergyComparison sensor_gating_energy_at(const PipelineTally& tally,
                                         int delta_max,
                                         const SensorSpec& sensor,
                                         const PerceptionModelSpec& model);

}  // namespace seo
