#include "energy/report.hpp"

#include "util/expect.hpp"

namespace seo {

EnergyComparison model_energy(const BucketCounts& counts,
                              const PerceptionModelSpec& model,
                              double period_s,
                              const PlatformPowerModel& platform,
                              const PerceptionModelSpec* scaled_model) {
  const double e_local = local_frame_energy_j(model, period_s, platform);
  const double e_gated = gated_frame_energy_j(period_s, platform);
  const double e_off = offloaded_frame_energy_j(period_s, platform);
  SEO_EXPECT(counts.scaled_local == 0 || scaled_model != nullptr);
  const double e_scaled =
      scaled_model != nullptr
          ? local_frame_energy_j(*scaled_model, period_s, platform)
          : 0.0;

  EnergyComparison out;
  out.actual_j = static_cast<double>(counts.local_frames()) * e_local +
                 static_cast<double>(counts.gated) * e_gated +
                 static_cast<double>(counts.offload_tx + counts.remote_applied) *
                     e_off +
                 static_cast<double>(counts.scaled_local) * e_scaled +
                 counts.tx_energy_j;
  out.baseline_j = static_cast<double>(counts.total_frames()) * e_local;
  return out;
}

EnergyComparison model_energy(const PipelineTally& tally,
                              const PerceptionModelSpec& model,
                              double period_s,
                              const PlatformPowerModel& platform,
                              const PerceptionModelSpec* scaled_model) {
  return model_energy(tally.total(), model, period_s, platform, scaled_model);
}

EnergyComparison sensor_gating_energy(const BucketCounts& counts,
                                      const SensorSpec& sensor,
                                      const PerceptionModelSpec& model) {
  const double e_active = sensor_active_energy_j(sensor, model);
  const double e_gated = sensor_gated_energy_j(sensor);

  // Offloaded and scaled frames keep the sensor measuring and are charged
  // as active here; sensor gating is a gating-mode analysis (paper VI-D).
  const std::uint64_t active = counts.local_frames() + counts.offload_tx +
                               counts.remote_applied + counts.scaled_local;
  EnergyComparison out;
  out.actual_j = static_cast<double>(active) * e_active +
                 static_cast<double>(counts.gated) * e_gated;
  out.baseline_j = static_cast<double>(counts.total_frames()) * e_active;
  return out;
}

EnergyComparison sensor_gating_energy(const PipelineTally& tally,
                                      const SensorSpec& sensor,
                                      const PerceptionModelSpec& model) {
  return sensor_gating_energy(tally.total(), sensor, model);
}

EnergyComparison sensor_gating_energy_at(const PipelineTally& tally,
                                         int delta_max,
                                         const SensorSpec& sensor,
                                         const PerceptionModelSpec& model) {
  SEO_EXPECT(delta_max >= 1 && delta_max <= tally.deadline_cap());
  return sensor_gating_energy(tally.constrained(delta_max), sensor, model);
}

}  // namespace seo
