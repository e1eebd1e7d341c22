// Multi-sensor rig: builds a camera + radar + LiDAR perception stack (the
// paper's Table III sensors), runs safety-aware sensor gating, and prints
// the eq. (8) energy breakdown per pipeline — including the mechanical
// power rails that resist gating.
//
//   ./examples/sensor_rig [obstacles]
#include <iostream>

#include "energy/report.hpp"
#include "example_args.hpp"
#include "sim/experiment.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace seo;
  const int obstacles = static_cast<int>(example::int_arg(
      argc, argv, 1, 0, 32, 2, "sensor_rig [obstacles 0..32]"));
  const double tau = 0.02;

  ScenarioConfig scenario = default_scenario(tau);
  scenario.obstacle_count = obstacles;
  scenario.mode = OptimizerMode::kGating;
  scenario.filtered = true;

  // Replace the default camera pair with a heterogeneous rig:
  // camera at p=tau, radar at p=tau, lidar at p=2tau, plus the critical
  // state estimator.
  PipelineConfig camera{"camera_det", zed_stereo_camera(tau),
                        resnet152_px2(), Criticality::kOptimizable};
  PipelineConfig radar{"radar_det", navtech_cts350x_radar(tau),
                       resnet152_px2(), Criticality::kOptimizable};
  PipelineConfig lidar{"lidar_det", velodyne_hdl32e_lidar(2 * tau),
                       resnet152_px2(), Criticality::kOptimizable};
  PipelineConfig vae{"vae_state_estimator", zed_stereo_camera(tau),
                     vae_encoder_px2(), Criticality::kCritical};
  scenario.pipelines = {camera, radar, lidar, vae};

  ExperimentConfig config;
  config.scenario = scenario;
  config.episodes = 10;
  const ExperimentResult r = run_experiment(config);

  std::cout << "SEO multi-sensor rig: camera + radar + lidar under "
               "safety-aware sensor gating\n(" << obstacles
            << " obstacles, filtered control)\n\n";

  TextTable table("Per-pipeline sensor-inclusive energy (paper eq. 8)");
  table.set_header({"pipeline", "P_meas", "P_mech", "frames", "gated",
                    "actual [J]", "always-on [J]", "gain"});
  for (const auto& p : r.pipelines) {
    const EnergyComparison cmp =
        sensor_gating_energy(p.tally, p.sensor, p.model);
    table.add_row({p.name, fmt_double(p.sensor.meas_power_w, 1) + " W",
                   fmt_double(p.sensor.mech_power_w, 1) + " W",
                   std::to_string(p.tally.total_frames()),
                   std::to_string(p.tally.total().gated),
                   fmt_double(cmp.actual_j, 1), fmt_double(cmp.baseline_j, 1),
                   fmt_percent(cmp.gain())});
  }
  std::cout << table.render();
  std::cout << "\navg delta_max=" << fmt_double(r.mean_delta_max(), 2)
            << ", filter engagements=" << r.filter_engagements
            << ", collisions=" << r.failures << "\n"
            << "The camera pipeline gates best (no mechanical rail); the "
               "radar's 21.6 W measurement\nrail makes gating highly "
               "profitable despite its spinning antenna.\n";
  return 0;
}
