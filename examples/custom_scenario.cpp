// Config-file-driven experiment: reads a key=value scenario description,
// runs the experiment, prints gains with the model-only and the eq. (8)
// sensor + model energy views, and exports a telemetry CSV of one
// representative episode.
//
//   ./examples/custom_scenario [config_path] [trace_csv_path]
//
// When the config file does not exist, a documented template is written
// there first so you can edit and re-run.
#include <fstream>
#include <iostream>
#include <sstream>

#include "energy/report.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario_io.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace seo;
  const std::string config_path = argc > 1 ? argv[1] : "scenario.cfg";
  const std::string trace_path = argc > 2 ? argv[2] : "episode_trace.csv";

  std::ifstream in(config_path);
  if (!in) {
    std::ofstream out(config_path);
    out << scenario_config_template();
    std::cout << "wrote a template config to " << config_path
              << " — edit it and re-run.\n";
    in.open(config_path);
  }

  const KeyValueConfig file_config = KeyValueConfig::parse(in);
  ScenarioConfig scenario = default_scenario();
  const auto unknown = apply_overrides(file_config, scenario);
  for (const auto& key : unknown)
    std::cerr << "warning: unrecognized config key '" << key << "'\n";

  std::cout << "scenario: mode=" << to_string(scenario.mode)
            << " filtered=" << (scenario.filtered ? "on" : "off")
            << " obstacles=" << scenario.obstacle_count
            << " tau=" << scenario.tau_s * 1e3 << " ms"
            << (scenario.moving_obstacles ? " (moving obstacles)" : "")
            << "\n\n";

  ExperimentConfig experiment;
  experiment.scenario = scenario;
  experiment.episodes = 10;
  const ExperimentResult r = run_experiment(experiment);

  TextTable table("Results (" + std::to_string(r.episodes_used) +
                  " successful episodes)");
  table.set_header({"pipeline", "gain", "frames", "gated", "offloaded",
                    "scaled"});
  EnergyComparison sensor_energy;
  for (std::size_t i = 0; i < r.pipelines.size(); ++i) {
    const auto& p = r.pipelines[i];
    const auto counts = p.tally.total();
    table.add_row({p.name,
                   fmt_percent(r.pipeline_model_energy(i,
                                                       scenario.platform)
                                   .gain()),
                   std::to_string(counts.total_frames()),
                   std::to_string(counts.gated),
                   std::to_string(counts.offload_tx + counts.remote_applied),
                   std::to_string(counts.scaled_local)});
    sensor_energy += sensor_gating_energy(p.tally, p.sensor, p.model);
  }
  std::cout << table.render() << "\n";

  // Both views over all Lambda' pipelines, against always-local execution
  // of the same frames.  The eq. (8) view prices a gated sensor period, so
  // it is shown for gating runs only.
  TextTable energy("Energy vs. always-local (all Lambda' pipelines)");
  energy.set_header({"view", "actual [J]", "local [J]", "gain"});
  const auto add_view = [&energy](const std::string& view,
                                  const EnergyComparison& e) {
    energy.add_row({view, fmt_double(e.actual_j, 3),
                    fmt_double(e.baseline_j, 3), fmt_percent(e.gain())});
  };
  add_view("model (accelerator + radio)",
           r.combined_model_energy(scenario.platform));
  if (scenario.mode == OptimizerMode::kGating)
    add_view("sensor + model (eq. 8)", sensor_energy);
  std::cout << energy.render();
  std::cout << "\ncombined gain: "
            << fmt_percent(
                   r.combined_model_energy(scenario.platform).gain())
            << ", avg delta_max: " << fmt_double(r.mean_delta_max(), 2)
            << ", collisions: " << r.failures << "\n";

  // Export one traced episode for plotting.
  EpisodeTrace trace;
  ScenarioConfig traced = scenario;
  (void)run_episode(traced, &trace);
  std::ofstream csv(trace_path);
  csv << trace.to_csv();
  std::cout << "wrote " << trace.size() << " telemetry samples to "
            << trace_path << "\n";
  return 0;
}
