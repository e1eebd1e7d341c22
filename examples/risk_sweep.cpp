// Risk sweep: the paper's Fig. 1 / Fig. 6 storyline as one executable —
// sweep obstacle density, watch the safe dynamic deadline distribution
// shift, and see both optimization methods trade energy for robustness.
//
//   ./examples/risk_sweep [max_obstacles]
#include <iostream>

#include "energy/report.hpp"
#include "example_args.hpp"
#include "sim/experiment.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace seo;
  const int max_obstacles = static_cast<int>(example::int_arg(
      argc, argv, 1, 0, 32, 6, "risk_sweep [max_obstacles 0..32]"));

  std::cout << "SEO risk sweep: obstacle density vs. deadlines and energy "
               "(filtered control)\n\n";

  TextTable table("Risk level vs. safe deadlines and energy gains");
  table.set_header({"#obst", "delta_max avg", "freq(1)", "freq(4)",
                    "gating gain", "offload gain", "engagements/run",
                    "min h [m]"});

  for (int obstacles = 0; obstacles <= max_obstacles; obstacles += 2) {
    ExperimentConfig gate_config;
    gate_config.scenario = default_scenario();
    gate_config.scenario.obstacle_count = obstacles;
    gate_config.scenario.mode = OptimizerMode::kGating;
    gate_config.episodes = 10;
    const ExperimentResult gate = run_experiment(gate_config);

    ExperimentConfig off_config = gate_config;
    off_config.scenario.mode = OptimizerMode::kOffload;
    const ExperimentResult off = run_experiment(off_config);

    table.add_row({
        std::to_string(obstacles),
        fmt_double(gate.mean_delta_max(), 2),
        fmt_percent(gate.deadline_hist.frequency(1)),
        fmt_percent(gate.deadline_hist.frequency(4)),
        fmt_percent(
            gate.combined_model_energy(gate_config.scenario.platform).gain()),
        fmt_percent(
            off.combined_model_energy(off_config.scenario.platform).gain()),
        fmt_double(static_cast<double>(gate.filter_engagements) /
                       std::max(gate.episodes_used, 1), 1),
        fmt_double(gate.min_h.empty() ? 0.0 : gate.min_h.mean(), 2),
    });
  }
  std::cout << table.render();
  std::cout << "\nMore obstacles -> the lookup table T(x,u) samples smaller "
               "Delta_max -> fewer\noptimization slots -> energy gains "
               "recede.  Safety is never traded: the filter\nabsorbs the "
               "residual risk at every density.\n";
  return 0;
}
