// Offloading under wireless uncertainty: drives the obstacle course with
// task offloading while sweeping channel quality, and reports how SEO's
// feasibility rule (delta-hat vs. the safety deadline) and the local
// fallback keep the pipeline safe while the radio budget shifts.
//
//   ./examples/offload_scenario [scale_mbps...]
#include <iostream>
#include <vector>

#include "energy/report.hpp"
#include "sim/experiment.hpp"
#include "util/numeric.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  std::vector<double> scales;
  for (int i = 1; i < argc; ++i) {
    double scale = 0.0;
    if (!seo::parse_finite_double(argv[i], scale)) {
      std::cerr << "not a finite channel scale: '" << argv[i] << "'\n";
      return 2;
    }
    scales.push_back(scale);
  }
  if (scales.empty()) scales = {2.0, 10.0, 20.0, 60.0};

  std::cout << "SEO offloading scenario: 100 m course, 3 obstacles, "
               "filtered control, tau=20 ms\n\n";

  seo::TextTable table("Offloading behaviour vs. Rayleigh channel scale");
  table.set_header({"scale [Mbps]", "combined gain", "submitted", "applied",
                    "fallbacks", "local share", "collided"});

  for (const double scale : scales) {
    seo::ExperimentConfig config;
    config.scenario = seo::default_scenario();
    config.scenario.obstacle_count = 3;
    config.scenario.mode = seo::OptimizerMode::kOffload;
    config.scenario.filtered = true;
    config.scenario.channel_scale_mbps = scale;
    config.episodes = 10;

    const seo::ExperimentResult r = seo::run_experiment(config);
    std::uint64_t submitted = 0, applied = 0, fallbacks = 0, local = 0,
                  frames = 0;
    for (const auto& p : r.pipelines) {
      const seo::BucketCounts counts = p.tally.total();
      submitted += p.offload_submitted;
      applied += counts.remote_applied;
      fallbacks += counts.local_fallback;
      local += counts.local_frames();
      frames += counts.total_frames();
    }
    table.add_row({
        seo::fmt_double(scale, 0),
        seo::fmt_percent(
            r.combined_model_energy(config.scenario.platform).gain()),
        std::to_string(submitted),
        std::to_string(applied),
        std::to_string(fallbacks),
        seo::fmt_percent(static_cast<double>(local) /
                         static_cast<double>(frames)),
        std::to_string(r.collisions),
    });
  }
  std::cout << table.render();
  std::cout << "\nOn a weak channel delta-hat exceeds the deadline slack, so "
               "SEO declines to offload\n(local share grows) and late "
               "responses trigger local fallbacks — energy is\nlost, safety "
               "is not.\n";
  return 0;
}
