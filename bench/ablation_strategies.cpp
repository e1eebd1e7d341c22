// Ablation A6: optimization-method comparison — gating vs. model scaling
// vs. offloading under the same safety deadlines.
//
// Gating maximizes accelerator savings but serves stale detections in
// optimization slots; model scaling keeps outputs fresh every frame at a
// smaller saving; offloading moves the work off-platform entirely.  The
// metric triple (energy gain, worst detection staleness, filter
// engagements) quantifies the three-way trade-off the paper's section V
// opens but does not evaluate.
#include "common.hpp"
#include "sim/simulation.hpp"

int main() {
  using namespace seo;
  bench::print_banner(
      "ablation_strategies",
      "extends paper section V (Omega methods)",
      "filtered, 3 obstacles, tau=20 ms; identical deadline streams per "
      "mode");

  TextTable table("Optimization methods under identical safety deadlines");
  table.set_header({"method", "combined gain", "p=tau gain",
                    "worst staleness [ms]", "engagements/run",
                    "collided"});

  for (const SweepRow& row : run_sweep(bench::grid(
           {"paper_default"}, {{"filtered", "true"}, {"obstacles", "3"}},
           {{"mode", {"local", "gating", "scaled", "offload"}}}))) {
    const ScenarioConfig& config = row.scenario;
    const ExperimentResult& r = row.result;

    // Staleness from a traced single episode (representative seed).
    ScenarioConfig traced = config;
    traced.seed = bench::kBaseSeed;
    EpisodeTrace trace;
    (void)run_episode(traced, &trace);

    table.add_row({
        to_string(config.mode),
        fmt_percent(bench::combined_gain(r, config.platform)),
        fmt_percent(bench::pipeline_gain(r, 0, config.platform)),
        fmt_double(trace.max_detection_age() * 1e3, 0),
        fmt_double(static_cast<double>(r.filter_engagements) /
                       std::max(r.episodes_used, 1), 1),
        std::to_string(r.collisions),
    });
  }
  std::cout << table.render() << "\n";
  std::cout << "Expected: offloading > gating > scaled > local in energy; "
               "scaled beats gating on\nstaleness (fresh low-fidelity "
               "outputs every frame); all methods equally safe.\n";
  return 0;
}
