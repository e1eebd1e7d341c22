// Ablation A8: the scenario library end to end.
//
// The paper evaluates a handful of fixed rigs; the library spans the wider
// workload space the framework claims to cover.  This ablation runs every
// library scenario at full episode count and reports the safety and energy
// envelope per rig — the expectation is that the formal deadline mechanism
// holds (zero collisions with the filter on) across ALL of them, while the
// achievable energy gain varies widely with workload.
#include "common.hpp"

#include "sim/scenario_library.hpp"

int main() {
  using namespace seo;
  bench::print_banner(
      "ablation_scenario_library", "scope: paper VI-A generalized",
      "every library rig, " + std::to_string(bench::kEpisodes) +
          " episodes each, aggregated failures included");

  TextTable table("Scenario library envelope");
  table.set_header({"scenario", "mode", "combined gain", "avg delta_max",
                    "avg speed", "min h [m]", "engages", "collided",
                    "off-road", "timeout"});

  std::vector<std::string> names;
  for (const auto& entry : scenario_library()) names.push_back(entry.name);
  SweepConfig config = bench::grid(names, {}, {});
  config.max_attempts = bench::kEpisodes * 4;
  config.require_success = false;

  for (const SweepRow& row : run_sweep(config)) {
    const ExperimentResult& r = row.result;
    table.add_row({
        row.point.scenario,
        to_string(row.scenario.mode),
        fmt_percent(bench::combined_gain(r, row.scenario.platform)),
        fmt_double(r.mean_delta_max(), 2),
        fmt_double(r.avg_speed.mean(), 2),
        fmt_double(r.min_h.empty() ? 0.0 : r.min_h.mean(), 2),
        std::to_string(r.filter_engagements),
        std::to_string(r.collisions),
        std::to_string(r.off_roads),
        std::to_string(r.timeouts),
    });
  }
  std::cout << table.render() << "\n";
  std::cout << "Expected: zero collisions on every filtered rig "
               "(unfiltered_baseline is the\nexception that motivates the "
               "filter); gains track how often each workload's\ndeadline "
               "admits optimization.\n";
  return 0;
}
