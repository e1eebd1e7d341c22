// Ablation A2: wireless channel quality sweep.
//
// The paper fixes the Rayleigh scale at 20 Mbps.  This ablation sweeps the
// scale to show how offloading gains, feasibility and the safety fallback
// rate respond to channel quality — and that the safety guarantee holds
// even on a bad channel (fallbacks absorb late responses; deadlines are
// never missed, only energy is lost).
#include "common.hpp"

int main() {
  using namespace seo;
  bench::print_banner(
      "ablation_channel", "design choice: Rayleigh channel (paper VI-A)",
      "offload mode, filtered, 2 obstacles, tau=20 ms; Rayleigh scale swept "
      "5..80 Mbps");

  TextTable table("Offloading vs. channel quality");
  table.set_header({"scale [Mbps]", "combined gain", "p=tau gain",
                    "offloads", "applied", "fallbacks", "fallback rate",
                    "collided"});

  for (const SweepRow& row : run_sweep(bench::grid(
           {"paper_default"},
           {{"mode", "offload"}, {"filtered", "true"}, {"obstacles", "2"}},
           {{"channel_mbps", {"5", "10", "15", "20", "30", "50", "80"}}}))) {
    const ExperimentResult& r = row.result;
    const ScenarioConfig& config = row.scenario;
    std::uint64_t submitted = 0, applied = 0, fallbacks = 0;
    for (const auto& p : r.pipelines) {
      submitted += p.offload_submitted;
      applied += p.offload_applied;
      fallbacks += p.offload_fallbacks;
    }
    const double fb_rate =
        applied + fallbacks > 0
            ? static_cast<double>(fallbacks) /
                  static_cast<double>(applied + fallbacks)
            : 0.0;
    table.add_row({fmt_double(config.channel_scale_mbps, 0),
                   fmt_percent(bench::combined_gain(r, config.platform)),
                   fmt_percent(bench::pipeline_gain(r, 0, config.platform)),
                   std::to_string(submitted), std::to_string(applied),
                   std::to_string(fallbacks), fmt_percent(fb_rate),
                   std::to_string(r.collisions)});
  }
  std::cout << table.render() << "\n";
  std::cout << "Expected: gains grow and saturate with channel quality; "
               "fallback rate decays;\nzero collisions at every scale — the "
               "deadline guarantee is channel-independent.\n";
  return 0;
}
