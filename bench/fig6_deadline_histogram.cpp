// Figure 6: histogram of the sampled discretized deadlines delta_max in the
// unfiltered control case when varying the number of obstacles, for
// offloading (left) and model gating (right), with the average energy
// efficiency over the two detectors annotated per risk level.
#include "common.hpp"

int main() {
  using namespace seo;
  bench::print_banner(
      "fig6_deadline_histogram", "paper Fig. 6",
      "unfiltered control; tau=20 ms; obstacles in {0, 2, 4}; histogram of "
      "sampled delta_max per interval");

  const std::vector<SweepRow> rows = run_sweep(bench::grid(
      {"paper_default"}, {{"filtered", "false"}},
      {{"mode", {"offload", "gating"}}, {"obstacles", {"0", "2", "4"}}}));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScenarioConfig& config = rows[i].scenario;
    const ExperimentResult& r = rows[i].result;
    if (i == 0 || config.mode != rows[i - 1].scenario.mode)
      std::cout << "--- " << to_string(config.mode) << " ---\n";

    std::vector<std::pair<std::string, double>> freq;
    for (int d = 1; d <= config.deadline_cap; ++d)
      freq.emplace_back("delta_max=" + std::to_string(d),
                        r.deadline_hist.frequency(d));
    std::cout << "#obstacles=" << config.obstacle_count << "  avg efficiency="
              << fmt_percent(bench::combined_gain(r, config.platform))
              << "  avg delta_max=" << fmt_double(r.mean_delta_max(), 2)
              << "\n"
              << render_bar_chart(freq) << "\n";
  }
  std::cout
      << "Paper reference (Fig. 6): delta_max=4 frequency falls as obstacles "
         "increase\n(33.3% -> 6.48% -> 2.3% for gating); avg efficiency "
         "88.6/24.6/16.8% (offload),\n42.9/17.5/11.9% (gating).  Expected "
         "shape: histogram mass shifts to lower\ndelta_max with more "
         "obstacles; efficiency drops accordingly.\n";
  return 0;
}
