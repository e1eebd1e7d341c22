// Figure 5: energy gains relative to local execution for the two
// ResNet-152 detectors (p = tau, p = 2*tau) when offloading (left) and
// model gating (right), in the unfiltered and filtered control cases, at
// tau = 20 ms.  Scenario: the paper's obstacle course "similar to the one
// proposed in [19]" — obstacles in the final third of a 100 m road.
#include "common.hpp"

int main() {
  using namespace seo;
  bench::print_banner(
      "fig5_energy_gains", "paper Fig. 5",
      "two ResNet-152 detectors (p=tau, p=2tau); tau=20 ms; 2 obstacles in "
      "final third; 25 successful runs per case");

  TextTable table("Energy gains relative to local execution (tau = 20 ms)");
  table.set_header({"method", "control", "p=tau gain", "p=2tau gain",
                    "avg delta_max"});

  for (const SweepRow& row : run_sweep(bench::grid(
           {"paper_default"}, {{"obstacles", "2"}},
           {{"mode", {"offload", "gating"}},
            {"filtered", {"false", "true"}}}))) {
    const ExperimentResult& r = row.result;
    const auto& pm = row.scenario.platform;
    table.add_row({to_string(row.scenario.mode),
                   row.scenario.filtered ? "filtered" : "unfiltered",
                   fmt_percent(bench::pipeline_gain(r, 0, pm)),
                   fmt_percent(bench::pipeline_gain(r, 1, pm)),
                   fmt_double(r.mean_delta_max(), 2)});
  }

  std::cout << table.render() << "\n";
  std::cout
      << "Paper reference points (Fig. 5): offloading filtered 65.9% (p=tau) "
         "/ 20.3% (p=2tau),\nunfiltered 24.1%; gating filtered 37.2% (p=tau) "
         "/ 8% (p=2tau).\nExpected shape: offloading > gating, p=tau > "
         "p=2tau, filtered >= unfiltered.\n";
  return 0;
}
