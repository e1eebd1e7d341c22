// Ablation A3: base-period sweep (generalizes paper Table I).
//
// tau trades scheduling granularity against deadline resolution: eq. (5)
// floors Delta_max/tau, so a coarser tau discards more of each safety
// interval, shrinking optimization headroom — the paper demonstrates the
// single point tau=25 ms; this sweeps 10..50 ms.
#include "common.hpp"

int main() {
  using namespace seo;
  bench::print_banner("ablation_tau_sweep",
                      "generalizes paper Table I (tau=25 ms point)",
                      "filtered, 2 obstacles; sensor periods scale with tau "
                      "(p=tau, p=2tau); 17 ms model latency fixed");

  TextTable table("Energy gains vs. base period tau");
  table.set_header({"tau [ms]", "gating p=tau", "gating p=2tau",
                    "offload p=tau", "offload p=2tau", "avg delta_max"});

  // tau must fit the 17 ms ResNet-152 latency (schedulability).  Rows pair
  // up per table line: gating then offload.
  const std::vector<SweepRow> rows = run_sweep(bench::grid(
      {"paper_default"}, {{"filtered", "true"}, {"obstacles", "2"}},
      {{"tau_ms", {"20", "25", "30", "40", "50"}},
       {"mode", {"gating", "offload"}}}));
  for (std::size_t i = 0; i + 1 < rows.size(); i += 2) {
    const ScenarioConfig& gate_config = rows[i].scenario;
    const ScenarioConfig& off_config = rows[i + 1].scenario;
    const ExperimentResult& gate = rows[i].result;
    const ExperimentResult& off = rows[i + 1].result;
    table.add_row({fmt_double(gate_config.tau_s * 1e3, 0),
                   fmt_percent(bench::pipeline_gain(gate, 0,
                                                    gate_config.platform)),
                   fmt_percent(bench::pipeline_gain(gate, 1,
                                                    gate_config.platform)),
                   fmt_percent(bench::pipeline_gain(off, 0,
                                                    off_config.platform)),
                   fmt_percent(bench::pipeline_gain(off, 1,
                                                    off_config.platform)),
                   fmt_double(gate.mean_delta_max(), 2)});
  }
  std::cout << table.render() << "\n";
  std::cout << "Expected: gains shrink monotonically as tau coarsens "
               "(deadline floor discards\nmore headroom); the p=2tau "
               "pipeline collapses first.\n";
  return 0;
}
