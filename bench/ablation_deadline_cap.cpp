// Ablation A4: deadline-cap sweep.
//
// SEO clamps delta_max to a cap (the paper's observed domain is 1..4).
// The cap bounds worst-case output staleness in unconstrained stretches;
// raising it buys more gating/offload headroom at the cost of staler
// detector outputs.  This quantifies that trade-off.
#include "common.hpp"

int main() {
  using namespace seo;
  bench::print_banner(
      "ablation_deadline_cap", "design choice: delta_max cap (paper Fig. 6 "
      "domain)",
      "filtered, 2 obstacles, tau=20 ms; cap swept 2..8");

  TextTable table("Energy gains vs. deadline cap");
  table.set_header({"cap", "gating combined", "offload combined",
                    "avg delta_max", "worst staleness [ms]", "collided"});

  // Rows pair up per table line: gating then offload.
  const std::vector<SweepRow> rows = run_sweep(bench::grid(
      {"paper_default"}, {{"filtered", "true"}, {"obstacles", "2"}},
      {{"deadline_cap", {"2", "3", "4", "6", "8"}},
       {"mode", {"gating", "offload"}}}));
  for (std::size_t i = 0; i + 1 < rows.size(); i += 2) {
    const ScenarioConfig& gate_config = rows[i].scenario;
    const ExperimentResult& gate = rows[i].result;
    const ExperimentResult& off = rows[i + 1].result;
    const int cap = gate_config.deadline_cap;
    table.add_row(
        {std::to_string(cap),
         fmt_percent(bench::combined_gain(gate, gate_config.platform)),
         fmt_percent(bench::combined_gain(off, rows[i + 1].scenario.platform)),
         fmt_double(gate.mean_delta_max(), 2),
         fmt_double(cap * gate_config.tau_s * 1e3, 0),
         std::to_string(gate.collisions + off.collisions)});
  }
  std::cout << table.render() << "\n";
  std::cout << "Expected: gains grow with the cap (more headroom in "
               "low-risk stretches) while\nworst-case staleness grows "
               "linearly; safety is preserved at every cap because\n"
               "constrained intervals are bounded by the formal deadline, "
               "not the cap.\n";
  return 0;
}
