// Table I: offloading and gating energy gains over local execution at
// tau = 25 ms (the paper's "more limited hardware settings" case).
#include "common.hpp"

int main() {
  using namespace seo;
  bench::print_banner(
      "table1_tau25", "paper Table I",
      "same rig as Fig. 5 but tau=25 ms; sensors at p=tau and p=2tau");

  TextTable table(
      "Offloading and gating energy gains over local at tau = 25 ms");
  table.set_header({"mode", "control", "(p=tau) gains", "(p=2tau) gains",
                    "average gains"});

  for (const SweepRow& row : run_sweep(bench::grid(
           {"paper_tau25"}, {{"obstacles", "2"}},
           {{"mode", {"offload", "gating"}},
            {"filtered", {"false", "true"}}}))) {
    const auto& pm = row.scenario.platform;
    const double g0 = bench::pipeline_gain(row.result, 0, pm);
    const double g1 = bench::pipeline_gain(row.result, 1, pm);
    table.add_row({to_string(row.scenario.mode),
                   row.scenario.filtered ? "filtered" : "unfiltered",
                   fmt_percent(g0), fmt_percent(g1),
                   fmt_percent(0.5 * (g0 + g1))});
  }

  std::cout << table.render() << "\n";
  std::cout << "Paper reference (Table I): offload unfiltered 15.3/7.5/11.8%, "
               "filtered 27.1/14.1/21.1%;\ngating unfiltered 13.4/0/6.6%, "
               "filtered 23.8/4.3/14.5%.\nExpected shape: gains shrink vs. "
               "tau=20 ms; gating p=2tau collapses toward 0.\n";
  return 0;
}
