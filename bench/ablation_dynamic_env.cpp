// Ablation A7: dynamic environments — obstacles pacing across the road.
//
// Obstacle motion enters the formal certificate as an additive worst-case
// environment speed (this repo's extension of the certificate), so the
// same physical clearance yields smaller safe intervals.  This sweep
// quantifies how much optimization headroom dynamic scenes cost, and
// verifies the guarantee survives them.
#include "common.hpp"

int main() {
  using namespace seo;
  bench::print_banner(
      "ablation_dynamic_env", "extends paper (static obstacles only)",
      "filtered gating, 3 obstacles, tau=20 ms; lateral pacing amplitude "
      "swept (period 4 s)");

  TextTable table("Obstacle motion vs. deadlines and gains");
  table.set_header({"pacing amplitude [m]", "env speed bound [m/s]",
                    "avg delta_max", "gating gain", "offload gain",
                    "engagements/run", "collided", "off road"});

  // Paired, because a zero amplitude means static obstacles; rows pair up
  // per table line: gating then offload.
  const std::vector<SweepRow> rows = run_sweep(bench::grid(
      {"paper_default"}, {{"filtered", "true"}, {"obstacles", "3"}},
      {{"obstacle_osc_amplitude",
        {"0", "0", "0.5", "0.5", "1", "1", "1.5", "1.5", "2", "2"}},
       {"moving_obstacles", {"false", "false", "true", "true", "true", "true",
                             "true", "true", "true", "true"}},
       {"mode", {"gating", "offload", "gating", "offload", "gating", "offload",
                 "gating", "offload", "gating", "offload"}}},
      GridMode::kPaired));
  for (std::size_t i = 0; i + 1 < rows.size(); i += 2) {
    const ScenarioConfig& gate = rows[i].scenario;
    const ScenarioConfig& off = rows[i + 1].scenario;
    const ExperimentResult& rg = rows[i].result;
    const ExperimentResult& ro = rows[i + 1].result;
    const double amplitude = gate.obstacle_osc_amplitude;
    const double omega = 6.28318530717958647692 / gate.obstacle_osc_period;

    table.add_row({
        fmt_double(amplitude, 1),
        fmt_double(gate.moving_obstacles ? amplitude * omega : 0.0, 2),
        fmt_double(rg.mean_delta_max(), 2),
        fmt_percent(bench::combined_gain(rg, gate.platform)),
        fmt_percent(bench::combined_gain(ro, off.platform)),
        fmt_double(static_cast<double>(rg.filter_engagements) /
                       std::max(rg.episodes_used, 1), 1),
        std::to_string(rg.collisions + ro.collisions),
        std::to_string(rg.off_roads + ro.off_roads),
    });
  }
  std::cout << table.render() << "\n";
  std::cout << "Expected: faster obstacle motion -> tighter certificate -> "
               "smaller delta_max and\nlower gains, with the filter working "
               "progressively harder (engagements rise).\nNo collisions at "
               "any amplitude: evasions that would leave the road are the "
               "only\nfailure mode (off-road exits), i.e. the barrier "
               "guarantee itself holds.\n";
  return 0;
}
