// Ablation A8: edge-server capacity — queueing effects on offloading.
//
// With an explicit server model, burst arrivals (both detectors offloading
// in the same base period) serialize on the inference workers.  Scarce
// capacity inflates response times past delta-hat, triggering fallbacks
// and admission shedding; the guarantee is preserved, the energy gain is
// not.
#include "common.hpp"

int main() {
  using namespace seo;
  bench::print_banner(
      "ablation_edge_server", "extends paper V-A (server response times)",
      "offload mode, filtered, 2 obstacles; server service time and worker "
      "count swept");

  TextTable table("Offloading vs. edge-server capacity");
  table.set_header({"service [ms]", "workers", "combined gain", "applied",
                    "fallbacks", "collided"});

  for (const SweepRow& row : run_sweep(bench::grid(
           {"paper_default"},
           {{"mode", "offload"},
            {"filtered", "true"},
            {"obstacles", "2"},
            {"use_edge_server", "true"},
            {"server_queue", "8"}},
           {{"server_service_ms", {"3", "5", "5", "10", "10", "16"}},
            {"server_workers", {"4", "2", "1", "2", "1", "1"}}},
           GridMode::kPaired))) {
    const ScenarioConfig& config = row.scenario;
    const ExperimentResult& r = row.result;

    std::uint64_t applied = 0, fallbacks = 0;
    for (const auto& p : r.pipelines) {
      applied += p.offload_applied;
      fallbacks += p.offload_fallbacks;
    }
    table.add_row({
        fmt_double(config.edge_server.service_time_s * 1e3, 0),
        std::to_string(config.edge_server.parallelism),
        fmt_percent(bench::combined_gain(r, config.platform)),
        std::to_string(applied),
        std::to_string(fallbacks),
        std::to_string(r.collisions),
    });
  }
  std::cout << table.render() << "\n";
  std::cout << "Expected: gains degrade gracefully as the server gets "
               "slower/narrower; fallbacks\nabsorb the misses; zero "
               "collisions at every capacity.\n";
  return 0;
}
