// `trace-energy-report` — per-episode (or per-vehicle) energy accounting
// from a seo-trace stream.
//
//   sweep --smoke --rounds 1 --trace-out - --output grid.csv |
//     trace-energy-report --by-vehicle
//
// Episode energy comes from the episode-end summary (combined Lambda'
// model energy vs the always-offload baseline); uplink load (offload
// count, bytes, airtime) is accumulated from the offload records, probes
// excluded.  --by-vehicle folds episodes onto their fleet vehicle — rows
// for plain sweep streams (no vehicle identity) fold onto vehicle -1.
#include <cstdint>
#include <iostream>
#include <map>

#include "energy/report.hpp"
#include "trace_stage.hpp"
#include "util/numeric.hpp"

namespace {

/// Uplink load and energy of one episode, or of one vehicle's episodes.
struct EnergyAccum {
  std::uint64_t episodes = 0;
  std::uint64_t offloads = 0;
  double bytes = 0.0;
  double airtime_s = 0.0;
  seo::EnergyComparison energy;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace seo;
  cli::TraceStage stage("trace-energy-report",
                        "  --by-vehicle           aggregate per fleet vehicle "
                        "instead of per episode\n");
  bool by_vehicle = false;
  stage.flag("--by-vehicle", by_vehicle);
  stage.parse(argc, argv);

  return stage.run([&](TraceStreamReader& reader) {
    std::ostream& report = stage.report();
    if (!by_vehicle)
      report << "episode,point_index,vehicle,seed,offloads,offload_bytes,"
                "offload_airtime_s,energy_actual_j,energy_baseline_j,"
                "energy_gain\n";

    // keyed by vehicle (kTraceNoVehicle folds to -1); std::map iterates in
    // vehicle order for the aggregate report.
    std::map<long long, EnergyAccum> per_vehicle;
    TraceEpisodeInfo episode;   // identity of the open episode
    EnergyAccum accum;          // uplink totals of the open episode
    TraceRecord record;
    while (reader.next(record)) {
      switch (record.type) {
        case TraceRecord::Type::kEpisodeBegin:
          episode = record.episode;
          accum = EnergyAccum{};
          break;
        case TraceRecord::Type::kOffload:
          if (record.offload.probe) break;  // load, not a frame
          ++accum.offloads;
          accum.bytes += record.offload.bytes;
          accum.airtime_s += record.offload.tx_time_s;
          break;
        case TraceRecord::Type::kEpisodeEnd: {
          accum.episodes = 1;
          accum.energy = {record.summary.energy_actual_j,
                          record.summary.energy_baseline_j};
          const long long vehicle =
              episode.vehicle == kTraceNoVehicle
                  ? -1
                  : static_cast<long long>(episode.vehicle);
          if (by_vehicle) {
            EnergyAccum& v = per_vehicle[vehicle];
            ++v.episodes;
            v.offloads += accum.offloads;
            v.bytes += accum.bytes;
            v.airtime_s += accum.airtime_s;
            v.energy += accum.energy;
          } else {
            // episodes_read() already counts the episode this end record
            // closes, so the 0-based ordinal is one less.
            report << reader.episodes_read() - 1 << "," << episode.point_index
                   << "," << vehicle << "," << episode.seed << ","
                   << accum.offloads << "," << format_double(accum.bytes)
                   << "," << format_double(accum.airtime_s) << ","
                   << format_double(accum.energy.actual_j) << ","
                   << format_double(accum.energy.baseline_j) << ","
                   << format_double(accum.energy.gain()) << "\n";
          }
          break;
        }
        case TraceRecord::Type::kSample:
          break;
      }
    }
    if (by_vehicle) {
      report << "vehicle,episodes,offloads,offload_bytes,offload_airtime_s,"
                "energy_actual_j,energy_baseline_j,energy_gain\n";
      for (const auto& [vehicle, v] : per_vehicle) {
        report << vehicle << "," << v.episodes << "," << v.offloads << ","
               << format_double(v.bytes) << "," << format_double(v.airtime_s)
               << "," << format_double(v.energy.actual_j) << ","
               << format_double(v.energy.baseline_j) << ","
               << format_double(v.energy.gain()) << "\n";
      }
    }
    std::cerr << "trace-energy-report: " << reader.episodes_total()
              << " episodes\n";
  });
}
