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
#include <string>

#include "trace_stage.hpp"
#include "util/numeric.hpp"

namespace {

using namespace seo;

int usage(int code) {
  std::ostream& out = code == 0 ? std::cout : std::cerr;
  out << "usage: trace-energy-report [FILE|-] [options]\n"
      << seo::cli::kTraceStageUsage
      << "  --by-vehicle           aggregate per fleet vehicle instead of "
         "per episode\n";
  return code;
}

struct EnergyAccum {
  std::uint64_t episodes = 0;
  std::uint64_t offloads = 0;
  double bytes = 0.0;
  double airtime_s = 0.0;
  double actual_j = 0.0;
  double baseline_j = 0.0;
};

/// 1 - actual/baseline, the gain() convention of energy/report.hpp.
double gain(double actual_j, double baseline_j) {
  return baseline_j > 0.0 ? 1.0 - actual_j / baseline_j : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  seo::cli::TraceStage stage;
  bool by_vehicle = false;

  const auto next_arg = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      std::exit(usage(2));
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage(0);
    if (arg == "--by-vehicle") {
      by_vehicle = true;
    } else if (stage.parse_flag(arg, i, next_arg)) {
      // Shared stage flags (trace_stage.hpp).
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return usage(2);
    }
  }
  if (!stage.validate("trace-energy-report")) return usage(2);

  try {
    TraceStreamReader reader(stage.open_input("trace-energy-report"),
                             stage.tee());
    std::ostream& report = stage.open_report("trace-energy-report");
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
          accum.actual_j = record.summary.energy_actual_j;
          accum.baseline_j = record.summary.energy_baseline_j;
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
            v.actual_j += accum.actual_j;
            v.baseline_j += accum.baseline_j;
          } else {
            // episodes_read() already counts the episode this end record
            // closes, so the 0-based ordinal is one less.
            report << reader.episodes_read() - 1 << "," << episode.point_index
                   << "," << vehicle << "," << episode.seed << ","
                   << accum.offloads << "," << format_double(accum.bytes)
                   << "," << format_double(accum.airtime_s) << ","
                   << format_double(accum.actual_j) << ","
                   << format_double(accum.baseline_j) << ","
                   << format_double(gain(accum.actual_j, accum.baseline_j))
                   << "\n";
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
               << "," << format_double(v.actual_j) << ","
               << format_double(v.baseline_j) << ","
               << format_double(gain(v.actual_j, v.baseline_j)) << "\n";
      }
    }
    std::cerr << "trace-energy-report: " << reader.episodes_total()
              << " episodes\n";
  } catch (const TraceStreamError& e) {
    return seo::cli::report_stream_error("trace-energy-report", e);
  }
  return 0;
}
