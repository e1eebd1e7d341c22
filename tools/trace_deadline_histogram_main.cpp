// `trace-deadline-histogram` — interval deadline histogram from a
// seo-trace stream.
//
//   sweep --smoke --trace-out - --output grid.csv | trace-deadline-histogram
//
// Counts every optimization interval (samples flagged interval_started) by
// its effective deadline delta_max — the stream-side equivalent of the
// deadline_hist column family in the sweep report, but computable from a
// trace file long after the run.  Output: delta,count,share CSV.
#include <cstdint>
#include <iostream>
#include <map>

#include "trace_stage.hpp"
#include "util/numeric.hpp"

int main(int argc, char** argv) {
  using namespace seo;
  cli::TraceStage stage("trace-deadline-histogram",
                        "  --unconstrained        count unconstrained "
                        "intervals too (as delta -1)\n");
  bool include_unconstrained = false;
  stage.flag("--unconstrained", include_unconstrained);
  stage.parse(argc, argv);

  return stage.run([&](TraceStreamReader& reader) {
    // Keyed map, not a dense vector: delta_max is small but unbounded by
    // format, and -1 collects unconstrained intervals when requested.
    std::map<int, std::uint64_t> hist;
    std::uint64_t intervals = 0;
    TraceRecord record;
    while (reader.next(record)) {
      if (record.type != TraceRecord::Type::kSample) continue;
      if (!record.sample.interval_started) continue;
      if (record.sample.unconstrained && !include_unconstrained) continue;
      const int key = record.sample.unconstrained ? -1
                                                  : record.sample.delta_max;
      ++hist[key];
      ++intervals;
    }
    std::ostream& report = stage.report();
    report << "delta,count,share\n";
    for (const auto& [delta, count] : hist) {
      report << delta << "," << count << ","
             << format_double(intervals > 0
                                  ? static_cast<double>(count) /
                                        static_cast<double>(intervals)
                                  : 0.0)
             << "\n";
    }
    std::cerr << "trace-deadline-histogram: " << intervals
              << " intervals across " << reader.episodes_total()
              << " episodes\n";
  });
}
