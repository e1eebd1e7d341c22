// `trace-safety-audit` — per-episode safety-filter audit from a seo-trace
// stream.
//
//   sweep --smoke --trace-out - --output grid.csv |
//     trace-safety-audit --engaged-only
//
// For each episode: the outcome flags, the filter engagement picture
// (engaged-tick rate, distinct interventions = rising edges of
// filter_engaged), and the barrier low-water mark with the time it was
// hit — the per-tick evidence behind the sweep report's min_h column.
#include <cstdint>
#include <iostream>
#include <limits>

#include "trace_stage.hpp"
#include "util/numeric.hpp"

int main(int argc, char** argv) {
  using namespace seo;
  cli::TraceStage stage("trace-safety-audit",
                        "  --engaged-only         only report episodes where "
                        "the filter engaged\n");
  bool engaged_only = false;
  stage.flag("--engaged-only", engaged_only);
  stage.parse(argc, argv);

  return stage.run([&](TraceStreamReader& reader) {
    std::ostream& report = stage.report();
    report << "episode,point_index,vehicle,seed,completed,collided,off_road,"
              "timed_out,samples,engaged_ticks,engagement_rate,interventions,"
              "min_h,min_h_t\n";

    TraceEpisodeInfo episode;
    std::uint64_t samples = 0;
    std::uint64_t engaged_ticks = 0;
    std::uint64_t interventions = 0;  // rising edges of filter_engaged
    bool prev_engaged = false;
    double min_h = std::numeric_limits<double>::infinity();
    double min_h_t = 0.0;
    std::uint64_t reported = 0;
    TraceRecord record;
    while (reader.next(record)) {
      switch (record.type) {
        case TraceRecord::Type::kEpisodeBegin:
          episode = record.episode;
          samples = engaged_ticks = interventions = 0;
          prev_engaged = false;
          min_h = std::numeric_limits<double>::infinity();
          min_h_t = 0.0;
          break;
        case TraceRecord::Type::kSample:
          ++samples;
          if (record.sample.filter_engaged) {
            ++engaged_ticks;
            if (!prev_engaged) ++interventions;
          }
          prev_engaged = record.sample.filter_engaged;
          if (record.sample.barrier_h < min_h) {
            min_h = record.sample.barrier_h;
            min_h_t = record.sample.t;
          }
          break;
        case TraceRecord::Type::kEpisodeEnd: {
          if (engaged_only && record.summary.filter_engagements == 0) break;
          const long long vehicle =
              episode.vehicle == kTraceNoVehicle
                  ? -1
                  : static_cast<long long>(episode.vehicle);
          report << reader.episodes_read() - 1 << "," << episode.point_index
                 << "," << vehicle << "," << episode.seed << ","
                 << (record.summary.completed ? 1 : 0) << ","
                 << (record.summary.collided ? 1 : 0) << ","
                 << (record.summary.off_road ? 1 : 0) << ","
                 << (record.summary.timed_out ? 1 : 0) << "," << samples
                 << "," << engaged_ticks << ","
                 << format_double(samples > 0
                                      ? static_cast<double>(engaged_ticks) /
                                            static_cast<double>(samples)
                                      : 0.0)
                 << "," << interventions << ","
                 << format_double(samples > 0 ? min_h : 0.0) << ","
                 << format_double(min_h_t) << "\n";
          ++reported;
          break;
        }
        case TraceRecord::Type::kOffload:
          break;
      }
    }
    std::cerr << "trace-safety-audit: " << reported << "/"
              << reader.episodes_total() << " episodes reported\n";
  });
}
