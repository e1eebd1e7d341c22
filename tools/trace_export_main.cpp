// `trace-export` — decode a binary seo-trace stream to CSV or JSON.
//
//   sweep --smoke --trace-out - --output grid.csv | trace-export -o trace.csv
//   trace-export run.trace --format json
//
// CSV is the EpisodeTrace::to_csv shape — the same header and the same
// formatter (sim/trace.hpp's shared helpers), so the streamed export is
// byte-identical to the in-memory CSV path by construction; episodes are
// concatenated under one header in stream order.  JSON decodes the full
// structure (per-episode identity, summary, offloads, samples).
#include <cstdint>
#include <iostream>
#include <string>

#include "core/fingerprint.hpp"
#include "sim/sweep_report.hpp"
#include "trace_stage.hpp"
#include "util/numeric.hpp"

namespace {

using namespace seo;

void json_summary(std::ostream& out, const TraceEpisodeSummary& s) {
  out << "{\"completed\": " << (s.completed ? "true" : "false")
      << ", \"collided\": " << (s.collided ? "true" : "false")
      << ", \"off_road\": " << (s.off_road ? "true" : "false")
      << ", \"timed_out\": " << (s.timed_out ? "true" : "false")
      << ", \"duration_s\": " << format_double(s.duration_s)
      << ", \"avg_speed\": " << format_double(s.avg_speed)
      << ", \"min_h\": \"" << format_double(s.min_h) << "\""
      << ", \"filter_engagements\": " << s.filter_engagements
      << ", \"intervals\": " << s.intervals
      << ", \"energy_actual_j\": " << format_double(s.energy_actual_j)
      << ", \"energy_baseline_j\": " << format_double(s.energy_baseline_j)
      << "}";
}

}  // namespace

int main(int argc, char** argv) {
  cli::TraceStage stage("trace-export",
                        "  --format csv|json      export format (default "
                        "csv)\n");
  std::string format = "csv";
  stage.option("--format", format);
  stage.parse(argc, argv);
  if (format != "csv" && format != "json")
    stage.misuse("trace-export: unknown format '" + format + "' (csv|json)");

  return stage.run([&](TraceStreamReader& reader) {
    std::ostream& report = stage.report();
    TraceRecord record;
    if (format == "csv") {
      // One header, then every episode's sample lines in stream order,
      // rendered by the exact helpers to_csv uses.
      report << trace_csv_header();
      std::string line;
      while (reader.next(record)) {
        if (record.type != TraceRecord::Type::kSample) continue;
        line.clear();
        append_trace_sample_csv(line, record.sample);
        report << line;
      }
    } else {
      report << "{\n  \"version\": " << reader.version()
             << ",\n  \"run_digest\": \""
             << fingerprint_hex(reader.run_digest())
             << "\",\n  \"episodes\": [";
      bool first_episode = true;
      bool any_sample = false;
      bool any_offload = false;
      while (reader.next(record)) {
        switch (record.type) {
          case TraceRecord::Type::kEpisodeBegin: {
            const TraceEpisodeInfo& e = record.episode;
            report << (first_episode ? "\n" : ",\n");
            first_episode = false;
            report << "    {\n      \"seed\": " << e.seed
                   << ",\n      \"scenario_digest\": \""
                   << fingerprint_hex(e.scenario_digest)
                   << "\",\n      \"point_index\": " << e.point_index
                   << ",\n      \"vehicle\": ";
            if (e.vehicle == kTraceNoVehicle)
              report << "null";
            else
              report << e.vehicle;
            report << ",\n      \"label\": \"" << report_json_escape(e.label)
                   << "\",\n      \"sample_columns\": [\"t\", \"x\", \"y\", "
                      "\"heading\", \"speed\", \"h\", \"delta_max\", "
                      "\"unconstrained\", \"interval_started\", "
                      "\"engaged\", \"steering\", \"throttle\", "
                      "\"detection_age\"],\n      \"samples\": [";
            any_sample = any_offload = false;
            break;
          }
          case TraceRecord::Type::kSample: {
            const TraceSample& s = record.sample;
            report << (any_sample ? ",\n" : "\n");
            any_sample = true;
            report << "        [" << format_double(s.t) << ", "
                   << format_double(s.position.x) << ", "
                   << format_double(s.position.y) << ", "
                   << format_double(s.heading) << ", "
                   << format_double(s.speed) << ", "
                   << format_double(s.barrier_h) << ", " << s.delta_max
                   << ", " << (s.unconstrained ? 1 : 0) << ", "
                   << (s.interval_started ? 1 : 0) << ", "
                   << (s.filter_engaged ? 1 : 0) << ", "
                   << format_double(s.steering) << ", "
                   << format_double(s.throttle) << ", "
                   << format_double(s.detection_age_s) << "]";
            break;
          }
          case TraceRecord::Type::kOffload: {
            // Within an episode the writer emits every sample before any
            // offload, so the first offload closes the samples array.
            const OffloadEvent& o = record.offload;
            if (!any_offload)
              report << (any_sample ? "\n      " : "") << "],\n"
                     << "      \"offloads\": [";
            report << (any_offload ? ",\n" : "\n");
            any_offload = true;
            report << "        {\"pipeline\": " << o.pipeline
                   << ", \"submit_s\": " << format_double(o.submit_s)
                   << ", \"bytes\": " << format_double(o.bytes)
                   << ", \"tx_time_s\": " << format_double(o.tx_time_s)
                   << ", \"deadline_s\": " << format_double(o.deadline_s)
                   << ", \"probe\": " << (o.probe ? "true" : "false") << "}";
            break;
          }
          case TraceRecord::Type::kEpisodeEnd: {
            if (!any_offload)
              // No offloads: the samples array is still open; close it and
              // emit an empty offloads array to keep the shape uniform.
              report << (any_sample ? "\n      " : "") << "],\n"
                     << "      \"offloads\": [";
            report << (any_offload ? "\n      " : "") << "],\n"
                   << "      \"summary\": ";
            json_summary(report, record.summary);
            report << "\n    }";
            break;
          }
        }
      }
      report << (first_episode ? "]" : "\n  ]") << "\n}\n";
    }
    std::cerr << "trace-export: " << reader.episodes_total()
              << " episodes\n";
  });
}
