// `fleet` — the edge-cluster fleet-experiment grid runner.
//
//   fleet --list
//   fleet --scenario fleet_cluster --rounds 3 \
//         --axis cluster.servers=2,4 \
//         --axis cluster.dispatch=round_robin,least_loaded,earliest_slack \
//         --axis cluster.batch_window_ms=0,4 \
//         --threads 0 --format csv --output fleet.csv
//
// Every grid point = library scenario + axis overrides (the same
// scenario_io keys the sweep tool uses, including the fleet.* / cluster.*
// family), run through run_fleet_experiment.  Episode fan-out inside each
// point uses the thread pool; grid points themselves run serially, so the
// report is byte-identical for every --threads value (locked by
// tests/test_fleet.cpp and the CI smoke step).
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "safety/table_cache.hpp"
#include "core/fingerprint.hpp"
#include "sim/fleet_experiment.hpp"
#include "sim/scenario_io.hpp"
#include "sim/simulation.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_report.hpp"
#include "sim/trace.hpp"
#include "util/expect.hpp"

namespace {

using namespace seo;
using seo::cli::split;

int usage(int code) {
  std::ostream& out = code == 0 ? std::cout : std::cerr;
  out << "usage: fleet [options]\n"
         "  --list                 print the scenario library and exit\n"
         "  --scenario NAME        library base (default: fleet_cluster)\n"
         "  --axis key=v1,v2,...   add a grid axis over a scenario_io key\n"
         "                         (repeatable; cartesian by default)\n"
         "  --paired               zip the axes instead of crossing them\n"
         "  --set key=value        base override applied to every point "
         "(repeatable)\n"
         "  --rounds N             fleet rounds per point (default 1)\n"
         "  --seed N               base seed (default 1000)\n"
         "  --threads N            episode parallelism inside each point\n"
         "                         (1 serial, 0 all cores; default 0)\n"
         "  --stats                print a thread-pool utilization line to "
         "stderr\n"
      << seo::cli::kCacheUsage
      << "  --format csv|json      grid report format (default csv)\n"
         "  --output PATH          write the grid report to PATH "
         "(default stdout)\n"
         "  --trace-out FILE|-     stream every fan-out episode as a binary\n"
         "                         seo-trace ('-' = stdout and then requires\n"
         "                         --output so the report never interleaves)\n"
         "  --vehicles-output PATH also write per-vehicle summaries (one\n"
         "                         '# label' section per grid point)\n"
         "  --smoke                CI preset: fleet_cluster x servers{1,2} x\n"
         "                         dispatch{rr,ls} x window{0,4} on a short "
         "route\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  // Reuse the sweep engine's grid machinery: scenarios + axes +
  // base_overrides expand and resolve identically; the per-point experiment
  // is the fleet driver instead of run_experiment.
  SweepConfig grid;
  grid.scenarios = {"fleet_cluster"};
  int rounds = 1;
  std::uint64_t base_seed = 1000;
  int threads = 0;
  std::string format = "csv";
  std::string output;
  std::string vehicles_output;
  std::string trace_out;
  seo::cli::CacheCliOptions cache;

  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--smoke") smoke = true;
  // The smoke preset (fleet_experiment.hpp) is the same short-horizon
  // workload the test suite's golden fingerprints pin.
  if (smoke) grid = fleet_smoke_sweep();
  bool user_axes = false;  // the first user --axis replaces preset axes
  bool show_pool_stats = false;

  const auto next_arg = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      std::exit(usage(2));
    }
    return argv[++i];
  };
  const auto next_int = [&](int& i) -> long long {
    const std::string flag = argv[i];
    const std::string text = next_arg(i);
    try {
      std::size_t consumed = 0;
      const long long v = std::stoll(text, &consumed);
      if (consumed == text.size()) return v;
    } catch (const std::exception&) {
    }
    std::cerr << flag << " expects an integer, got '" << text << "'\n";
    std::exit(usage(2));
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage(0);
    if (arg == "--list") {
      for (const auto& entry : scenario_library())
        std::cout << entry.name << "\n    " << entry.summary << "\n";
      return 0;
    }
    if (arg == "--scenario") {
      grid.scenarios = {next_arg(i)};
    } else if (arg == "--axis") {
      const std::string spec = next_arg(i);
      const auto eq = spec.find('=');
      if (eq == std::string::npos) {
        std::cerr << "--axis expects key=v1,v2,...\n";
        return usage(2);
      }
      SweepAxis axis;
      axis.key = spec.substr(0, eq);
      axis.values = split(spec.substr(eq + 1), ',');
      if (smoke && !user_axes) grid.axes.clear();  // user grid wins
      user_axes = true;
      grid.axes.push_back(std::move(axis));
    } else if (arg == "--paired") {
      grid.grid = GridMode::kPaired;
    } else if (arg == "--set") {
      const std::string spec = next_arg(i);
      const auto eq = spec.find('=');
      if (eq == std::string::npos) {
        std::cerr << "--set expects key=value\n";
        return usage(2);
      }
      grid.base_overrides.emplace_back(spec.substr(0, eq),
                                       spec.substr(eq + 1));
    } else if (arg == "--rounds") {
      rounds = static_cast<int>(next_int(i));
    } else if (arg == "--seed") {
      const long long seed = next_int(i);
      if (seed < 0) {
        std::cerr << "--seed must be non-negative\n";
        return usage(2);
      }
      base_seed = static_cast<std::uint64_t>(seed);
    } else if (arg == "--threads") {
      threads = static_cast<int>(next_int(i));
    } else if (arg == "--stats") {
      show_pool_stats = true;
    } else if (seo::cli::parse_cache_flag(argc, argv, i, grid.base_overrides,
                                          cache)) {
      // --cache SPEC (cli_common.hpp).
    } else if (arg == "--format") {
      format = next_arg(i);
    } else if (arg == "--output") {
      output = next_arg(i);
    } else if (arg == "--vehicles-output") {
      vehicles_output = next_arg(i);
    } else if (arg == "--trace-out") {
      trace_out = next_arg(i);
    } else if (arg == "--smoke") {
      // Handled by the pre-scan above.
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return usage(2);
    }
  }

  // See sweep_main: '-' sends the binary stream to stdout, so the report
  // must be routed to a file.
  if (trace_out == "-" && output.empty()) {
    std::cerr << "--trace-out - writes the binary stream to stdout; route "
                 "the report elsewhere with --output PATH\n";
    return usage(2);
  }
  std::ofstream trace_file;
  std::optional<OrderedTraceSink> trace_sink;
  if (!trace_out.empty()) {
    std::ostream* stream = &std::cout;
    if (trace_out != "-") {
      trace_file.open(trace_out, std::ios::binary | std::ios::trunc);
      if (!trace_file) {
        std::cerr << "cannot open " << trace_out << " for writing\n";
        return 1;
      }
      stream = &trace_file;
    }
    trace_sink.emplace(*stream);
  }

  try {
    if (format != "csv" && format != "json")
      throw ContractViolation("unknown fleet report format: " + format +
                              " (csv|json)");
    seo::cli::run_requested_gc(cache);
    seo::cli::configure_artifact_stores(cache);
    const std::vector<SweepPoint> points = expand_grid(grid);
    if (trace_sink) {
      // Header prepass: mix every point's table digest in grid order —
      // the same run identity a traced sweep stamps.
      FingerprintHasher hasher;
      for (const SweepPoint& point : points)
        hasher.mix(scenario_table_digest(resolve_point(grid, point)));
      trace_sink->set_run_digest(hasher.digest());
    }
    const auto run_start = std::chrono::steady_clock::now();

    std::ostringstream report;
    std::ostringstream vehicles_report;
    const auto metric_names = fleet_metric_names();
    if (format == "csv") {
      report << "scenario";
      for (const auto& axis : grid.axes) report << "," << axis.key;
      for (const auto& name : metric_names) report << "," << name;
      report << "\n";
    } else {
      report << "{\n  \"fleet\": {\n    \"rounds\": " << rounds
             << ",\n    \"base_seed\": " << base_seed
             << ",\n    \"points\": " << points.size() << "\n  },\n"
             << "  \"rows\": {";
    }

    std::uint64_t trace_block_base = 0;
    for (const SweepPoint& point : points) {
      FleetExperimentConfig config;
      config.scenario = resolve_point(grid, point);
      config.rounds = rounds;
      config.base_seed = base_seed;
      config.threads = threads;
      if (trace_sink) {
        config.trace_sink = &*trace_sink;
        config.trace_block_base = trace_block_base;
        config.trace_point_index = static_cast<std::uint32_t>(point.index);
        config.trace_label = point.label();
        // One block per episode slot, so the next point's base skips this
        // point's rounds x vehicles slots.
        trace_block_base += static_cast<std::uint64_t>(rounds) *
                            static_cast<std::uint64_t>(
                                config.scenario.fleet.vehicles);
      }
      const FleetResult result = run_fleet_experiment(config);
      const std::vector<double> values = fleet_metrics(result);

      if (format == "csv") {
        report << point.scenario;
        for (const auto& [key, value] : point.assignment) {
          (void)key;
          report << "," << value;
        }
        for (const double v : values) report << "," << report_fmt(v);
        report << "\n";
      } else {
        report << (point.index == 0 ? "\n" : ",\n");
        report << "    \"" << report_json_escape(point.label()) << "\": {\n";
        for (std::size_t m = 0; m < metric_names.size(); ++m) {
          report << "      \"" << metric_names[m]
                 << "\": " << report_fmt(values[m])
                 << (m + 1 < metric_names.size() ? "," : "") << "\n";
        }
        report << "    }";
      }
      if (!vehicles_output.empty()) {
        vehicles_report << "# " << point.label() << "\n"
                        << fleet_vehicle_csv(result);
      }
    }
    if (format == "json") report << "\n  }\n}\n";
    if (trace_sink) {
      trace_sink->finish();
      std::cerr << "streamed " << trace_sink->episodes_written()
                << " episode traces to "
                << (trace_out == "-" ? "stdout" : trace_out) << "\n";
    }

    seo::cli::print_artifact_store_stats(std::cerr);
    if (show_pool_stats) {
      const double run_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        run_start)
              .count();
      seo::cli::print_thread_pool_stats(std::cerr, run_s);
    }

    if (output.empty()) {
      std::cout << report.str();
    } else {
      std::ofstream out(output);
      if (!out) {
        std::cerr << "cannot open " << output << " for writing\n";
        return 1;
      }
      out << report.str();
      std::cerr << "wrote " << points.size() << " grid points to " << output
                << "\n";
    }
    if (!vehicles_output.empty()) {
      std::ofstream out(vehicles_output);
      if (!out) {
        std::cerr << "cannot open " << vehicles_output << " for writing\n";
        return 1;
      }
      out << vehicles_report.str();
      std::cerr << "wrote per-vehicle summaries to " << vehicles_output
                << "\n";
    }
  } catch (const seo::ContractViolation& e) {
    std::cerr << "fleet configuration error: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
