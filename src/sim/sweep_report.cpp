#include "sim/sweep_report.hpp"

#include <ostream>
#include <sstream>

#include "util/expect.hpp"
#include "util/numeric.hpp"

namespace seo {

std::string report_fmt(double v) {
  // Locale-independent shortest round-trip (util/numeric): reports must be
  // byte-stable across hosts whatever LC_NUMERIC is set to.
  return format_double(v);
}

std::string report_json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::vector<std::string> sweep_metric_names(const SweepConfig& config) {
  if (config.rounds >= 1) return fleet_metric_names();
  return {
      "episodes_used",   "attempts",        "failures",
      "collisions",      "off_roads",       "timeouts",
      "intervals",       "mean_delta_max",  "avg_speed",
      "duration_s",      "min_h",           "filter_engagements",
      "offload_submitted", "offload_applied", "offload_fallbacks",
      "energy_actual_j", "energy_baseline_j", "energy_gain",
  };
}

std::vector<double> sweep_metrics(const SweepConfig& config,
                                  const SweepRow& row) {
  if (config.rounds >= 1) return fleet_metrics(row.fleet);
  const ExperimentResult& r = row.result;
  std::uint64_t submitted = 0, applied = 0, fallbacks = 0;
  for (const auto& p : r.pipelines) {
    const BucketCounts counts = p.tally.total();
    submitted += p.offload_submitted;
    applied += counts.remote_applied;
    fallbacks += counts.local_fallback;
  }
  const EnergyComparison energy =
      r.combined_model_energy(row.scenario.platform);
  return {
      static_cast<double>(r.episodes_used),
      static_cast<double>(r.attempts),
      static_cast<double>(r.failures),
      static_cast<double>(r.collisions),
      static_cast<double>(r.off_roads),
      static_cast<double>(r.timeouts),
      static_cast<double>(r.intervals),
      r.mean_delta_max(),
      r.avg_speed.mean(),
      r.duration_s.mean(),
      r.min_h.empty() ? 0.0 : r.min_h.mean(),
      static_cast<double>(r.filter_engagements),
      static_cast<double>(submitted),
      static_cast<double>(applied),
      static_cast<double>(fallbacks),
      energy.actual_j,
      energy.baseline_j,
      energy.gain(),
  };
}

namespace {

std::vector<std::vector<double>> sweep_metric_rows(
    const SweepConfig& config, const std::vector<SweepRow>& rows) {
  std::vector<std::vector<double>> metrics;
  metrics.reserve(rows.size());
  for (const auto& row : rows) metrics.push_back(sweep_metrics(config, row));
  return metrics;
}

std::vector<SweepPoint> report_points(const std::vector<SweepRow>& rows) {
  std::vector<SweepPoint> points;
  points.reserve(rows.size());
  for (const auto& row : rows) points.push_back(row.point);
  return points;
}

std::string sweep_csv(const SweepConfig& config,
                      const std::vector<SweepPoint>& points,
                      const std::vector<std::vector<double>>& metrics) {
  SEO_ASSERT(points.size() == metrics.size());
  std::string out = "scenario";
  // Appends, not "," + std::string&&: GCC 12 flags that operator+ with a
  // false-positive -Wrestrict.
  const auto field = [&out](const std::string& value) {
    out += ',';
    out += value;
  };
  for (const auto& axis : config.axes) field(axis.key);
  for (const auto& name : sweep_metric_names(config)) field(name);
  out += "\n";

  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& point = points[i];
    out += point.scenario;
    // Axis values in config.axes order — assignment order matches for both
    // cartesian and paired expansion.
    SEO_ASSERT(point.assignment.size() == config.axes.size());
    for (std::size_t a = 0; a < config.axes.size(); ++a) {
      SEO_ASSERT(point.assignment[a].first == config.axes[a].key);
      field(point.assignment[a].second);
    }
    for (const double v : metrics[i]) field(report_fmt(v));
    out += "\n";
  }
  return out;
}

std::string sweep_json(const SweepConfig& config,
                       const std::vector<SweepPoint>& points,
                       const std::vector<std::vector<double>>& metrics) {
  SEO_ASSERT(points.size() == metrics.size());
  std::ostringstream out;
  if (config.rounds >= 1) {
    out << "{\n  \"fleet\": {\n"
        << "    \"rounds\": " << config.rounds << ",\n"
        << "    \"base_seed\": " << config.base_seed << ",\n";
  } else {
    out << "{\n  \"sweep\": {\n"
        << "    \"episodes\": " << config.episodes << ",\n"
        << "    \"base_seed\": " << config.base_seed << ",\n"
        << "    \"grid\": \""
        << (config.grid == GridMode::kCartesian ? "cartesian" : "paired")
        << "\",\n";
  }
  out << "    \"points\": " << points.size() << "\n  },\n"
      << "  \"rows\": {";
  const auto names = sweep_metric_names(config);
  for (std::size_t i = 0; i < points.size(); ++i) {
    SEO_ASSERT(metrics[i].size() == names.size());
    out << (i == 0 ? "\n" : ",\n");
    out << "    \"" << report_json_escape(points[i].label()) << "\": {\n";
    for (std::size_t m = 0; m < names.size(); ++m) {
      out << "      \"" << names[m] << "\": " << report_fmt(metrics[i][m])
          << (m + 1 < names.size() ? "," : "") << "\n";
    }
    out << "    }";
  }
  out << "\n  }\n}\n";
  return out.str();
}

}  // namespace

void write_sweep_report(std::ostream& out, const std::string& format,
                        const SweepConfig& config,
                        const std::vector<SweepPoint>& points,
                        const std::vector<std::vector<double>>& metrics) {
  if (format == "csv") {
    out << sweep_csv(config, points, metrics);
  } else if (format == "json") {
    out << sweep_json(config, points, metrics);
  } else {
    throw ContractViolation("unknown sweep report format: " + format +
                            " (csv|json)");
  }
}

void write_sweep_report(std::ostream& out, const std::string& format,
                        const SweepConfig& config,
                        const std::vector<SweepRow>& rows) {
  write_sweep_report(out, format, config, report_points(rows),
                     sweep_metric_rows(config, rows));
}

std::string sweep_vehicle_csv(const std::vector<SweepRow>& rows) {
  std::string out;
  for (const auto& row : rows) {
    out += "# ";
    out += row.point.label();
    out += '\n';
    out += fleet_vehicle_csv(row.fleet);
  }
  return out;
}

}  // namespace seo
