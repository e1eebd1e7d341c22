// Sweep report rendering: one row per grid point, as CSV (spreadsheet /
// pandas) or JSON keyed by row label (same shape as BENCH_hotpaths.json's
// "benchmarks" map, so tools built around tools/bench_to_json.py output can
// consume sweep results unchanged).
//
// All numbers are printed through one fixed-precision formatter, so two
// sweeps that produced bit-identical doubles render byte-identical reports
// — the property the determinism tests assert on.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/sweep.hpp"

namespace seo {

/// The canonical report number formatter: the shortest decimal that parses
/// back to exactly `v`, so reports are readable, byte-stable, and lossless
/// for downstream trend tracking.  Shared by the sweep and fleet reports.
std::string report_fmt(double v);

/// Escapes `"` and `\` for embedding in a JSON string literal (row labels
/// are plain scenario/key text, so nothing else needs escaping).  Shared
/// by every report emitter so the escaping rules cannot diverge.
std::string report_json_escape(const std::string& s);

/// Column order of the scalar metrics a row of `config`'s point kind
/// carries: the experiment columns, or fleet_metric_names() for fleet
/// points (config.rounds >= 1).  The one place the kind picks the report
/// shape — the CSV header, the JSON rows and the `--workers` wire's
/// per-point metric count all read it.
std::vector<std::string> sweep_metric_names(const SweepConfig& config);

/// The metric values for one row, in sweep_metric_names(config) order.
std::vector<double> sweep_metrics(const SweepConfig& config,
                                  const SweepRow& row);

/// Renders `rows` to `out` in the named format ("csv" or "json"; throws
/// ContractViolation otherwise).
///
/// CSV: header (scenario, axis keys..., metrics...) then one line per grid
/// point; axis columns come from `config.axes` order.  JSON: {"sweep":
/// {context...}, "rows": {"<label>": {metrics...}}}; a fleet sweep's
/// context block is "fleet": {rounds, base_seed, points}.
void write_sweep_report(std::ostream& out, const std::string& format,
                        const SweepConfig& config,
                        const std::vector<SweepRow>& rows);

/// Matrix form: `metrics[i]` is point i's sweep_metrics.  This is also the
/// multi-process wire unit: worker shards ship each row's doubles as raw
/// IEEE bits, so a report merged from workers renders from bit-identical
/// inputs.  The rows form delegates here, so the in-process and
/// merged-from-workers paths render through one body and cannot drift.
void write_sweep_report(std::ostream& out, const std::string& format,
                        const SweepConfig& config,
                        const std::vector<SweepPoint>& points,
                        const std::vector<std::vector<double>>& metrics);

/// A fleet sweep's per-vehicle summaries: one "# <label>" line plus
/// fleet_vehicle_csv per row, in row order (`sweep --vehicles-output`).
std::string sweep_vehicle_csv(const std::vector<SweepRow>& rows);

}  // namespace seo
