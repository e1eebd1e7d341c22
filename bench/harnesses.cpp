#include "harnesses.hpp"

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <span>
#include <utility>

#include "common.hpp"
#include "energy/report.hpp"
#include "sim/scenario_library.hpp"
#include "sim/simulation.hpp"

namespace seo::bench {

namespace {

/// The sweep grid a harness runs: `scenarios` (library bases) x `axes`,
/// with `overrides` applied to every point, kEpisodes successful episodes
/// per point from seed kBaseSeed, and the points spread over every
/// hardware thread.  Rows come back in grid order whatever the thread
/// count, so the printed tables are deterministic.
SweepConfig grid(std::vector<std::string> scenarios,
                 std::vector<std::pair<std::string, std::string>> overrides,
                 std::vector<SweepAxis> axes,
                 GridMode mode = GridMode::kCartesian) {
  SweepConfig config;
  config.scenarios = std::move(scenarios);
  config.base_overrides = std::move(overrides);
  config.axes = std::move(axes);
  config.grid = mode;
  config.episodes = kEpisodes;
  config.base_seed = kBaseSeed;
  config.threads = 0;
  return config;
}

/// Every library rig, failures aggregated instead of retried.
SweepConfig library_grid() {
  std::vector<std::string> names;
  for (const auto& entry : scenario_library()) names.push_back(entry.name);
  SweepConfig config = grid(std::move(names), {}, {});
  config.max_attempts = kEpisodes * 4;
  config.require_success = false;
  return config;
}

/// Model-only gain of pipeline `i` (Fig. 5 / Tables I-II metric).
double pipeline_gain(const SweepRow& row, std::size_t i) {
  return row.result.pipeline_model_energy(i, row.scenario.platform).gain();
}

double combined_gain(const SweepRow& row) {
  return row.result.combined_model_energy(row.scenario.platform).gain();
}

const char* control(const SweepRow& row) {
  return row.scenario.filtered ? "filtered" : "unfiltered";
}

double per_run(std::uint64_t count, const ExperimentResult& r) {
  return static_cast<double>(count) / std::max(r.episodes_used, 1);
}

/// Offload counters summed over a row's pipelines.
struct OffloadCounts {
  std::uint64_t submitted = 0;
  std::uint64_t applied = 0;
  std::uint64_t fallbacks = 0;
};

OffloadCounts offload_counts(const ExperimentResult& r) {
  OffloadCounts sum;
  for (const auto& p : r.pipelines) {
    const BucketCounts counts = p.tally.total();
    sum.submitted += p.offload_submitted;
    sum.applied += counts.remote_applied;
    sum.fallbacks += counts.local_fallback;
  }
  return sum;
}

using Cells = std::vector<std::string>;

/// Prints one table: a line per `per_line` consecutive grid rows, its
/// cells from `line` (paired grids put the two rows of a line next to
/// each other).
HarnessPrint table(std::string title, Cells header, std::size_t per_line,
                   std::function<Cells(std::span<const SweepRow>)> line) {
  return [=](const std::vector<SweepRow>& rows, std::ostream& out) {
    TextTable t(title);
    t.set_header(header);
    for (std::size_t i = 0; i + per_line <= rows.size(); i += per_line)
      t.add_row(line(std::span(rows).subspan(i, per_line)));
    out << t.render() << "\n";
  };
}

// Fig. 1: normalized energy of the 50 Hz and 25 Hz detectors per obstacle
// count, as a table and one bar chart per detector.
void print_fig1(const std::vector<SweepRow>& rows, std::ostream& out) {
  TextTable t("Normalized energy vs. full operation (1.0)");
  t.set_header({"#obstacles", "50 Hz model", "25 Hz model", "combined",
                "avg delta_max"});
  std::vector<std::pair<std::string, double>> series_fast;
  std::vector<std::pair<std::string, double>> series_slow;
  for (const SweepRow& row : rows) {
    const ExperimentResult& r = row.result;
    const auto& pm = row.scenario.platform;
    const std::string obstacles = std::to_string(row.scenario.obstacle_count);
    const double fast = r.pipeline_model_energy(0, pm).normalized();
    const double slow = r.pipeline_model_energy(1, pm).normalized();
    t.add_row({obstacles, fmt_double(fast, 3), fmt_double(slow, 3),
               fmt_double(r.combined_model_energy(pm).normalized(), 3),
               fmt_double(r.mean_delta_max(), 2)});
    series_fast.emplace_back("obst=" + obstacles, fast);
    series_slow.emplace_back("obst=" + obstacles, slow);
  }
  out << t.render() << "\n"
      << "50 Hz model, normalized energy (increasing risk ->)\n"
      << render_bar_chart(series_fast) << "\n"
      << "25 Hz model, normalized energy (increasing risk ->)\n"
      << render_bar_chart(series_slow) << "\n";
}

// Fig. 6: one delta_max histogram per row, grouped by mode.
void print_fig6(const std::vector<SweepRow>& rows, std::ostream& out) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScenarioConfig& config = rows[i].scenario;
    const ExperimentResult& r = rows[i].result;
    if (i == 0 || config.mode != rows[i - 1].scenario.mode)
      out << "--- " << to_string(config.mode) << " ---\n";
    std::vector<std::pair<std::string, double>> freq;
    for (int d = 1; d <= config.deadline_cap; ++d)
      freq.emplace_back("delta_max=" + std::to_string(d),
                        r.deadline_hist.frequency(d));
    out << "#obstacles=" << config.obstacle_count
        << "  avg efficiency=" << fmt_percent(combined_gain(rows[i]))
        << "  avg delta_max=" << fmt_double(r.mean_delta_max(), 2) << "\n"
        << render_bar_chart(freq) << "\n";
  }
}

// Table III: the schedule is sensor-independent (it depends only on p and
// delta_max), so one filtered gating run supplies the tallies and each
// sensor spec is evaluated analytically from them with eq. (8) — the
// paper's Table III methodology.
void print_table3(const std::vector<SweepRow>& rows, std::ostream& out) {
  const ScenarioConfig& config = rows.front().scenario;
  const ExperimentResult& r = rows.front().result;
  const PerceptionModelSpec model = resnet152_px2();
  struct SensorCase {
    const char* label;
    SensorSpec (*make)(double);
  };
  const SensorCase sensors[] = {
      {"ZED Camera", &zed_stereo_camera},
      {"Navtech Radar", &navtech_cts350x_radar},
      {"Velod. LiDAR", &velodyne_hdl32e_lidar},
  };
  TextTable t("Sensor gating at tau = 20 ms, filtered control case");
  t.set_header({"sensor", "P_meas", "P_mech", "avg gains", "4tau gains"});
  for (const auto& sc : sensors) {
    for (const auto& pipe : r.pipelines) {
      const SensorSpec spec = sc.make(pipe.sensor.period_s);
      const EnergyComparison avg =
          sensor_gating_energy(pipe.tally, spec, model);
      const EnergyComparison at4 =
          sensor_gating_energy_at(pipe.tally, config.deadline_cap, spec, model);
      t.add_row({std::string(sc.label) + " (p=" +
                     (pipe.delta == 1 ? "tau" : "2tau") + ")",
                 fmt_double(spec.meas_power_w, 1) + " W",
                 fmt_double(spec.mech_power_w, 1) + " W",
                 fmt_percent(avg.gain(), 2), fmt_percent(at4.gain(), 2)});
    }
  }
  out << t.render() << "\n";
}

}  // namespace

const std::vector<Harness>& harnesses() {
  static const std::vector<Harness> all = {
      // A2: offloading gains, feasibility and the fallback rate vs. the
      // Rayleigh scale the paper fixes at 20 Mbps; fallbacks absorb late
      // responses, so only energy is lost on a bad channel.
      {"ablation_channel", "design choice: Rayleigh channel (paper VI-A)",
       "offload mode, filtered, 2 obstacles, tau=20 ms; Rayleigh scale "
       "swept 5..80 Mbps",
       grid({"paper_default"},
            {{"mode", "offload"}, {"filtered", "true"}, {"obstacles", "2"}},
            {{"channel_mbps", {"5", "10", "15", "20", "30", "50", "80"}}}),
       table("Offloading vs. channel quality",
             {"scale [Mbps]", "combined gain", "p=tau gain", "offloads",
              "applied", "fallbacks", "fallback rate", "collided"},
             1,
             [](std::span<const SweepRow> line) -> Cells {
               const SweepRow& row = line[0];
               const OffloadCounts n = offload_counts(row.result);
               const std::uint64_t answered = n.applied + n.fallbacks;
               const double fb_rate =
                   answered > 0 ? static_cast<double>(n.fallbacks) /
                                      static_cast<double>(answered)
                                : 0.0;
               return {fmt_double(row.scenario.channel_scale_mbps, 0),
                       fmt_percent(combined_gain(row)),
                       fmt_percent(pipeline_gain(row, 0)),
                       std::to_string(n.submitted), std::to_string(n.applied),
                       std::to_string(n.fallbacks), fmt_percent(fb_rate),
                       std::to_string(row.result.collisions)};
             }),
       "Expected: gains grow and saturate with channel quality; fallback "
       "rate decays;\nzero collisions at every scale — the deadline "
       "guarantee is channel-independent.\n"},

      // A4: the delta_max cap bounds worst-case staleness in unconstrained
      // stretches; raising it buys headroom.  Lines pair gating, offload.
      {"ablation_deadline_cap",
       "design choice: delta_max cap (paper Fig. 6 domain)",
       "filtered, 2 obstacles, tau=20 ms; cap swept 2..8",
       grid({"paper_default"}, {{"filtered", "true"}, {"obstacles", "2"}},
            {{"deadline_cap", {"2", "3", "4", "6", "8"}},
             {"mode", {"gating", "offload"}}}),
       table("Energy gains vs. deadline cap",
             {"cap", "gating combined", "offload combined", "avg delta_max",
              "worst staleness [ms]", "collided"},
             2,
             [](std::span<const SweepRow> line) -> Cells {
               const SweepRow& gate = line[0];
               const int cap = gate.scenario.deadline_cap;
               return {std::to_string(cap), fmt_percent(combined_gain(gate)),
                       fmt_percent(combined_gain(line[1])),
                       fmt_double(gate.result.mean_delta_max(), 2),
                       fmt_double(cap * gate.scenario.tau_s * 1e3, 0),
                       std::to_string(gate.result.collisions +
                                      line[1].result.collisions)};
             }),
       "Expected: gains grow with the cap (more headroom in low-risk "
       "stretches) while\nworst-case staleness grows linearly; safety is "
       "preserved at every cap because\nconstrained intervals are bounded "
       "by the formal deadline, not the cap.\n"},

      // A7: obstacles pacing across the road enter the certificate as a
      // worst-case environment speed, so the same clearance yields smaller
      // safe intervals.  Paired, because amplitude 0 means static
      // obstacles; lines pair gating, offload.
      {"ablation_dynamic_env", "extends paper (static obstacles only)",
       "filtered gating, 3 obstacles, tau=20 ms; lateral pacing amplitude "
       "swept (period 4 s)",
       grid({"paper_default"}, {{"filtered", "true"}, {"obstacles", "3"}},
            {{"obstacle_osc_amplitude",
              {"0", "0", "0.5", "0.5", "1", "1", "1.5", "1.5", "2", "2"}},
             {"moving_obstacles",
              {"false", "false", "true", "true", "true", "true", "true",
               "true", "true", "true"}},
             {"mode",
              {"gating", "offload", "gating", "offload", "gating", "offload",
               "gating", "offload", "gating", "offload"}}},
            GridMode::kPaired),
       table("Obstacle motion vs. deadlines and gains",
             {"pacing amplitude [m]", "env speed bound [m/s]",
              "avg delta_max", "gating gain", "offload gain",
              "engagements/run", "collided", "off road"},
             2,
             [](std::span<const SweepRow> line) -> Cells {
               const ScenarioConfig& gate = line[0].scenario;
               const ExperimentResult& rg = line[0].result;
               const ExperimentResult& ro = line[1].result;
               const double amplitude = gate.obstacle_osc_amplitude;
               const double omega =
                   6.28318530717958647692 / gate.obstacle_osc_period;
               return {
                   fmt_double(amplitude, 1),
                   fmt_double(gate.moving_obstacles ? amplitude * omega : 0.0,
                              2),
                   fmt_double(rg.mean_delta_max(), 2),
                   fmt_percent(combined_gain(line[0])),
                   fmt_percent(combined_gain(line[1])),
                   fmt_double(per_run(rg.filter_engagements, rg), 1),
                   std::to_string(rg.collisions + ro.collisions),
                   std::to_string(rg.off_roads + ro.off_roads)};
             }),
       "Expected: faster obstacle motion -> tighter certificate -> smaller "
       "delta_max and\nlower gains, with the filter working progressively "
       "harder (engagements rise).\nNo collisions at any amplitude: "
       "evasions that would leave the road are the only\nfailure mode "
       "(off-road exits), i.e. the barrier guarantee itself holds.\n"},

      // A8: with an explicit server, burst arrivals serialize on the
      // inference workers; scarce capacity inflates responses past
      // delta-hat into fallbacks and shedding.
      {"ablation_edge_server", "extends paper V-A (server response times)",
       "offload mode, filtered, 2 obstacles; server service time and "
       "worker count swept",
       grid({"paper_default"},
            {{"mode", "offload"},
             {"filtered", "true"},
             {"obstacles", "2"},
             {"use_edge_server", "true"},
             {"server_queue", "8"}},
            {{"server_service_ms", {"3", "5", "5", "10", "10", "16"}},
             {"server_workers", {"4", "2", "1", "2", "1", "1"}}},
            GridMode::kPaired),
       table("Offloading vs. edge-server capacity",
             {"service [ms]", "workers", "combined gain", "applied",
              "fallbacks", "collided"},
             1,
             [](std::span<const SweepRow> line) -> Cells {
               const SweepRow& row = line[0];
               const OffloadCounts n = offload_counts(row.result);
               return {
                   fmt_double(row.scenario.edge_server.service_time_s * 1e3,
                              0),
                   std::to_string(row.scenario.edge_server.parallelism),
                   fmt_percent(combined_gain(row)), std::to_string(n.applied),
                   std::to_string(n.fallbacks),
                   std::to_string(row.result.collisions)};
             }),
       "Expected: gains degrade gracefully as the server gets "
       "slower/narrower; fallbacks\nabsorb the misses; zero collisions at "
       "every capacity.\n"},

      // A8: every library rig end to end — the formal deadline should hold
      // with the filter on across all of them, while gains vary widely.
      {"ablation_scenario_library", "scope: paper VI-A generalized",
       "every library rig, " + std::to_string(kEpisodes) +
           " episodes each, aggregated failures included",
       library_grid(),
       table("Scenario library envelope",
             {"scenario", "mode", "combined gain", "avg delta_max",
              "avg speed", "min h [m]", "engages", "collided", "off-road",
              "timeout"},
             1,
             [](std::span<const SweepRow> line) -> Cells {
               const SweepRow& row = line[0];
               const ExperimentResult& r = row.result;
               return {row.point.scenario,
                       to_string(row.scenario.mode),
                       fmt_percent(combined_gain(row)),
                       fmt_double(r.mean_delta_max(), 2),
                       fmt_double(r.avg_speed.mean(), 2),
                       fmt_double(r.min_h.empty() ? 0.0 : r.min_h.mean(), 2),
                       std::to_string(r.filter_engagements),
                       std::to_string(r.collisions),
                       std::to_string(r.off_roads),
                       std::to_string(r.timeouts)};
             }),
       "Expected: zero collisions on every filtered rig "
       "(unfiltered_baseline is the\nexception that motivates the filter); "
       "gains track how often each workload's\ndeadline admits "
       "optimization.\n"},

      // A6: gating vs. model scaling vs. offloading under the same
      // deadlines (paper section V opens the trade-off but does not
      // evaluate it).  Staleness comes from one extra traced episode per
      // row at the representative seed kBaseSeed.
      {"ablation_strategies", "extends paper section V (Omega methods)",
       "filtered, 3 obstacles, tau=20 ms; identical deadline streams per "
       "mode",
       grid({"paper_default"}, {{"filtered", "true"}, {"obstacles", "3"}},
            {{"mode", {"local", "gating", "scaled", "offload"}}}),
       table("Optimization methods under identical safety deadlines",
             {"method", "combined gain", "p=tau gain", "worst staleness [ms]",
              "engagements/run", "collided"},
             1,
             [](std::span<const SweepRow> line) -> Cells {
               const SweepRow& row = line[0];
               ScenarioConfig traced = row.scenario;
               traced.seed = kBaseSeed;
               EpisodeTrace trace;
               (void)run_episode(traced, &trace);
               return {
                   to_string(row.scenario.mode),
                   fmt_percent(combined_gain(row)),
                   fmt_percent(pipeline_gain(row, 0)),
                   fmt_double(trace.max_detection_age() * 1e3, 0),
                   fmt_double(per_run(row.result.filter_engagements,
                                      row.result),
                              1),
                   std::to_string(row.result.collisions)};
             }),
       "Expected: offloading > gating > scaled > local in energy; scaled "
       "beats gating on\nstaleness (fresh low-fidelity outputs every "
       "frame); all methods equally safe.\n"},

      // A3: eq. (5) floors Delta_max/tau, so a coarser tau discards more of
      // each safety interval; tau must fit the 17 ms ResNet-152 latency.
      // Lines pair gating, offload.
      {"ablation_tau_sweep", "generalizes paper Table I (tau=25 ms point)",
       "filtered, 2 obstacles; sensor periods scale with tau (p=tau, "
       "p=2tau); 17 ms model latency fixed",
       grid({"paper_default"}, {{"filtered", "true"}, {"obstacles", "2"}},
            {{"tau_ms", {"20", "25", "30", "40", "50"}},
             {"mode", {"gating", "offload"}}}),
       table("Energy gains vs. base period tau",
             {"tau [ms]", "gating p=tau", "gating p=2tau", "offload p=tau",
              "offload p=2tau", "avg delta_max"},
             2,
             [](std::span<const SweepRow> line) -> Cells {
               return {fmt_double(line[0].scenario.tau_s * 1e3, 0),
                       fmt_percent(pipeline_gain(line[0], 0)),
                       fmt_percent(pipeline_gain(line[0], 1)),
                       fmt_percent(pipeline_gain(line[1], 0)),
                       fmt_percent(pipeline_gain(line[1], 1)),
                       fmt_double(line[0].result.mean_delta_max(), 2)};
             }),
       "Expected: gains shrink monotonically as tau coarsens (deadline "
       "floor discards\nmore headroom); the p=2tau pipeline collapses "
       "first.\n"},

      // Fig. 1 (motivational example): full operation (always local) is
      // the 1.0 reference; more obstacles pull the safe deadline down and
      // normalized energy up.
      {"fig1_motivation", "paper Fig. 1",
       "safety-aware gating; 50 Hz (p=tau) and 25 Hz (p=2tau) ResNet-152 "
       "detectors; tau=20 ms; unfiltered control; obstacles 0..6",
       grid({"paper_default"}, {{"mode", "gating"}, {"filtered", "false"}},
            {{"obstacles", {"0", "1", "2", "3", "4", "5", "6"}}}),
       print_fig1,
       "Expected shape (paper Fig. 1): normalized energy rises with risk; "
       "the faster\nmodel gains more headroom at low risk.\n"},

      // Fig. 5: gains over local execution for the two detectors when
      // offloading and gating, unfiltered and filtered, on the paper's
      // obstacle course (obstacles in the final third of a 100 m road).
      {"fig5_energy_gains", "paper Fig. 5",
       "two ResNet-152 detectors (p=tau, p=2tau); tau=20 ms; 2 obstacles "
       "in final third; 25 successful runs per case",
       grid({"paper_default"}, {{"obstacles", "2"}},
            {{"mode", {"offload", "gating"}},
             {"filtered", {"false", "true"}}}),
       table("Energy gains relative to local execution (tau = 20 ms)",
             {"method", "control", "p=tau gain", "p=2tau gain",
              "avg delta_max"},
             1,
             [](std::span<const SweepRow> line) -> Cells {
               const SweepRow& row = line[0];
               return {to_string(row.scenario.mode), control(row),
                       fmt_percent(pipeline_gain(row, 0)),
                       fmt_percent(pipeline_gain(row, 1)),
                       fmt_double(row.result.mean_delta_max(), 2)};
             }),
       "Paper reference points (Fig. 5): offloading filtered 65.9% (p=tau) "
       "/ 20.3% (p=2tau),\nunfiltered 24.1%; gating filtered 37.2% (p=tau) "
       "/ 8% (p=2tau).\nExpected shape: offloading > gating, p=tau > "
       "p=2tau, filtered >= unfiltered.\n"},

      // Fig. 6: sampled delta_max histograms in the unfiltered case as
      // obstacles vary, with the average efficiency over both detectors.
      {"fig6_deadline_histogram", "paper Fig. 6",
       "unfiltered control; tau=20 ms; obstacles in {0, 2, 4}; histogram "
       "of sampled delta_max per interval",
       grid({"paper_default"}, {{"filtered", "false"}},
            {{"mode", {"offload", "gating"}},
             {"obstacles", {"0", "2", "4"}}}),
       print_fig6,
       "Paper reference (Fig. 6): delta_max=4 frequency falls as obstacles "
       "increase\n(33.3% -> 6.48% -> 2.3% for gating); avg efficiency "
       "88.6/24.6/16.8% (offload),\n42.9/17.5/11.9% (gating).  Expected "
       "shape: histogram mass shifts to lower\ndelta_max with more "
       "obstacles; efficiency drops accordingly.\n"},

      // Table I: the Fig. 5 rig at tau = 25 ms (the paper's "more limited
      // hardware settings" case).
      {"table1_tau25", "paper Table I",
       "same rig as Fig. 5 but tau=25 ms; sensors at p=tau and p=2tau",
       grid({"paper_tau25"}, {{"obstacles", "2"}},
            {{"mode", {"offload", "gating"}},
             {"filtered", {"false", "true"}}}),
       table("Offloading and gating energy gains over local at tau = 25 ms",
             {"mode", "control", "(p=tau) gains", "(p=2tau) gains",
              "average gains"},
             1,
             [](std::span<const SweepRow> line) -> Cells {
               const SweepRow& row = line[0];
               const double g0 = pipeline_gain(row, 0);
               const double g1 = pipeline_gain(row, 1);
               return {to_string(row.scenario.mode), control(row),
                       fmt_percent(g0), fmt_percent(g1),
                       fmt_percent(0.5 * (g0 + g1))};
             }),
       "Paper reference (Table I): offload unfiltered 15.3/7.5/11.8%, "
       "filtered 27.1/14.1/21.1%;\ngating unfiltered 13.4/0/6.6%, filtered "
       "23.8/4.3/14.5%.\nExpected shape: gains shrink vs. tau=20 ms; gating "
       "p=2tau collapses toward 0.\n"},

      // Table II: combined gains over both detectors and delta_max as
      // obstacles vary, unfiltered and filtered.  Lines pair offload,
      // gating.
      {"table2_obstacle_variation", "paper Table II",
       "tau=20 ms; obstacles in {0, 2, 4}; combined gains over both "
       "detectors; 25 successful runs per cell",
       grid({"paper_default"}, {},
            {{"filtered", {"false", "true"}},
             {"obstacles", {"0", "2", "4"}},
             {"mode", {"offload", "gating"}}}),
       table("Average energy gains and delta_max at tau = 20 ms under "
             "obstacle variation",
             {"control", "#obst", "offloading gains", "gating gains",
              "delta_max"},
             2,
             [](std::span<const SweepRow> line) -> Cells {
               const SweepRow& gate = line[1];
               return {control(gate),
                       std::to_string(gate.scenario.obstacle_count),
                       fmt_percent(combined_gain(line[0]), 2),
                       fmt_percent(combined_gain(gate), 2),
                       fmt_double(gate.result.mean_delta_max(), 2)};
             }),
       "Paper reference (Table II):\n"
       "  unfiltered: 88.58/42.92% @3.67, 24.6/17.47% @2.29, "
       "16.82/11.89% @1.92\n"
       "  filtered:   89.89/43.82% @3.70, 39.49/24.26% @2.61, "
       "43.1/22.57% @2.53\n"
       "Expected shape: gains and delta_max fall with obstacle count; "
       "filtered >= unfiltered;\nfiltered case saturates for >= 2 "
       "obstacles.\n"},

      // Table III: sensor gating (eq. 8, sensor + model energy) for the
      // ZED camera, Navtech radar and Velodyne LiDAR at p = tau and 2tau.
      {"table3_sensor_gating", "paper Table III",
       "filtered gating at tau=20 ms; eq. (8) sensor+model energy; sensors "
       "evaluated from the measured schedule tallies",
       grid({"paper_default"},
            {{"mode", "gating"}, {"filtered", "true"}, {"obstacles", "2"}},
            {}),
       print_table3,
       "Paper reference (Table III): camera 37.5/8.2% avg, 75/50% @4tau; "
       "radar 34.84/7.57%,\n68.93/45.53%; lidar 32.72/6.9%, 64.82/41.91%.  "
       "The 4tau column is analytic in the\nsensor specs (eq. 8) and should "
       "match the paper almost exactly; expected ordering\ncamera > radar > "
       "lidar (mechanical rails resist gating).\n"},
  };
  return all;
}

const Harness* find_harness(const std::string& name) {
  for (const Harness& harness : harnesses())
    if (harness.name == name) return &harness;
  return nullptr;
}

void run_harness(const Harness& harness, std::ostream& out) {
  print_banner(harness.name, harness.paper_ref, harness.setup, out);
  harness.print(run_sweep(harness.grid), out);
  out << harness.footer;
}

}  // namespace seo::bench
