// Paper-claims gate: the paper harnesses' grids (bench/harnesses.cpp), run
// once each, checked against what the paper reports.
//
// - Orderings the paper states (offloading > gating, p=tau > p=2tau,
//   filtered >= unfiltered, gains and delta_max falling with obstacles,
//   camera > radar > lidar, no collision with the filter on) fail hard.
// - Table III's 4tau column is analytic in the sensor specs (eq. 8), so it
//   is pinned to the paper's numbers.
// - Every other number in the harnesses' "Paper reference" lines is a
//   known deviation: the claim records this repo's value and why it
//   differs, and fails when the value moves, so a change that moves a
//   published number re-records it here as a declared change.
//
// The paper values are the harnesses' reference lines; a claim names its
// harness, its grid row (SweepPoint::label()) and a metric of that row.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "energy/report.hpp"
#include "harnesses.hpp"

namespace seo {
namespace {

using Metrics = std::map<std::string, double>;

/// Table III's sensors, evaluated from a row's schedule tallies as the
/// table3_sensor_gating harness does.
struct SensorCase {
  const char* name;
  SensorSpec (*make)(double);
};
const SensorCase kSensors[] = {
    {"camera", &zed_stereo_camera},
    {"radar", &navtech_cts350x_radar},
    {"lidar", &velodyne_hdl32e_lidar},
};

/// The metrics a claim can name, for one grid row.  Per-pipeline metrics
/// are suffixed with the pipeline's period ("p=tau", "p=2tau").
Metrics row_metrics(const SweepRow& row) {
  const ExperimentResult& r = row.result;
  const PlatformPowerModel& pm = row.scenario.platform;
  Metrics m;
  m["combined gain"] = r.combined_model_energy(pm).gain();
  m["normalized energy"] = r.combined_model_energy(pm).normalized();
  m["mean delta_max"] = r.mean_delta_max();
  m["delta_max=4 share"] = r.deadline_hist.frequency(4);
  m["collisions"] = r.collisions;
  m["filtered"] = row.scenario.filtered ? 1.0 : 0.0;
  double gain_sum = 0.0;
  for (std::size_t i = 0; i < r.pipelines.size(); ++i) {
    const PipelineAggregate& pipe = r.pipelines[i];
    const std::string p = pipe.delta == 1
                              ? "p=tau"
                              : "p=" + std::to_string(pipe.delta) + "tau";
    const double gain = r.pipeline_model_energy(i, pm).gain();
    gain_sum += gain;
    m["gain " + p] = gain;
    m["normalized energy " + p] = r.pipeline_model_energy(i, pm).normalized();
    for (const SensorCase& sensor : kSensors) {
      const SensorSpec spec = sensor.make(pipe.sensor.period_s);
      const std::string name = std::string(sensor.name) + " ";
      m[name + "avg gain " + p] =
          sensor_gating_energy(pipe.tally, spec, pipe.model).gain();
      m[name + "4tau gain " + p] =
          sensor_gating_energy_at(pipe.tally, row.scenario.deadline_cap, spec,
                                  pipe.model)
              .gain();
    }
  }
  if (!r.pipelines.empty())
    m["average gain"] = gain_sum / static_cast<double>(r.pipelines.size());
  return m;
}

/// Every harness's rows, keyed by harness name then row label; each grid
/// runs once per process.
const std::map<std::string, std::map<std::string, Metrics>>& results() {
  static const auto all = [] {
    std::map<std::string, std::map<std::string, Metrics>> out;
    for (const bench::Harness& harness : bench::harnesses())
      for (const SweepRow& row : run_sweep(harness.grid))
        out[harness.name][row.point.label()] = row_metrics(row);
    return out;
  }();
  return all;
}

/// One value: harness, grid row label and metric name.
struct Ref {
  std::string harness;
  std::string row;
  std::string metric;
};

std::string describe(const Ref& ref) {
  return ref.harness + " [" + ref.row + "] " + ref.metric;
}

double value(const Ref& ref) {
  const auto harness = results().find(ref.harness);
  if (harness != results().end()) {
    const auto row = harness->second.find(ref.row);
    if (row != harness->second.end()) {
      const auto metric = row->second.find(ref.metric);
      if (metric != row->second.end()) return metric->second;
    }
  }
  ADD_FAILURE() << "no such value: " << describe(ref);
  return std::nan("");
}

/// Expects each value in `refs` above the next one (`strict`) or not
/// below it.
void expect_falls(const std::string& claim, const std::vector<Ref>& refs,
                  bool strict = true) {
  for (std::size_t i = 0; i + 1 < refs.size(); ++i) {
    const double hi = value(refs[i]);
    const double lo = value(refs[i + 1]);
    EXPECT_TRUE(strict ? hi > lo : hi >= lo)
        << claim << ": " << describe(refs[i]) << " = " << hi << " vs "
        << describe(refs[i + 1]) << " = " << lo;
  }
}

// --- Orderings --------------------------------------------------------------

std::string mode_row(const std::string& scenario, const std::string& mode,
                     const std::string& filtered) {
  return scenario + " mode=" + mode + " filtered=" + filtered;
}

// Fig. 5 (tau = 20 ms) and Table I (tau = 25 ms) share one grid shape.
struct ModeGrid {
  const char* harness;
  const char* scenario;
};
const ModeGrid kModeGrids[] = {{"fig5_energy_gains", "paper_default"},
                               {"table1_tau25", "paper_tau25"}};

TEST(PaperClaims, OffloadingBeatsGating) {
  for (const ModeGrid& g : kModeGrids)
    for (const char* filtered : {"false", "true"})
      for (const char* gain : {"gain p=tau", "gain p=2tau"})
        expect_falls("offloading > gating",
                     {{g.harness, mode_row(g.scenario, "offload", filtered),
                       gain},
                      {g.harness, mode_row(g.scenario, "gating", filtered),
                       gain}});
}

TEST(PaperClaims, FasterDetectorGainsMore) {
  for (const ModeGrid& g : kModeGrids)
    for (const char* mode : {"offload", "gating"})
      for (const char* filtered : {"false", "true"}) {
        const std::string row = mode_row(g.scenario, mode, filtered);
        expect_falls("p=tau > p=2tau", {{g.harness, row, "gain p=tau"},
                                        {g.harness, row, "gain p=2tau"}});
      }
}

TEST(PaperClaims, FilteredGainsAtLeastUnfiltered) {
  for (const ModeGrid& g : kModeGrids)
    for (const char* mode : {"offload", "gating"})
      for (const char* gain : {"gain p=tau", "gain p=2tau"})
        expect_falls("filtered >= unfiltered",
                     {{g.harness, mode_row(g.scenario, mode, "true"), gain},
                      {g.harness, mode_row(g.scenario, mode, "false"), gain}},
                     false);
  for (const char* obstacles : {"0", "2", "4"})
    for (const char* mode : {"offload", "gating"}) {
      const std::string tail =
          std::string(" obstacles=") + obstacles + " mode=" + mode;
      expect_falls("filtered >= unfiltered (Table II)",
                   {{"table2_obstacle_variation",
                     "paper_default filtered=true" + tail, "combined gain"},
                    {"table2_obstacle_variation",
                     "paper_default filtered=false" + tail, "combined gain"}},
                   false);
    }
}

// Table I's "gains shrink vs. tau=20 ms" does not hold per period: offload
// p=tau reads 57.1% at 25 ms vs 56.5% at 20 ms unfiltered, and 59.5% vs
// 59.3% filtered.  The average over both detectors does shrink, so that
// is what the gate pins.
TEST(PaperClaims, Tau25AverageGainsShrinkVsTau20) {
  for (const char* mode : {"offload", "gating"})
    for (const char* filtered : {"false", "true"})
      expect_falls("Table I average gains < Fig. 5's",
                   {{"fig5_energy_gains",
                     mode_row("paper_default", mode, filtered),
                     "average gain"},
                    {"table1_tau25", mode_row("paper_tau25", mode, filtered),
                     "average gain"}});
}

// The expected-shape line's order.  The paper's own filtered offloading
// column rises from 2 to 4 obstacles ("saturates"); this repo's falls.
TEST(PaperClaims, GainsAndDeadlinesFallWithObstacles) {
  for (const char* filtered : {"false", "true"})
    for (const char* mode : {"offload", "gating"}) {
      std::vector<Ref> gains;
      std::vector<Ref> deadlines;
      for (const char* obstacles : {"0", "2", "4"}) {
        const std::string row = std::string("paper_default filtered=") +
                                filtered + " obstacles=" + obstacles +
                                " mode=" + mode;
        gains.push_back({"table2_obstacle_variation", row, "combined gain"});
        deadlines.push_back(
            {"table2_obstacle_variation", row, "mean delta_max"});
      }
      expect_falls("Table II gains fall with obstacles", gains);
      expect_falls("Table II mean delta_max falls with obstacles", deadlines);
    }
}

TEST(PaperClaims, NormalizedEnergyRisesWithObstacles) {
  for (const char* metric :
       {"normalized energy", "normalized energy p=tau",
        "normalized energy p=2tau"}) {
    std::vector<Ref> falling;
    for (int obstacles = 6; obstacles >= 0; --obstacles)
      falling.push_back({"fig1_motivation",
                         "paper_default obstacles=" +
                             std::to_string(obstacles),
                         metric});
    expect_falls("Fig. 1 normalized energy rises with risk", falling);
  }
}

TEST(PaperClaims, TopDeadlineShareFallsWithObstacles) {
  // Reads 1.000 -> 0.427 -> 0.322 in both modes.
  for (const char* mode : {"offload", "gating"}) {
    std::vector<Ref> shares;
    for (const char* obstacles : {"0", "2", "4"})
      shares.push_back({"fig6_deadline_histogram",
                        std::string("paper_default mode=") + mode +
                            " obstacles=" + obstacles,
                        "delta_max=4 share"});
    expect_falls("Fig. 6 delta_max=4 share falls with obstacles", shares);
  }
}

TEST(PaperClaims, CameraGatesBestThenRadarThenLidar) {
  for (const char* column : {"avg gain", "4tau gain"})
    for (const char* p : {"p=tau", "p=2tau"}) {
      std::vector<Ref> sensors;
      for (const SensorCase& sensor : kSensors)
        sensors.push_back({"table3_sensor_gating", "paper_default",
                           std::string(sensor.name) + " " + column + " " + p});
      expect_falls("Table III camera > radar > lidar", sensors);
    }
}

TEST(PaperClaims, NoCollisionWithTheFilterOn) {
  // Every harness, every filtered row: the safety guarantee holds across
  // channels, caps, server capacities, dynamic obstacles and rigs.
  int filtered_rows = 0;
  for (const auto& [harness, rows] : results())
    for (const auto& [row, metrics] : rows) {
      if (metrics.at("filtered") == 0.0) continue;
      ++filtered_rows;
      EXPECT_EQ(metrics.at("collisions"), 0.0)
          << harness << " [" << row << "]";
    }
  EXPECT_GT(filtered_rows, 0);
}

// --- Magnitudes -------------------------------------------------------------

/// One published number.  A pinned claim must sit within `tolerance` of
/// the paper; a known deviation must sit within `tolerance` of `current`,
/// this repo's value when the claim was last recorded, and `reason` says
/// why it differs from the paper.
struct Claim {
  Ref ref;
  double paper;
  double current;
  double tolerance;
  const char* reason;  ///< nullptr for a pinned claim
};

constexpr double kPinned = 0.005;      ///< +-0.5 pt of the paper
constexpr double kGainDrift = 0.0005;  ///< a move of 0.05 pt shows
constexpr double kDeadlineDrift = 0.005;

Claim pinned(Ref ref, double paper) {
  return {std::move(ref), paper, paper, kPinned, nullptr};
}

Claim deviation(Ref ref, double paper, double current, const char* reason,
                double drift = kGainDrift) {
  return {std::move(ref), paper, current, drift, reason};
}

// Why the measured numbers differ from the paper's.
const char* const kDeadlineShape =
    "deadline mass sits at the cap: constrained intervals land almost only "
    "on delta_max 1 or 4, where the paper puts the mass at 2-3, so gains "
    "with obstacles run above the paper's, most of all for offloading and "
    "for p=2tau";
const char* const kFilteredSaturates =
    "the paper's filtered case saturates from 2 obstacles on (offloading "
    "rises 39.49% -> 43.1% from 2 to 4) where this repo's keeps falling; "
    "at 4 obstacles the gains land within 0.3 pt, the mean delta_max below";
const char* const kUnconstrained =
    "with no obstacle in sensing range an interval is unconstrained and "
    "maps to the cap, so every 0-obstacle interval has delta_max 4";
const char* const kTableIShape =
    "the same deadline shape at tau=25 ms; the paper's Table I sits far "
    "below its own Fig. 5, this repo's barely below";
const char* const kFig5Unfiltered =
    "deadline shape as above; the reference does not say which period, "
    "read here as p=tau (the 'up to' value)";
const char* const kTableIIInconsistent =
    "inconsistent in the source: under cap 4 a mean delta_max of 3.67 "
    "needs a delta_max=4 share of at least 67%, but Fig. 6 gives 33.3% at "
    "0 obstacles; the gate pins Fig. 6's falling share instead";
const char* const kSensorAverage =
    "the average column follows the deadline shape (more gated intervals "
    "than the paper's); the 4tau column, analytic, matches";

std::vector<Claim> claims() {
  const auto fig5 = [](const char* mode, const char* filtered,
                       const char* metric) -> Ref {
    return {"fig5_energy_gains", mode_row("paper_default", mode, filtered),
            metric};
  };
  const auto table1 = [](const char* mode, const char* filtered,
                         const char* metric) -> Ref {
    return {"table1_tau25", mode_row("paper_tau25", mode, filtered), metric};
  };
  const auto table2 = [](const char* filtered, const char* obstacles,
                         const char* mode, const char* metric) -> Ref {
    return {"table2_obstacle_variation",
            std::string("paper_default filtered=") + filtered +
                " obstacles=" + obstacles + " mode=" + mode,
            metric};
  };
  const auto table3 = [](const char* metric) -> Ref {
    return {"table3_sensor_gating", "paper_default", metric};
  };
  const auto fig6 = [](const char* mode, const char* obstacles,
                       const char* metric) -> Ref {
    return {"fig6_deadline_histogram",
            std::string("paper_default mode=") + mode +
                " obstacles=" + obstacles,
            metric};
  };
  const char* const shape = kDeadlineShape;
  const char* const tau25 = kTableIShape;
  const char* const avg = kSensorAverage;
  return {
      // Table III, 4tau column: analytic in the sensor specs (eq. 8).
      pinned(table3("camera 4tau gain p=tau"), 0.75),
      pinned(table3("camera 4tau gain p=2tau"), 0.50),
      pinned(table3("radar 4tau gain p=tau"), 0.6893),
      pinned(table3("radar 4tau gain p=2tau"), 0.4553),
      pinned(table3("lidar 4tau gain p=tau"), 0.6482),
      pinned(table3("lidar 4tau gain p=2tau"), 0.4191),
      // Table III, average column.
      deviation(table3("camera avg gain p=tau"), 0.375, 0.6232, avg),
      deviation(table3("camera avg gain p=2tau"), 0.082, 0.3114, avg),
      deviation(table3("radar avg gain p=tau"), 0.3484, 0.5733, avg),
      deviation(table3("radar avg gain p=2tau"), 0.0757, 0.2837, avg),
      deviation(table3("lidar avg gain p=tau"), 0.3272, 0.5399, avg),
      deviation(table3("lidar avg gain p=2tau"), 0.069, 0.2615, avg),
      // Fig. 5.
      deviation(fig5("offload", "true", "gain p=tau"), 0.659, 0.5930, shape),
      deviation(fig5("offload", "true", "gain p=2tau"), 0.203, 0.4071, shape),
      deviation(fig5("offload", "false", "gain p=tau"), 0.241, 0.5646,
                kFig5Unfiltered),
      deviation(fig5("gating", "true", "gain p=tau"), 0.372, 0.3769, shape),
      deviation(fig5("gating", "true", "gain p=2tau"), 0.08, 0.1349, shape),
      // Table I.
      deviation(table1("offload", "false", "gain p=tau"), 0.153, 0.5706, tau25),
      deviation(table1("offload", "false", "gain p=2tau"), 0.075, 0.3647,
                tau25),
      deviation(table1("offload", "false", "average gain"), 0.118, 0.4676,
                tau25),
      deviation(table1("offload", "true", "gain p=tau"), 0.271, 0.5950, tau25),
      deviation(table1("offload", "true", "gain p=2tau"), 0.141, 0.3793, tau25),
      deviation(table1("offload", "true", "average gain"), 0.211, 0.4871,
                tau25),
      deviation(table1("gating", "false", "gain p=tau"), 0.134, 0.3098, tau25),
      deviation(table1("gating", "false", "gain p=2tau"), 0.0, 0.1059, tau25),
      deviation(table1("gating", "false", "average gain"), 0.066, 0.2078,
                tau25),
      deviation(table1("gating", "true", "gain p=tau"), 0.238, 0.3265, tau25),
      deviation(table1("gating", "true", "gain p=2tau"), 0.043, 0.1101, tau25),
      deviation(table1("gating", "true", "average gain"), 0.145, 0.2183, tau25),
      // Table II.
      deviation(table2("false", "0", "offload", "combined gain"), 0.8858,
                0.8679, kUnconstrained),
      deviation(table2("false", "0", "gating", "combined gain"), 0.4292,
                0.3568, kUnconstrained),
      deviation(table2("false", "0", "gating", "mean delta_max"), 3.67, 4.0,
                kTableIIInconsistent, kDeadlineDrift),
      deviation(table2("false", "2", "offload", "combined gain"), 0.246,
                0.4820, shape),
      deviation(table2("false", "2", "gating", "combined gain"), 0.1747,
                0.2480, shape),
      deviation(table2("false", "2", "gating", "mean delta_max"), 2.29, 2.379,
                shape, kDeadlineDrift),
      deviation(table2("false", "4", "offload", "combined gain"), 0.1682,
                0.4037, shape),
      deviation(table2("false", "4", "gating", "combined gain"), 0.1189,
                0.2094, shape),
      deviation(table2("false", "4", "gating", "mean delta_max"), 1.92, 2.023,
                shape, kDeadlineDrift),
      deviation(table2("true", "0", "offload", "combined gain"), 0.8989,
                0.8679, kUnconstrained),
      deviation(table2("true", "0", "gating", "combined gain"), 0.4382,
                0.3568, kUnconstrained),
      deviation(table2("true", "0", "gating", "mean delta_max"), 3.70, 4.0,
                kTableIIInconsistent, kDeadlineDrift),
      deviation(table2("true", "2", "offload", "combined gain"), 0.3949,
                0.5097, shape),
      deviation(table2("true", "2", "gating", "combined gain"), 0.2426,
                0.2685, shape),
      deviation(table2("true", "2", "gating", "mean delta_max"), 2.61, 2.652,
                shape, kDeadlineDrift),
      deviation(table2("true", "4", "offload", "combined gain"), 0.431,
                0.4279, kFilteredSaturates),
      deviation(table2("true", "4", "gating", "combined gain"), 0.2257,
                0.2277, kFilteredSaturates),
      deviation(table2("true", "4", "gating", "mean delta_max"), 2.53, 2.201,
                kFilteredSaturates, kDeadlineDrift),
      // Fig. 6.
      deviation(fig6("gating", "0", "delta_max=4 share"), 0.333, 1.0,
                kUnconstrained),
      deviation(fig6("gating", "2", "delta_max=4 share"), 0.0648, 0.4265,
                shape),
      deviation(fig6("gating", "4", "delta_max=4 share"), 0.023, 0.3216,
                shape),
      deviation(fig6("offload", "0", "combined gain"), 0.886, 0.8679,
                kUnconstrained),
      deviation(fig6("offload", "2", "combined gain"), 0.246, 0.4820, shape),
      deviation(fig6("offload", "4", "combined gain"), 0.168, 0.4037, shape),
      deviation(fig6("gating", "0", "combined gain"), 0.429, 0.3568,
                kUnconstrained),
      deviation(fig6("gating", "2", "combined gain"), 0.175, 0.2480, shape),
      deviation(fig6("gating", "4", "combined gain"), 0.119, 0.2094, shape),
  };
}

TEST(PaperClaims, PublishedNumbers) {
  for (const Claim& claim : claims()) {
    const double v = value(claim.ref);
    if (claim.reason == nullptr) {
      EXPECT_NEAR(v, claim.paper, claim.tolerance)
          << describe(claim.ref) << " is pinned to the paper";
    } else {
      EXPECT_NEAR(v, claim.current, claim.tolerance)
          << describe(claim.ref) << " moved (paper " << claim.paper
          << "; known deviation: " << claim.reason
          << "); re-record `current` as a declared change";
    }
  }
}

}  // namespace
}  // namespace seo
