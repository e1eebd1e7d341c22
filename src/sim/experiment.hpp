// Experiment harness: runs many episodes of a scenario (with per-episode
// seeds) and aggregates schedule tallies, deadline histograms and driving
// metrics — the paper's "average from 25 test runs in which the agent
// successfully completed the route without any collisions".
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "energy/report.hpp"
#include "sim/simulation.hpp"

namespace seo {

struct ExperimentConfig {
  ScenarioConfig scenario;
  int episodes = 25;            ///< successful episodes to accumulate
  std::uint64_t base_seed = 1000;
  int max_attempts = 250;       ///< give up after this many total episodes
  bool require_success = true;  ///< only aggregate collision-free completions
  /// Optional per-episode trace tap: invoked for every *consumed* attempt
  /// (successful or not), in attempt order, with that attempt's seed,
  /// result and full trace.  The trace reference is a reused buffer: the
  /// tap must serialize or copy, never retain it.
  std::function<void(std::uint64_t seed, const EpisodeResult& episode,
                     const EpisodeTrace& trace)>
      trace_tap;
};

/// Per-pipeline aggregate across episodes.
struct PipelineAggregate {
  std::string name;
  int delta = 1;
  SensorSpec sensor;
  PerceptionModelSpec model;
  PerceptionModelSpec scaled_model;  ///< variant used by kScaled mode
  PipelineTally tally{4};
  std::uint64_t offload_submitted = 0;
};

struct ExperimentResult {
  int episodes_used = 0;
  int attempts = 0;
  int failures = 0;    ///< episodes excluded from the aggregate (0 when
                       ///< require_success is off; otherwise the sum of
                       ///< the three outcome counters below)
  int collisions = 0;  ///< episodes that hit an obstacle
  int off_roads = 0;   ///< episodes that left the drivable band
  int timeouts = 0;    ///< episodes that ran out the clock

  std::vector<PipelineAggregate> pipelines;
  IntHistogram deadline_hist;
  std::uint64_t intervals = 0;
  std::uint64_t unconstrained_intervals = 0;

  RunningStats avg_speed;
  RunningStats duration_s;
  RunningStats min_h;
  std::uint64_t filter_engagements = 0;

  /// Mean effective delta_max over all intervals (paper Table II column).
  double mean_delta_max() const { return deadline_hist.mean(); }

  /// Model-only energy comparison for pipeline `i` (Fig. 5 / Tables I-II).
  EnergyComparison pipeline_model_energy(std::size_t i,
                                         const PlatformPowerModel& pm) const;
  /// Combined (all Lambda' pipelines) model-only energy comparison.
  EnergyComparison combined_model_energy(const PlatformPowerModel& pm) const;
};

/// Runs the experiment: attempt k uses seed base_seed + k, serially, until
/// `episodes` are aggregated or `max_attempts` are spent.  Deterministic
/// for a fixed config.  Parallelism lives a level up, in run_sweep.
ExperimentResult run_experiment(const ExperimentConfig& config);

}  // namespace seo
