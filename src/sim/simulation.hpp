// One closed-loop episode of the paper's Algorithm 1: state estimation ->
// control -> safety filtering -> deadline sampling -> safety-aware
// optimization of the Lambda' pipelines, with full energy tallying.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "energy/report.hpp"
#include "energy/tally.hpp"
#include "sim/scenario.hpp"
#include "sim/trace.hpp"
#include "util/stats.hpp"

namespace seo {

/// Per-pipeline outcome of one episode.
struct PipelineResult {
  std::string name;
  int delta = 1;                   ///< discretized period delta_i
  PipelineTally tally{4};
  /// Uplinks transmitted (frames and probes).  Remote results applied and
  /// late-response fallbacks are the tally's remote_applied and
  /// local_fallback counts.
  std::uint64_t offload_submitted = 0;
};

/// Everything one episode produces.
struct EpisodeResult {
  // Outcome flags.
  bool completed = false;  ///< reached the end of the route
  bool collided = false;
  bool off_road = false;
  bool timed_out = false;
  bool success() const { return completed && !collided && !off_road; }

  // Driving metrics.
  double duration_s = 0.0;
  double progress_m = 0.0;
  double avg_speed = 0.0;
  double min_h = 0.0;            ///< worst barrier value along the run
  std::uint64_t filter_engagements = 0;
  /// Sum of FilterDecision::rollout_steps over the episode: the filter's
  /// deterministic work count.  Not part of any report or trace.
  std::uint64_t filter_rollout_steps = 0;
  /// Sum of FilterDecision::barrier_trig_evals over the episode; like
  /// filter_rollout_steps, never part of a report or trace.
  std::uint64_t barrier_trig_evals = 0;

  // Deadline metrics (paper Fig. 6 / Table II).
  IntHistogram deadline_hist;    ///< effective delta_max per interval
  std::uint64_t intervals = 0;
  std::uint64_t unconstrained_intervals = 0;
  double mean_delta_max() const { return deadline_hist.mean(); }

  // Energy metrics.
  std::vector<PipelineResult> pipelines;  ///< Lambda' only
};

/// Runs one episode of `config`.  Deterministic for a fixed config
/// (including seed).  When `trace` is non-null, a per-base-period telemetry
/// sample is appended to it.
EpisodeResult run_episode(const ScenarioConfig& config,
                          EpisodeTrace* trace = nullptr);

/// Content digest of the deadline table run_episode would consult for
/// `config` — derived through the exact key construction run_episode uses
/// (including the moving-obstacle environment_speed raise, which samples
/// the world from `config.seed`).  0 when the episode consults no cached
/// table (lookup table or cache off), i.e. nothing is shareable.  The
/// sweep scheduler groups grid points by this digest so geometry-sharing
/// siblings land warm; grouping is a scheduling hint only — a mismatch
/// costs warmth, never correctness.
std::uint64_t scenario_table_digest(const ScenarioConfig& config);

/// Combined Lambda'-pipeline model energy of one episode under `config`'s
/// platform power model — the per-episode analogue of
/// ExperimentResult::combined_model_energy, shared by the fleet aggregator
/// and the trace-stream episode summaries.
EnergyComparison episode_model_energy(const ScenarioConfig& config,
                                      const EpisodeResult& episode);

/// The episode-end summary a trace stream carries for `episode` (outcome
/// flags, driving metrics, combined model energy).
TraceEpisodeSummary summarize_episode(const ScenarioConfig& config,
                                      const EpisodeResult& episode);

}  // namespace seo
