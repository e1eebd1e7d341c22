// Fleet experiment — V vehicles sharing one edge cluster.
//
// The single-vehicle experiment (experiment.hpp) answers the paper's
// question: what does safety-aware optimization save one client?  The fleet
// experiment answers the deployment question the ROADMAP points at: what
// happens when a whole fleet offloads into the same rack — shared-channel
// contention on the uplink, dispatch policy and batching at the cluster,
// queueing and shedding under saturation.
//
// One scheduler, no phase barrier, deterministic:
//
//  - Episodes.  Every (round, vehicle) pair is an independent episode fully
//    determined by seed base_seed + index.  Up to `threads` runners claim
//    episode slots one at a time from a shared cursor (the sweep runners'
//    shape) and write index-addressed slots.  Each episode records its
//    offload uplink stream (sim/trace.hpp OffloadEvent) with the
//    uncontended channel draws.
//  - Cluster replay, per round, as soon as the round's last episode ends:
//    the runner that finishes it replays the round while the others keep
//    driving.  Every vehicle's uplink stream is shifted by its stagger
//    offset and merged into one timeline; uplinks are re-timed under
//    shared-channel contention (rate divided by 1 + alpha * concurrent
//    uplinks), then the arrival-ordered request trace runs through the
//    EdgeCluster discrete-event model.  A request misses its deadline when
//    the cluster sheds it or its response lands after the freshness bound
//    the episode loop itself uses (core/strategy.hpp
//    offload_freshness_bound_s).  The replay keeps one compact record per
//    outcome and frees the round's uplink logs.
//  - Fold (serial).  Per-vehicle episode aggregates in slot order, then the
//    rounds in round order and each round's outcomes in outcome order, so
//    every `threads` value reproduces the serial run byte-for-byte.
//
// The replay is an audit, not a feedback loop: episode control decisions
// use the single-vehicle latency model, and the replay measures what the
// same transmissions would have experienced under fleet load.  That keeps
// the episodes embarrassingly parallel while still exposing the
// cluster-level effects (contention, batching, shedding) the dispatch
// policies trade off.
//
// A sweep of fleet points (SweepConfig::rounds >= 1, `sweep --rounds N`)
// runs one fleet experiment per grid point.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "net/edge_cluster.hpp"
#include "sim/experiment.hpp"
#include "util/stats.hpp"

namespace seo {

struct FleetExperimentConfig {
  ScenarioConfig scenario;   ///< includes scenario.fleet and scenario.cluster
  int rounds = 1;            ///< independent fleet rounds to aggregate
  std::uint64_t base_seed = 1000;
  /// Episode parallelism: 1 = serial (default), 0 = all hardware threads,
  /// n = up to n episodes in flight.  Results are identical for every value.
  int threads = 1;
  /// Optional per-slot trace tap, shaped like ExperimentConfig::trace_tap:
  /// invoked once for every episode slot (round * vehicles + vehicle) with
  /// its seed (base_seed + slot), result and full trace.  Calls arrive
  /// concurrently from pool threads in no particular order, so the tap
  /// keys its output by slot; the trace reference is a reused buffer the
  /// tap must serialize or copy, never retain.  An exception the tap
  /// throws is rethrown by run_fleet_experiment.
  std::function<void(std::uint64_t seed, const EpisodeResult& episode,
                     const EpisodeTrace& trace)>
      trace_tap;
};

/// Per-vehicle aggregate across rounds.
struct FleetVehicleStats {
  int vehicle = 0;
  int episodes = 0;
  int completions = 0;
  int collisions = 0;
  int off_roads = 0;
  int timeouts = 0;
  std::uint64_t filter_engagements = 0;  ///< safety interventions
  RunningStats avg_speed;

  std::uint64_t offloads = 0;         ///< full-frame requests to the cluster
  std::uint64_t probes = 0;           ///< channel probes (load only)
  std::uint64_t deadline_misses = 0;  ///< full frames shed or answered late
  std::uint64_t shed = 0;             ///< full frames the cluster rejected
  RunningStats response_s;            ///< admitted full-frame round trips

  double energy_actual_j = 0.0;
  double energy_baseline_j = 0.0;

  double miss_rate() const {
    return offloads > 0 ? static_cast<double>(deadline_misses) /
                              static_cast<double>(offloads)
                        : 0.0;
  }
};

struct FleetResult {
  int vehicles = 0;
  int rounds = 0;
  std::vector<FleetVehicleStats> per_vehicle;
  ClusterStats cluster;          ///< merged over rounds
  RunningStats response_s;       ///< fleet-wide admitted full-frame responses

  std::uint64_t offloads() const;
  std::uint64_t deadline_misses() const;
  std::uint64_t shed() const;
  std::uint64_t filter_engagements() const;
  int collisions() const;
  double miss_rate() const;
  EnergyComparison energy() const;
};

/// Runs the fleet experiment.  Deterministic for a fixed config,
/// independent of `config.threads`.
FleetResult run_fleet_experiment(const FleetExperimentConfig& config);

/// Scalar metrics for one fleet result — the row shape grid reports use
/// (names and values in matching order, like sweep_report's).
std::vector<std::string> fleet_metric_names();
std::vector<double> fleet_metrics(const FleetResult& result);

/// Per-vehicle CSV (one line per vehicle) — the fleet-summary artifact.
std::string fleet_vehicle_csv(const FleetResult& result);

/// Short-horizon overrides (scenario_io keys) shared by the fleet smoke
/// grid (sweep.hpp fleet_smoke_sweep) and tests/test_fleet.cpp's golden
/// fingerprints: 45 m route, small lookup table, 3 vehicles.  One
/// definition, so the grid CI byte-compares and the workload the tests pin
/// can never drift apart.
std::vector<std::pair<std::string, std::string>> fleet_short_horizon();

}  // namespace seo
