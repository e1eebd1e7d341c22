// Scenario configuration — one struct capturing everything a test run
// needs, mirroring the paper's experimental setup (section VI-A): a 100 m
// road with obstacles in the final third, two ResNet-152 detector pipelines
// at p = tau and p = 2*tau, a critical (Lambda'') state-estimation
// pipeline, tau = 20 ms, and the PX2/Wi-Fi performance characterization.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "control/hybrid_policy.hpp"
#include "core/model_registry.hpp"
#include "dynamics/bicycle.hpp"
#include "dynamics/motion.hpp"
#include "dynamics/obstacle.hpp"
#include "dynamics/road.hpp"
#include "energy/power_model.hpp"
#include "net/edge_cluster.hpp"
#include "net/offload_link.hpp"
#include "safety/deadline_table.hpp"
#include "safety/safe_interval.hpp"
#include "safety/safety_filter.hpp"
#include "sensors/detector.hpp"
#include "util/rng.hpp"

namespace seo {

/// Which energy-optimization method Omega the optimizable subset uses.
enum class OptimizerMode {
  kNone,     ///< always-local baseline (no optimization)
  kGating,   ///< model/sensor gating (paper section V-B)
  kOffload,  ///< task offloading (paper section V-A)
  kScaled,   ///< model scaling: a cheaper model variant runs in opt slots
             ///< (the paper's related-work "scaled/gated" family [4], [12])
};

const char* to_string(OptimizerMode mode);

/// The safe-interval evaluator the deadline table T(x,u) is built from:
/// always the closed-form certificate (paper III-B).  No scenario key sets
/// it; the one value stays because perfbench/common.cpp checks it.
enum class TableSource {
  kLipschitz,
};

/// Fleet-level shape of a scenario: how many vehicles share the edge
/// cluster and how their uplink streams interact on the shared channel
/// (consumed by run_fleet_experiment; a plain single-vehicle experiment
/// ignores these fields).
struct FleetParams {
  int vehicles = 4;
  /// Vehicle v's episode clock is shifted by v * stagger_s in the shared
  /// timeline, modeling desynchronized ignition/boot times.  0 means every
  /// vehicle's base periods align — the worst case for burst arrivals.
  double stagger_s = 0.0;
  /// Shared-channel contention: an uplink that starts while c others are in
  /// flight transmits at rate / (1 + contention_alpha * c).  0 disables
  /// contention (orthogonal channels).
  double contention_alpha = 0.0;
};

struct ScenarioConfig {
  // Timing (paper: tau = 20 ms default, 25 ms for Table I).
  double tau_s = 0.02;
  int deadline_cap = 4;

  // Route and risk level.
  RoadParams road{};
  int obstacle_count = 3;
  double obstacle_region = 1.0 / 3.0;  ///< final fraction of the route
  double obstacle_lateral_max = 1.5;   ///< |y| placement bound [m]
  double obstacle_radius = 0.8;
  double min_obstacle_gap = 6.0;       ///< min longitudinal spacing [m]

  // Dynamic environment (extension; the paper evaluates static obstacles).
  bool moving_obstacles = false;
  double obstacle_osc_amplitude = 1.2; ///< lateral pacing half-range [m]
  double obstacle_osc_period = 4.0;    ///< pacing period [s]
  double obstacle_drift_speed = 0.0;   ///< longitudinal drift [m/s]

  // Control / safety configuration.
  bool filtered = true;                ///< safety filter active?
  OptimizerMode mode = OptimizerMode::kGating;
  double initial_speed = 6.0;
  double max_episode_s = 40.0;
  int physics_substeps = 4;
  bool use_lookup_table = true;        ///< probe T(x,u) vs. exact evaluator
  /// Evaluator the deadline table (or the exact fallback) derives from.
  TableSource table_source = TableSource::kLipschitz;
  /// Reuse content-identical deadline tables across episodes through the
  /// process-wide table store (safety/table_cache.hpp over
  /// core/artifact_store.hpp).  Execution knob only: results are
  /// bit-identical with the cache on or off.
  bool table_cache = true;

  // Components.
  BicycleParams vehicle{};
  BarrierConfig barrier{};
  SafetyFilterConfig filter{};
  LipschitzIntervalConfig interval{};
  DeadlineTableConfig table{};
  HybridPolicyConfig policy{};
  DetectorConfig detector{};
  OffloadLinkParams link{};
  double channel_scale_mbps = 20.0;    ///< Rayleigh scale (paper VI-A)
  /// While offloading is judged infeasible, send one small probe
  /// transmission every this many intervals so delta-hat can recover when
  /// the channel does (0 disables probing).  The observed probe rate is
  /// scaled to full-frame size before feeding the estimator.
  int offload_probe_interval = 8;
  double offload_probe_bytes = 2048.0;
  /// When true, offloads are served by an explicit queueing EdgeServer
  /// (burst arrivals serialize) instead of a fixed server latency.
  bool use_edge_server = false;
  EdgeServerParams edge_server{};
  PlatformPowerModel platform{};

  // Fleet / edge-cluster shape (run_fleet_experiment; see fleet_experiment.hpp).
  FleetParams fleet{};
  EdgeClusterParams cluster{};

  // Pipelines (Lambda = Lambda' + Lambda'').
  std::vector<PipelineConfig> pipelines;

  // Scaled-model optimizer (OptimizerMode::kScaled): the cheaper variant
  // run during optimization slots, and its output-quality degradation.
  PerceptionModelSpec scaled_model = resnet50_px2();
  double scaled_noise_factor = 4.0;    ///< position-noise multiplier
  double scaled_dropout = 0.05;        ///< missed-detection probability

  std::uint64_t seed = 1;
};

/// The paper's default rig: two optimizable ZED-camera + ResNet-152
/// detectors at p = tau and p = 2*tau, plus a critical VAE state-estimation
/// pipeline at p = tau.
ScenarioConfig default_scenario(double tau_s = 0.02);

/// Places `config.obstacle_count` obstacles in the final
/// `config.obstacle_region` fraction of the road, deterministically from
/// `rng`: jittered even longitudinal spacing, uniform lateral offsets.
/// Guarantees (see tests/test_scenario_library.cpp property suite): every
/// center lies inside the region band with |y| <= obstacle_lateral_max, and
/// consecutive longitudinal gaps are >= min_obstacle_gap whenever that many
/// obstacles fit in the band (otherwise the gap degrades to even packing).
ObstacleField make_obstacles(const ScenarioConfig& config, Rng& rng);

/// Same placement, but each obstacle paces laterally (and optionally
/// drifts longitudinally) per the scenario's dynamic-environment knobs.
MovingObstacleField make_moving_obstacles(const ScenarioConfig& config,
                                          Rng& rng);

}  // namespace seo
