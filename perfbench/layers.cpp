#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <mutex>
#include <queue>
#include <sstream>
#include <stdexcept>

#include "control/hybrid_policy.hpp"
#include "core/model_registry.hpp"
#include "core/runtime.hpp"
#include "core/strategy.hpp"
#include "net/edge_cluster.hpp"
#include "net/response_estimator.hpp"
#include "sim/fleet_experiment.hpp"
#include "sim/simulation.hpp"
#include "sim/sweep_report.hpp"
#include "sim/trace.hpp"
#include "sim/world.hpp"
#include "util/numeric.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace perfbench {

namespace {

using namespace seo;
namespace fs = std::filesystem;

/// Timed repetitions of each per-layer batch; the median total is kept.
constexpr int kLayerReps = 5;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_state(const VehicleState& a, const Vec2& position, double heading,
                double speed) {
  return same_bits(a.position.x, position.x) &&
         same_bits(a.position.y, position.y) && same_bits(a.heading, heading) &&
         same_bits(a.speed, speed);
}

template <typename F>
double median_seconds(int reps, F&& body) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    body();
    samples.push_back(seconds_since(start));
  }
  return median(samples);
}

// --- Episode replay ----------------------------------------------------------

/// The World run_episode builds for `config`: obstacles from the first split
/// of the seed's master stream.
World make_world(const ScenarioConfig& config) {
  Rng master(config.seed);
  Rng obstacle_rng = master.split();
  VehicleState initial;
  initial.speed = config.initial_speed;
  const Road road(config.road);
  const BicycleModel model(config.vehicle);
  if (config.moving_obstacles)
    return World(road, make_moving_obstacles(config, obstacle_rng), model,
                 initial, config.barrier.body_radius);
  return World(road, make_obstacles(config, obstacle_rng), model, initial,
               config.barrier.body_radius);
}

/// One replayed base period: the exact state the episode loop saw.
struct Tick {
  VehicleState state;
  ObstacleField field;
  Control applied;  ///< recorded post-filter control
  double now = 0.0;
};

struct Replay {
  ScenarioConfig config;
  EpisodeResult result;
  std::vector<Tick> ticks;
  std::string error;  ///< empty when the replay matched bit-for-bit
};

/// Records `config` through run_episode, then rebuilds its World and drives
/// it with the recorded controls, checking every state on the way.
Replay record_and_replay(const ScenarioConfig& config) {
  Replay replay;
  replay.config = config;
  EpisodeTrace trace;
  replay.result = run_episode(config, &trace);

  World world = make_world(config);
  const Barrier barrier(config.barrier);
  for (const TraceSample& s : trace.samples()) {
    const VehicleState x = world.state();
    if (world.terminal()) {
      replay.error = "world ended before the recording did";
      return replay;
    }
    if (!same_state(x, s.position, s.heading, s.speed)) {
      replay.error = "state diverges at t=" + format_double(s.t);
      return replay;
    }
    if (!same_bits(barrier.value(x, world.obstacles()), s.barrier_h)) {
      replay.error = "barrier value diverges at t=" + format_double(s.t);
      return replay;
    }
    replay.ticks.push_back(
        Tick{x, world.obstacles(), Control{s.steering, s.throttle}, s.t});
    world.apply(replay.ticks.back().applied, config.tau_s,
                config.physics_substeps);
  }
  const EpisodeResult& r = replay.result;
  const bool end_matches =
      same_bits(world.time(), r.duration_s) &&
      same_bits(world.road().progress(world.state().position), r.progress_m) &&
      world.finished() == r.completed && world.collided() == r.collided &&
      world.off_road() == r.off_road && world.terminal() == !r.timed_out;
  if (!end_matches) replay.error = "final state differs from the recording";
  return replay;
}

// --- Layer inputs ------------------------------------------------------------

std::unique_ptr<OptimizationStrategy> make_strategy(OptimizerMode mode) {
  switch (mode) {
    case OptimizerMode::kNone: return std::make_unique<LocalOnlyStrategy>();
    case OptimizerMode::kGating: return std::make_unique<GatingStrategy>();
    case OptimizerMode::kScaled: return std::make_unique<ScaledStrategy>();
    case OptimizerMode::kOffload: return std::make_unique<OffloadStrategy>();
  }
  throw std::runtime_error("unknown optimizer mode");
}

/// The random streams run_episode hands its policy and detectors, split
/// off the seed's master stream in run_episode's order.
struct Streams {
  Rng policy;
  std::vector<Rng> detectors;
  std::vector<Rng> scaled;
};

Streams make_streams(const ScenarioConfig& config, std::size_t pipes) {
  Rng master(config.seed);
  master.split();  // obstacles
  Streams streams{master.split(), {}, {}};
  master.split();  // offload link
  for (std::size_t k = 0; k < pipes; ++k) {
    // run_episode passes both detector streams as arguments of one call,
    // which this compiler evaluates right to left.
    streams.scaled.push_back(master.split());
    streams.detectors.push_back(master.split());
  }
  return streams;
}

/// The perception side of the episode loop: the optimizable pipelines'
/// detectors and the delta-hat estimators the offload hooks read.
struct Perception {
  std::vector<SyntheticDetector> detectors;
  std::vector<SyntheticDetector> scaled;
  std::vector<ResponseEstimator> estimators;
  std::vector<DetectionSet> latest;
  std::vector<int> deltas;

  Perception(const ScenarioConfig& config, const Streams& streams) {
    const TimeBase time(config.tau_s);
    const ModelRegistry registry(config.pipelines, time);
    DetectorConfig scaled_config = config.detector;
    scaled_config.position_noise *= config.scaled_noise_factor;
    scaled_config.dropout_prob = config.scaled_dropout;
    const double mean_rate_bps = units::mbps(config.channel_scale_mbps) *
                                 std::sqrt(std::acos(-1.0) / 2.0);
    const auto& optimizable = registry.optimizable();
    for (std::size_t k = 0; k < optimizable.size(); ++k) {
      const PipelineConfig& pc = registry.at(optimizable[k]);
      detectors.emplace_back(config.detector, streams.detectors.at(k));
      scaled.emplace_back(scaled_config, streams.scaled.at(k));
      estimators.emplace_back(units::bits(pc.sensor.frame_bytes) /
                                  mean_rate_bps +
                              config.link.server_latency_s +
                              config.link.downlink_latency_s);
      latest.emplace_back();
    }
    deltas = registry.optimizable_deltas();
  }
};

std::size_t optimizable_pipes(const ScenarioConfig& config) {
  return ModelRegistry(config.pipelines, TimeBase(config.tau_s))
      .optimizable()
      .size();
}

/// A SeoRuntime wired as run_episode wires it.  The offload hooks see the
/// prior delta-hat and never a fresh remote result: the replay does not
/// model the link, so offload rigs' directives may differ from the
/// recording while their states stay exact.
std::unique_ptr<SeoRuntime> make_runtime(
    const ScenarioConfig& config, const Perception& perception,
    std::function<DeadlineSample()> sample_deadline) {
  SeoRuntime::Hooks hooks;
  hooks.sample_deadline = std::move(sample_deadline);
  if (config.mode == OptimizerMode::kOffload) {
    const double tau = config.tau_s;
    hooks.estimate_periods = [&perception, tau](std::size_t i) {
      return perception.estimators[i].estimate_periods(tau);
    };
    hooks.remote_fresh = [](std::size_t) { return false; };
  }
  return std::make_unique<SeoRuntime>(
      SeoRuntime::Config{TimeBase(config.tau_s), config.deadline_cap,
                         perception.deltas},
      make_strategy(config.mode), std::move(hooks));
}

enum class DetectKind { kLocal, kScaled, kTransmit };

struct DetectCall {
  std::size_t tick = 0;
  std::size_t pipe = 0;
  DetectKind kind = DetectKind::kLocal;
};

/// Every layer call of one replayed episode, recorded in loop order so each
/// layer can later be re-run alone on identical inputs.
struct LayerInputs {
  std::vector<DeadlineSample> samples;                // per deadline eval
  std::vector<std::pair<std::size_t, Control>> evals;  // (tick, last control)
  std::vector<DetectCall> detects;
  std::vector<PolicyObservation> observations;  // per tick
  std::vector<Control> raw;                     // policy output per tick
  std::uint64_t directives = 0;
  std::uint64_t control_matches = 0;  ///< ticks whose filtered raw == recorded
};

void run_detect(Perception& perception, const Tick& tick,
                const DetectCall& call) {
  switch (call.kind) {
    case DetectKind::kLocal:
      perception.detectors[call.pipe].detect_into(
          tick.state, tick.field, tick.now, perception.latest[call.pipe]);
      break;
    case DetectKind::kScaled:
      perception.scaled[call.pipe].detect_into(tick.state, tick.field,
                                               tick.now,
                                               perception.latest[call.pipe]);
      break;
    case DetectKind::kTransmit:
      // Offloaded frame: the result travels over the link, which the
      // replay does not model.
      perception.detectors[call.pipe].detect(tick.state, tick.field, tick.now);
      break;
  }
}

/// Runs the episode loop's layer calls on the replayed states.  The
/// recorded observations point at `road`, which must outlive them.
LayerInputs collect_inputs(const Replay& replay, const Road& road,
                           const SafeIntervalEvaluator& deadline_source,
                           const SafetyFilter& filter,
                           const BicycleModel& model) {
  const ScenarioConfig& config = replay.config;
  LayerInputs in;
  Streams streams = make_streams(config, optimizable_pipes(config));
  Perception perception(config, streams);
  HybridPolicy policy(config.policy, config.vehicle, streams.policy);

  std::size_t t = 0;
  Control last_control{};
  auto runtime = make_runtime(config, perception, [&]() -> DeadlineSample {
    const Tick& tick = replay.ticks[t];
    const SafeInterval si =
        deadline_source.evaluate(tick.state, last_control, tick.field);
    in.evals.emplace_back(t, last_control);
    in.samples.push_back(DeadlineSample{si.constrained, si.delta_max_s});
    return in.samples.back();
  });

  std::vector<int> infeasible_streak(perception.detectors.size(), 0);
  SeoRuntime::TickReport report;
  for (t = 0; t < replay.ticks.size(); ++t) {
    const Tick& tick = replay.ticks[t];
    runtime->tick_into(report);
    if (report.interval_started && config.mode == OptimizerMode::kOffload &&
        config.offload_probe_interval > 0) {
      for (std::size_t k = 0; k < infeasible_streak.size(); ++k) {
        if (runtime->pipeline_offload_feasible(k)) {
          infeasible_streak[k] = 0;
        } else if (++infeasible_streak[k] % config.offload_probe_interval ==
                   0) {
          in.detects.push_back({t, k, DetectKind::kTransmit});
          run_detect(perception, tick, in.detects.back());
        }
      }
    }
    for (const auto& directive : report.directives) {
      DetectCall call{t, directive.pipeline, DetectKind::kLocal};
      bool detects = true;
      switch (directive.action) {
        case FrameAction::kRunLocal: break;
        case FrameAction::kGate: detects = false; break;
        case FrameAction::kRunScaled: call.kind = DetectKind::kScaled; break;
        case FrameAction::kOffload:
        case FrameAction::kApplyRemote: call.kind = DetectKind::kTransmit; break;
      }
      if (detects) {
        in.detects.push_back(call);
        run_detect(perception, tick, call);
      }
      runtime->record(directive, 0.0);
      ++in.directives;
    }

    PolicyObservation obs;
    obs.state = tick.state;
    obs.road = &road;
    obs.time_s = tick.now;
    double newest = -std::numeric_limits<double>::infinity();
    for (const DetectionSet& set : perception.latest) {
      if (!set.valid) continue;
      newest = std::max(newest, set.frame_time);
      obs.detections.insert(obs.detections.end(), set.detections.begin(),
                            set.detections.end());
    }
    obs.detection_age_s = newest > 0.0 ? tick.now - newest : 0.0;
    const Control raw = policy.act(obs);
    const Control applied = config.filtered
                                ? filter.filter(tick.state, tick.field, raw).control
                                : model.clamp(raw);
    if (same_bits(applied.steering, tick.applied.steering) &&
        same_bits(applied.throttle, tick.applied.throttle))
      ++in.control_matches;
    in.observations.push_back(std::move(obs));
    in.raw.push_back(raw);
    last_control = tick.applied;
  }
  return in;
}

// --- Layer timing ------------------------------------------------------------

/// Summed over replays: calls and median busy seconds per layer.
struct LayerTotals {
  std::uint64_t ticks = 0;
  std::uint64_t filter_calls = 0;
  std::uint64_t filter_engaged = 0;
  std::uint64_t deadline_evals = 0;
  std::uint64_t detect_calls = 0;
  std::uint64_t control_matches = 0;
  double runtime_s = 0.0;
  double detect_s = 0.0;
  double act_s = 0.0;
  double filter_s = 0.0;
  double barrier_s = 0.0;
  double deadline_s = 0.0;
  double apply_s = 0.0;
  double episode_s = 0.0;        ///< untraced run_episode of the same episodes
  double episode_fixed_s = 0.0;  ///< one-tick run_episode, per episode
  std::vector<double> fixed_samples;
  std::vector<std::string> errors;
};

void time_layers(const Replay& replay, LayerTotals& totals) {
  const ScenarioConfig& config = replay.config;
  const DeadlineTableKey key = lipschitz_key(config);
  if (key.digest() != scenario_table_digest(config)) {
    totals.errors.push_back("rebuilt table key differs from "
                            "scenario_table_digest");
    return;
  }
  const auto table = DeadlineTableCache::global().get(
      key, ArtifactDiskOptions{}, [&] { return build_table(config, key); });
  const Road road(config.road);
  const LipschitzSafeInterval exact(key.interval, Barrier(config.barrier),
                                    road);
  const SafeIntervalEvaluator& deadline_source =
      config.use_lookup_table ? static_cast<const SafeIntervalEvaluator&>(*table)
                              : exact;
  const BicycleModel model(config.vehicle);
  const Barrier barrier(config.barrier);
  const SafetyFilter filter(config.filter, model, barrier, road);

  const LayerInputs in =
      collect_inputs(replay, road, deadline_source, filter, model);
  const auto& ticks = replay.ticks;
  const std::size_t pipes = optimizable_pipes(config);

  // Runtime self time: the deadline samples are replayed, not recomputed.
  std::uint64_t directives = 0;
  totals.runtime_s += median_seconds(kLayerReps, [&] {
    Streams streams = make_streams(config, pipes);
    const Perception perception(config, streams);
    std::size_t cursor = 0;
    auto runtime = make_runtime(config, perception,
                                [&] { return in.samples.at(cursor++); });
    SeoRuntime::TickReport report;
    directives = 0;
    for (std::size_t t = 0; t < ticks.size(); ++t) {
      runtime->tick_into(report);
      for (const auto& directive : report.directives) {
        runtime->record(directive, 0.0);
        ++directives;
      }
    }
  });
  if (directives != in.directives)
    totals.errors.push_back("runtime replay issued different directives");

  totals.detect_s += median_seconds(kLayerReps, [&] {
    Streams streams = make_streams(config, pipes);
    Perception perception(config, streams);
    for (const DetectCall& call : in.detects)
      run_detect(perception, ticks[call.tick], call);
  });

  bool act_matches = true;
  totals.act_s += median_seconds(kLayerReps, [&] {
    Streams streams = make_streams(config, pipes);
    HybridPolicy policy(config.policy, config.vehicle, streams.policy);
    for (std::size_t t = 0; t < in.observations.size(); ++t) {
      const Control u = policy.act(in.observations[t]);
      act_matches = act_matches && same_bits(u.steering, in.raw[t].steering) &&
                    same_bits(u.throttle, in.raw[t].throttle);
    }
  });
  if (!act_matches) totals.errors.push_back("policy replay is not repeatable");

  if (config.filtered) {
    std::uint64_t engaged = 0;
    totals.filter_s += median_seconds(kLayerReps, [&] {
      engaged = 0;
      for (std::size_t t = 0; t < ticks.size(); ++t)
        engaged += filter.filter(ticks[t].state, ticks[t].field, in.raw[t])
                       .engaged
                       ? 1
                       : 0;
    });
    totals.filter_calls += ticks.size();
    totals.filter_engaged += engaged;
  }

  double h_sum = 0.0;
  totals.barrier_s += median_seconds(kLayerReps, [&] {
    h_sum = 0.0;
    for (const Tick& tick : ticks) h_sum += barrier.value(tick.state, tick.field);
  });
  if (!std::isfinite(h_sum) && !ticks.empty())
    totals.errors.push_back("barrier replay produced a non-finite value");

  totals.deadline_s += median_seconds(kLayerReps, [&] {
    for (const auto& [t, control] : in.evals)
      deadline_source.evaluate(ticks[t].state, control, ticks[t].field);
  });

  totals.apply_s += median_seconds(kLayerReps, [&] {
    World world = make_world(config);
    for (const Tick& tick : ticks)
      world.apply(tick.applied, config.tau_s, config.physics_substeps);
  });

  totals.episode_s +=
      median_seconds(kLayerReps, [&] { run_episode(config); });
  ScenarioConfig one_tick = config;
  one_tick.max_episode_s = config.tau_s;
  const double fixed = median_seconds(4 * kLayerReps, [&] {
    run_episode(one_tick);
  });
  totals.episode_fixed_s += fixed;
  totals.fixed_samples.push_back(fixed);

  totals.ticks += ticks.size();
  totals.deadline_evals += in.evals.size();
  totals.detect_calls += in.detects.size();
  totals.control_matches += in.control_matches;
}

/// One replayed episode per grid point: the point's config at seed `seed`,
/// with the point's label.
std::vector<std::pair<std::string, ScenarioConfig>> replay_configs(
    std::uint64_t seed) {
  const SweepPlan plan = plan_sweep(grid_config(seed));
  std::vector<std::pair<std::string, ScenarioConfig>> configs;
  for (std::size_t i = 0; i < plan.points.size(); ++i) {
    configs.emplace_back(plan.points[i].label(), plan.resolved[i]);
    configs.back().second.seed = seed;
  }
  return configs;
}

// --- Grid spans --------------------------------------------------------------

/// Completion span of one grid point on one pool thread.
struct PointSpan {
  int worker = 0;
  double end_s = 0.0;
};

/// A dense index for the calling thread, assigned on its first call.
int worker_slot(std::atomic<int>& next) {
  thread_local int slot = -1;
  if (slot < 0) slot = next.fetch_add(1);
  return slot;
}

/// Re-encodes every episode of a validated trace with TraceStreamWriter,
/// timing only the writer calls.  Returns the encoded bytes.
std::string reencode_trace(const std::string& path, double& encode_s) {
  std::ifstream in(path, std::ios::binary);
  TraceStreamReader reader(in);
  std::ostringstream out;
  std::vector<TraceRecord> episode;
  auto start = Clock::now();
  TraceStreamWriter writer(out, reader.run_digest());
  encode_s = seconds_since(start);
  TraceRecord record;
  while (reader.next(record)) {
    episode.push_back(record);
    if (record.type != TraceRecord::Type::kEpisodeEnd) continue;
    start = Clock::now();
    for (const TraceRecord& r : episode) {
      switch (r.type) {
        case TraceRecord::Type::kEpisodeBegin: writer.begin_episode(r.episode); break;
        case TraceRecord::Type::kSample: writer.sample(r.sample); break;
        case TraceRecord::Type::kOffload: writer.offload(r.offload); break;
        case TraceRecord::Type::kEpisodeEnd: writer.end_episode(r.summary); break;
      }
    }
    encode_s += seconds_since(start);
    episode.clear();
  }
  start = Clock::now();
  writer.finish();
  encode_s += seconds_since(start);
  return out.str();
}

/// Rebuilds one fleet round's arrival-ordered cluster requests from the
/// round's per-vehicle uplink logs, as run_fleet_experiment's replay does:
/// stagger shift, shared-channel contention, arrival order.
std::vector<ClusterRequest> round_requests(
    const ScenarioConfig& scenario,
    const std::vector<std::vector<OffloadEvent>>& offloads, int round) {
  struct Uplink {
    std::size_t vehicle = 0;
    OffloadEvent event;
    double end_s = 0.0;
  };
  const int vehicles = scenario.fleet.vehicles;
  std::vector<Uplink> uplinks;
  for (int v = 0; v < vehicles; ++v) {
    const double offset = static_cast<double>(v) * scenario.fleet.stagger_s;
    for (const OffloadEvent& event :
         offloads[static_cast<std::size_t>(round * vehicles + v)]) {
      Uplink up{static_cast<std::size_t>(v), event, 0.0};
      up.event.submit_s += offset;
      up.event.deadline_s += offset;
      uplinks.push_back(up);
    }
  }
  std::stable_sort(uplinks.begin(), uplinks.end(),
                   [](const Uplink& a, const Uplink& b) {
                     if (a.event.submit_s != b.event.submit_s)
                       return a.event.submit_s < b.event.submit_s;
                     return a.vehicle < b.vehicle;
                   });
  std::priority_queue<double, std::vector<double>, std::greater<>> active;
  for (Uplink& up : uplinks) {
    while (!active.empty() && active.top() <= up.event.submit_s) active.pop();
    up.end_s = up.event.submit_s +
               up.event.tx_time_s *
                   (1.0 + scenario.fleet.contention_alpha *
                              static_cast<double>(active.size()));
    active.push(up.end_s);
  }
  std::vector<std::size_t> order(uplinks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return uplinks[a].end_s < uplinks[b].end_s;
  });
  std::vector<ClusterRequest> requests;
  for (const std::size_t i : order) {
    ClusterRequest request;
    request.id = i;
    request.vehicle = uplinks[i].vehicle;
    request.arrival_s = uplinks[i].end_s;
    if (!uplinks[i].event.probe) request.deadline_s = uplinks[i].event.deadline_s;
    requests.push_back(request);
  }
  return requests;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The traced run's result under construction: metrics in print order and
/// the tally of the profile's checks.
struct Profile {
  Outcome outcome;

  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    outcome.metrics.push_back({name, Metric{value, unit, note}});
  }
  void check(bool ok, const std::string& why) {
    ++outcome.attempted;
    if (!ok) {
      ++outcome.failed;
      fail(outcome, why);
    }
  }
};

/// What the later phases reuse from the grid phase.
struct GridProfile {
  SweepPlan plan;
  std::string report;  ///< CSV of the untraced in-process grid
  std::uint64_t episodes = 0;
};

/// sim, safety-table and util layers: a cold plan and table fill, the grid
/// untraced with the pool's counters, then the grid again with a span
/// around every point.
GridProfile profile_grid(Profile& p, const SweepConfig& config) {
  GridProfile grid;
  DeadlineTableCache::global().clear();
  auto start = Clock::now();
  grid.plan = plan_sweep(config);
  const double plan_s = seconds_since(start);
  double table_build_s = 0.0;
  const std::size_t table_builds = prefill_tables(grid.plan, table_build_s);

  ThreadPool::global().reset_stats();
  start = Clock::now();
  const std::vector<SweepRow> rows = run_sweep(config);
  const double untraced_wall = seconds_since(start);
  const ThreadPoolStats pool = ThreadPool::global().stats();
  std::ostringstream reference;
  write_sweep_report(reference, "csv", config, rows);
  grid.report = reference.str();
  for (const auto& row : rows)
    grid.episodes += static_cast<std::uint64_t>(row.result.attempts);

  const std::size_t points = grid.plan.points.size();
  std::vector<std::size_t> owned(points);
  for (std::size_t i = 0; i < points; ++i) owned[i] = i;
  std::vector<SweepRow> traced_rows(points);
  std::vector<PointSpan> spans(points);
  std::mutex spans_mutex;
  std::atomic<int> workers{0};
  start = Clock::now();
  execute_sweep_points(config, grid.plan, owned, false,
                       [&](std::size_t i, SweepRow&& row, std::string&&,
                           std::uint64_t) {
                         const double end = seconds_since(start);
                         const int worker = worker_slot(workers);
                         const std::lock_guard<std::mutex> lock(spans_mutex);
                         spans[i] = PointSpan{worker, end};
                         traced_rows[i] = std::move(row);
                       });
  const double traced_wall = seconds_since(start);
  std::ostringstream traced;
  write_sweep_report(traced, "csv", config, traced_rows);
  p.check(traced.str() == grid.report,
          "traced grid report differs from the untraced one");

  // Each worker runs its points back to back, so a point's time is the gap
  // since the previous completion on the same worker.
  std::vector<double> shard_s(static_cast<std::size_t>(workers.load()), 0.0);
  std::vector<std::size_t> by_end(points);
  for (std::size_t i = 0; i < points; ++i) by_end[i] = i;
  std::sort(by_end.begin(), by_end.end(), [&](std::size_t a, std::size_t b) {
    return spans[a].end_s < spans[b].end_s;
  });
  std::vector<double> point_s;
  for (const std::size_t i : by_end) {
    double& last = shard_s[static_cast<std::size_t>(spans[i].worker)];
    point_s.push_back(spans[i].end_s - last);
    last = spans[i].end_s;
  }
  double busy = 0.0;
  for (const double s : shard_s) busy += s;
  const double critical = *std::max_element(shard_s.begin(), shard_s.end());
  const std::string workers_note = std::to_string(shard_s.size()) + " workers";

  p.add("sim.plan_s", plan_s, "s");
  p.add("sim.points", static_cast<double>(points), "count");
  p.add("sim.point_s.p50", median(point_s), "s",
        std::to_string(points) + " points at " + std::to_string(kThreads) +
            " threads");
  p.add("sim.critical_path_s", critical, "s",
        "busiest worker's summed point time");
  p.add("sim.idle_frac", 1.0 - ratio(busy, kThreads * traced_wall), "ratio",
        "of " + std::to_string(kThreads) + " workers x traced wall");
  p.add("sim.shard_s.max", critical, "s", workers_note);
  p.add("sim.shard_s.min", *std::min_element(shard_s.begin(), shard_s.end()),
        "s", workers_note);
  p.add("sim.episodes", static_cast<double>(grid.episodes), "count");
  p.add("safety.table_builds", static_cast<double>(table_builds), "count",
        "cold fill of the grid");
  p.add("safety.table_build_s", table_build_s, "s", "summed build time");
  p.add("util.pool_tasks", static_cast<double>(pool.executed), "count");
  p.add("util.pool_steals", static_cast<double>(pool.steals), "count");
  p.add("util.pool_busy_frac", pool.busy_fraction(untraced_wall, kThreads),
        "ratio", "of " + std::to_string(kThreads) + " workers x untraced wall");
  p.add("trace_overhead_frac", ratio(traced_wall, untraced_wall), "ratio",
        "traced grid wall over untraced grid wall");
  return grid;
}

/// sim: every episode of the grid, serially, one span each.
void profile_episodes(Profile& p, const SweepConfig& config,
                      const SweepPlan& plan) {
  std::vector<double> episode_ms;
  for (const ScenarioConfig& point : plan.resolved) {
    for (int k = 0; k < config.episodes; ++k) {
      ScenarioConfig episode = point;
      episode.seed = config.base_seed + static_cast<std::uint64_t>(k);
      const auto start = Clock::now();
      run_episode(episode);
      episode_ms.push_back(seconds_since(start) * 1e3);
    }
  }
  const std::string note = std::to_string(episode_ms.size()) +
                           " serial episodes";
  p.add("sim.episode_ms.p50", median(episode_ms), "ms", note);
  p.add("sim.episode_ms.p97", percentile(episode_ms, 0.97), "ms", note);
}

/// Per-tick layers on one replayed episode of every grid point.
void profile_ticks(Profile& p, std::uint64_t seed) {
  LayerTotals totals;
  for (const auto& [label, config] : replay_configs(seed)) {
    const Replay replay = record_and_replay(config);
    p.check(replay.error.empty(), "replay of " + label + ": " + replay.error);
    if (replay.error.empty()) time_layers(replay, totals);
  }
  for (const auto& error : totals.errors) p.check(false, error);
  const double named_s = totals.runtime_s + totals.detect_s + totals.act_s +
                         totals.filter_s + totals.barrier_s +
                         totals.deadline_s + totals.apply_s +
                         totals.episode_fixed_s;
  const double ticks = static_cast<double>(totals.ticks);
  const auto per_call = [](double total_s, double calls, double unit) {
    return ratio(total_s, calls) * unit;
  };
  const double filter_calls = static_cast<double>(totals.filter_calls);
  const double deadline_evals = static_cast<double>(totals.deadline_evals);
  const double detect_calls = static_cast<double>(totals.detect_calls);

  p.add("sim.episode_fixed_us", median(totals.fixed_samples) * 1e6, "us",
        "one-tick run_episode, median over " +
            std::to_string(totals.fixed_samples.size()) + " rigs");
  p.add("safety.filter_calls", filter_calls, "count",
        "replayed ticks of filtered rigs");
  p.add("safety.filter_engaged_frac",
        ratio(static_cast<double>(totals.filter_engaged), filter_calls),
        "ratio", "of filter calls");
  p.add("safety.filter_us", per_call(totals.filter_s, filter_calls, 1e6), "us",
        "per call");
  p.add("safety.barrier_calls", ticks, "count", "one per replayed tick");
  p.add("safety.barrier_ns", per_call(totals.barrier_s, ticks, 1e9), "ns",
        "per call");
  p.add("safety.deadline_evals", deadline_evals, "count",
        "one per scheduling interval");
  p.add("safety.deadline_eval_ns",
        per_call(totals.deadline_s, deadline_evals, 1e9), "ns",
        "per table probe");
  p.add("core.runtime_tick_ns", per_call(totals.runtime_s, ticks, 1e9), "ns",
        "self time per tick, deadline probe excluded");
  p.add("sensors.detect_calls", detect_calls, "count");
  p.add("sensors.detect_ns", per_call(totals.detect_s, detect_calls, 1e9),
        "ns", "per call");
  p.add("control.act_calls", ticks, "count");
  p.add("control.act_ns", per_call(totals.act_s, ticks, 1e9), "ns",
        "per call");
  p.add("dynamics.apply_calls", ticks, "count");
  p.add("dynamics.apply_ns", per_call(totals.apply_s, ticks, 1e9), "ns",
        "per call");
  p.add("tick.unattributed_frac",
        ratio(totals.episode_s - named_s, totals.episode_s), "ratio",
        "of run_episode time on the replayed episodes");
  std::cout << "replay: " << totals.ticks << " ticks, "
            << totals.control_matches
            << " with the replayed filter output equal to the recorded "
               "control\n";
}

/// net: the fleet workload's cluster phase, rebuilt from the episodes'
/// uplink logs and timed alone.
void profile_cluster(Profile& p, std::uint64_t seed) {
  const SweepPlan plan = plan_sweep(fleet_config(seed));
  double prefill_s = 0.0;
  prefill_tables(plan, prefill_s);
  // The dispatch policy only changes the cluster replay, so every point
  // runs the same episodes.
  const ScenarioConfig& first = plan.resolved.at(0);
  const std::size_t slots = static_cast<std::size_t>(kFleetRounds) *
                            static_cast<std::size_t>(first.fleet.vehicles);
  std::vector<std::vector<OffloadEvent>> offloads(slots);
  std::vector<std::uint64_t> submits(slots, 0);
  ThreadPool::run_capped(0, slots, kThreads, [&](std::size_t lo, std::size_t hi) {
    EpisodeTrace trace;
    trace.set_capture_samples(false);
    for (std::size_t i = lo; i < hi; ++i) {
      ScenarioConfig episode = first;
      episode.seed = seed + i;
      trace.clear();
      const EpisodeResult result = run_episode(episode, &trace);
      for (const auto& pipe : result.pipelines)
        submits[i] += pipe.offload_submitted;
      offloads[i] = trace.take_offloads();
    }
  });
  std::uint64_t offload_submits = 0;
  for (const auto s : submits) offload_submits += s;
  offload_submits *= plan.resolved.size();

  double process_s = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t shed = 0;
  for (const ScenarioConfig& scenario : plan.resolved) {
    FleetExperimentConfig fleet;
    fleet.scenario = scenario;
    fleet.rounds = kFleetRounds;
    fleet.base_seed = seed;
    fleet.threads = kThreads;
    const FleetResult result = run_fleet_experiment(fleet);
    ClusterStats merged;
    for (int round = 0; round < kFleetRounds; ++round) {
      const std::vector<ClusterRequest> trace =
          round_requests(scenario, offloads, round);
      EdgeCluster cluster(scenario.cluster);
      const auto start = Clock::now();
      cluster.process(trace);
      process_s += seconds_since(start);
      merged.merge(cluster.stats());
    }
    p.check(merged.requests == result.cluster.requests &&
                merged.shed == result.cluster.shed &&
                merged.batches == result.cluster.batches,
            "rebuilt cluster requests disagree with run_fleet_experiment");
    requests += merged.requests;
    shed += merged.shed;
  }
  p.check(requests == offload_submits,
          "cluster requests differ from the episodes' offload submits");

  p.add("net.cluster_requests", static_cast<double>(requests), "count");
  p.add("net.cluster_process_s", process_s, "s",
        "EdgeCluster::process over every round");
  p.add("net.cluster_shed_frac",
        ratio(static_cast<double>(shed), static_cast<double>(requests)),
        "ratio", "of cluster requests");
  p.add("net.offload_submits", static_cast<double>(offload_submits), "count");
}

/// core artifact store and sim trace layers: one farm run on a cold
/// directory, then its trace validated and re-encoded alone.
void profile_farm(Profile& p, const Options& options, const GridProfile& grid) {
  const fs::path work = options.work_dir;
  const fs::path cache = work / "profile_cache";
  const std::string trace_path = (work / "profile.trace").string();
  const std::string report_path = (work / "profile.csv").string();
  const std::string log_path = (work / "profile.log").string();
  fs::remove_all(cache);
  fs::create_directories(cache);
  const ChildRun farm =
      run_farm(options, cache.string(), trace_path, report_path, log_path);
  p.check(farm.exit_code == 0, "farm exited with " +
                                   std::to_string(farm.exit_code) + ": " +
                                   read_file(log_path));
  std::map<std::string, double> store;
  double trace_bytes = 0.0;
  double validate_s = 0.0;
  double encode_s = 0.0;
  if (farm.exit_code == 0) {
    p.check(read_file(report_path) == grid.report,
            "farm report differs from the in-process grid report");
    store = parse_dtable_stats(read_file(log_path));
    const std::string bytes = read_file(trace_path);
    trace_bytes = static_cast<double>(bytes.size());
    const auto start = Clock::now();
    const std::uint64_t episodes =
        count_trace_episodes(trace_path, grid.plan.run_digest);
    validate_s = seconds_since(start);
    p.check(episodes == grid.episodes,
            "farm trace holds " + std::to_string(episodes) +
                " episodes, expected " + std::to_string(grid.episodes));
    p.check(reencode_trace(trace_path, encode_s) == bytes,
            "re-encoded trace differs from the farm's trace bytes");
  }
  fs::remove_all(cache);
  fs::remove(trace_path);

  p.add("sim.trace_bytes", trace_bytes, "bytes");
  p.add("sim.trace_encode_s", encode_s, "s", "TraceStreamWriter, whole trace");
  p.add("sim.trace_validate_s", validate_s, "s", "TraceStreamReader");
  for (const char* counter : {"hits", "misses", "builds", "waits",
                              "lock_waits", "disk_loads", "disk_stores"}) {
    p.add(std::string("core.artifact_") + counter, store[counter], "count",
          "farm-wide dtable store, cold directory");
  }
  p.add("core.artifact_hit_frac",
        ratio(store["hits"], store["hits"] + store["misses"]), "ratio",
        "of store lookups");
}

}  // namespace

int replay_self_test(std::uint64_t seed) {
  int failures = 0;
  for (const auto& [label, config] : replay_configs(seed)) {
    const Replay replay = record_and_replay(config);
    std::string why = replay.error;
    if (why.empty() &&
        lipschitz_key(config).digest() != scenario_table_digest(config))
      why = "rebuilt table key differs from scenario_table_digest";
    std::cout << (why.empty() ? "ok   " : "FAIL ") << label << " seed "
              << seed << ": " << replay.ticks.size() << " ticks"
              << (why.empty() ? "" : ", " + why) << "\n";
    failures += why.empty() ? 0 : 1;
  }
  std::cout << (failures == 0 ? "replay self-test passed\n"
                              : "replay self-test FAILED\n");
  return failures;
}

Outcome run_layer_profile(const Options& options) {
  Profile profile;
  const SweepConfig config = grid_config(options.seed);
  const GridProfile grid = profile_grid(profile, config);
  profile_episodes(profile, config, grid.plan);
  profile_ticks(profile, options.seed);
  profile_cluster(profile, options.seed);
  profile_farm(profile, options, grid);
  return profile.outcome;
}

}  // namespace perfbench
