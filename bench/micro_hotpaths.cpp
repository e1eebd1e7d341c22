// Ablation A5: microbenchmarks of the runtime hot paths (google-benchmark).
//
// The lookup-table probe is the operation Algorithm 1 performs at every
// interval start on the real-time control path; the paper's argument for
// T(x,u) is precisely that probing is cheap relative to evaluating phi.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>

#include "control/hybrid_policy.hpp"
#include "core/binary_io.hpp"
#include "dynamics/bicycle.hpp"
#include "safety/deadline_table.hpp"
#include "safety/safe_interval.hpp"
#include "safety/safety_filter.hpp"
#include "safety/table_cache.hpp"
#include "sensors/detector.hpp"
#include "sim/fleet_experiment.hpp"
#include "sim/scenario_io.hpp"
#include "sim/simulation.hpp"
#include "sim/sweep.hpp"
#include "sim/trace.hpp"
#include "util/config.hpp"

namespace {

using namespace seo;

ObstacleField test_field() {
  return ObstacleField({Obstacle{{20.0, 1.0}, 0.8},
                        Obstacle{{32.0, -1.2}, 0.8},
                        Obstacle{{45.0, 0.5}, 0.8}});
}

VehicleState test_state() {
  VehicleState s;
  s.position = {10.0, 0.2};
  s.heading = 0.05;
  s.speed = 8.5;
  return s;
}

void BM_BicycleStepRk4(benchmark::State& state) {
  const BicycleModel model;
  VehicleState s = test_state();
  const Control u{0.1, 0.4};
  for (auto _ : state) {
    s = model.step(s, u, 0.005);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_BicycleStepRk4);

void BM_BicycleStepEuler(benchmark::State& state) {
  const BicycleModel model;
  VehicleState s = test_state();
  const Control u{0.1, 0.4};
  for (auto _ : state) {
    s = model.step_euler(s, u, 0.005);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_BicycleStepEuler);

void BM_BarrierValue(benchmark::State& state) {
  const Barrier barrier{BarrierConfig{}};
  const ObstacleField field = test_field();
  const VehicleState s = test_state();
  for (auto _ : state) {
    benchmark::DoNotOptimize(barrier.value(s, field));
  }
}
BENCHMARK(BM_BarrierValue);

void BM_LipschitzInterval(benchmark::State& state) {
  const Barrier barrier{BarrierConfig{}};
  const LipschitzSafeInterval eval(LipschitzIntervalConfig{}, barrier);
  const ObstacleField field = test_field();
  const VehicleState s = test_state();
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.evaluate(s, Control{}, field));
  }
}
BENCHMARK(BM_LipschitzInterval);

void BM_RolloutInterval(benchmark::State& state) {
  const Barrier barrier{BarrierConfig{}};
  const RolloutSafeInterval eval(RolloutIntervalConfig{}, BicycleModel{},
                                 barrier);
  const ObstacleField field = test_field();
  const VehicleState s = test_state();
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.evaluate(s, Control{0.0, 0.3}, field));
  }
}
BENCHMARK(BM_RolloutInterval);

void BM_DeadlineTableProbe(benchmark::State& state) {
  const Barrier barrier{BarrierConfig{}};
  const LipschitzSafeInterval source(LipschitzIntervalConfig{}, barrier);
  const DeadlineTable table(DeadlineTableConfig{}, source,
                            BarrierConfig{}.body_radius);
  const ObstacleField field = test_field();
  const VehicleState s = test_state();
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.evaluate(s, Control{}, field));
  }
}
BENCHMARK(BM_DeadlineTableProbe);

void BM_SafetyFilterPass(benchmark::State& state) {
  const Barrier barrier{BarrierConfig{}};
  const SafetyFilter filter(SafetyFilterConfig{}, BicycleModel{}, barrier);
  const ObstacleField field = test_field();
  VehicleState s = test_state();
  s.position = {0.0, 0.0};  // far from obstacles: certified pass-through
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.filter(s, field, Control{0.0, 0.4}));
  }
}
BENCHMARK(BM_SafetyFilterPass);

// Within reach of the first obstacle but clear of it: the certificate
// fails and the raw rollout runs the whole horizon before passing through.
void BM_SafetyFilterPassNear(benchmark::State& state) {
  const Barrier barrier{BarrierConfig{}};
  const SafetyFilter filter(SafetyFilterConfig{}, BicycleModel{}, barrier);
  const ObstacleField field = test_field();
  const VehicleState s = test_state();
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.filter(s, field, Control{0.0, 0.4}));
  }
}
BENCHMARK(BM_SafetyFilterPassNear);

// The loop reuses one filter, so every iteration after the first measures
// the warm path: the search starts from the previous call's winner.
void BM_SafetyFilterEngaged(benchmark::State& state) {
  const Barrier barrier{BarrierConfig{}};
  const SafetyFilter filter(SafetyFilterConfig{}, BicycleModel{}, barrier);
  const ObstacleField field = test_field();
  VehicleState s = test_state();
  s.position = {16.5, 0.8};  // close + head-on: corrective search path
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.filter(s, field, Control{0.0, 0.4}));
  }
}
BENCHMARK(BM_SafetyFilterEngaged);

// An 8-obstacle dense field on a narrow road: off-road excursions decide
// many candidates, and the filter folds only the obstacles it cannot cull.
void BM_SafetyFilterEngagedRoad(benchmark::State& state) {
  const Barrier barrier{BarrierConfig{}};
  const SafetyFilter filter(SafetyFilterConfig{}, BicycleModel{}, barrier,
                            Road(RoadParams{100.0, 3.0}));
  const ObstacleField field(
      {Obstacle{{20.0, 1.0}, 0.8}, Obstacle{{27.0, -1.5}, 0.7},
       Obstacle{{32.0, 1.8}, 0.8}, Obstacle{{38.0, -0.4}, 0.9},
       Obstacle{{45.0, 1.2}, 0.8}, Obstacle{{52.0, -1.8}, 0.7},
       Obstacle{{58.0, 0.6}, 0.8}, Obstacle{{65.0, -0.9}, 0.8}});
  VehicleState s = test_state();
  s.position = {16.5, 2.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.filter(s, field, Control{0.0, 0.4}));
  }
}
BENCHMARK(BM_SafetyFilterEngagedRoad);

void BM_DetectorInference(benchmark::State& state) {
  SyntheticDetector detector(DetectorConfig{}, Rng(7));
  const ObstacleField field = test_field();
  const VehicleState s = test_state();
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.detect(s, field, 0.0));
  }
}
BENCHMARK(BM_DetectorInference);

// Threaded-vs-serial scaling of the offline table build and of the sweep
// engine's grid runners.  The rigs are sized so per-item work dominates
// the fan-out overhead (a table large enough that slab builds take
// milliseconds; a grid of eight points deep enough that claiming a point
// and merging its row is noise), so speedup on a multicore host is
// asserted, not just observed: the CI scaling gate (tools/bench_compare.py)
// requires threads:8 <= 0.6x threads:1 real time for the sweep and 0.75x
// for the table build on machines with >= 4 cores.  The gate reads the
// JSON real_time field — CPU time only measures the calling thread.
void BM_DeadlineTableBuild(benchmark::State& state) {
  const Barrier barrier{BarrierConfig{}};
  const LipschitzSafeInterval source(LipschitzIntervalConfig{}, barrier);
  DeadlineTableConfig config;
  config.distance_bins = 81;
  config.bearing_bins = 49;
  config.speed_bins = 41;
  config.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const DeadlineTable table(config, source, BarrierConfig{}.body_radius);
    benchmark::DoNotOptimize(table.cell_count());
  }
}
BENCHMARK(BM_DeadlineTableBuild)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SweepThreads(benchmark::State& state) {
  SweepConfig config;
  config.axes = {{"obstacles", {"1", "2"}},
                 {"deadline_cap", {"2", "3", "4", "8"}}};
  config.base_overrides = {{"use_lookup_table", "false"}};
  config.episodes = 4;
  config.max_attempts = 16;
  config.base_seed = 7000;
  config.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_sweep(config));
  }
}
BENCHMARK(BM_SweepThreads)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// One fleet point: the saturated rig on the short horizon, 4 rounds of 3
// vehicles.  Runners claim episode slots one at a time and each round's
// cluster replay runs on the runner that finishes the round, so the
// scaling gate (tools/bench_compare.py) holds threads:8 to a fraction of
// threads:1 as it does BM_SweepThreads.
void BM_FleetThreads(benchmark::State& state) {
  FleetExperimentConfig config;
  config.scenario = make_scenario("fleet_cluster_saturated");
  KeyValueConfig overrides;
  for (const auto& [key, value] : fleet_short_horizon())
    overrides.set(key, value);
  if (!apply_overrides(overrides, config.scenario).empty()) {
    state.SkipWithError("unknown fleet_short_horizon key");
    return;
  }
  config.rounds = 4;
  config.base_seed = 7000;
  config.threads = static_cast<int>(state.range(0));
  // Untimed warm-up: the first run builds the deadline table into the
  // process-wide store, which would otherwise land in threads:1 alone.
  benchmark::DoNotOptimize(run_fleet_experiment(config));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_fleet_experiment(config));
  }
}
BENCHMARK(BM_FleetThreads)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Process-level scaling of the distributed sweep: end-to-end wall time of
// `sweep --smoke --workers N` with single-threaded workers, so the worker
// fan-out is the only parallelism.  Every arm shells out to the real tool
// (workers:1 included) so spawn + pipe-merge overhead is inside the
// measurement on both sides of the ratio — the scaling gate
// (tools/bench_compare.py) requires workers:4 <= 0.6x workers:1 real time
// on machines with >= 4 cores.  Episodes are padded up so per-point
// episode work dominates the one table build each worker process repeats
// (the in-memory artifact store is per-process; --cache dir= would share
// it, but the benchmark must not touch the filesystem between runs).
#ifdef SEO_SWEEP_TOOL
void BM_SweepWorkers(benchmark::State& state) {
  const std::string cmd =
      std::string(SEO_SWEEP_TOOL) +
      " --smoke --episodes 8 --max-attempts 32 --threads 1 --workers " +
      std::to_string(state.range(0)) + " --output /dev/null 2>/dev/null";
  for (auto _ : state) {
    const int rc = std::system(cmd.c_str());
    if (rc != 0) {
      state.SkipWithError("sweep exited nonzero");
      break;
    }
  }
}
// UseRealTime: the work happens in child processes, so this process's CPU
// clock stays near zero — iteration scaling must follow wall time.
BENCHMARK(BM_SweepWorkers)
    ->ArgName("workers")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
#endif

// Steady-state cache hit: the lookup every episode start performs once the
// table for its geometry exists — a key fingerprint + map probe +
// shared_ptr copy, which must stay microseconds-class next to the
// millisecond-class build it replaces.
void BM_DeadlineTableCache(benchmark::State& state) {
  DeadlineTableCache cache;
  DeadlineTableKey key;
  key.table.max_distance = LipschitzIntervalConfig{}.sensing_range;
  key.body_radius = BarrierConfig{}.body_radius;
  const Barrier barrier(key.barrier);
  const LipschitzSafeInterval source(key.interval, barrier, Road(key.road));
  const auto build = [&] {
    return std::make_unique<DeadlineTable>(key.table, source,
                                           key.body_radius);
  };
  (void)cache.get(key, build);  // warm the single entry
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get(key, build));
  }
}
BENCHMARK(BM_DeadlineTableCache);

// Artifact payload parse: the cost a cold process pays per disk load
// before it can serve a table — a header check plus one contiguous copy of
// raw IEEE-754 cells.
DeadlineTable payload_bench_table() {
  DeadlineTableKey key;
  key.table.max_distance = LipschitzIntervalConfig{}.sensing_range;
  key.body_radius = BarrierConfig{}.body_radius;
  const Barrier barrier(key.barrier);
  const LipschitzSafeInterval source(key.interval, barrier, Road(key.road));
  return DeadlineTable(key.table, source, key.body_radius);
}

void BM_ArtifactPayloadParseBinary(benchmark::State& state) {
  const DeadlineTable table = payload_bench_table();
  std::string payload;
  BinaryWriter writer(payload);
  table.encode(writer);
  for (auto _ : state) {
    BinaryReader in{std::string_view(payload)};
    benchmark::DoNotOptimize(DeadlineTable::decode(in));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_ArtifactPayloadParseBinary)->Unit(benchmark::kMicrosecond);

// Sweep-level before/after on a table-dominated rig: 16 grid points whose
// short episodes are dwarfed by a large T(x,u) build.  cached:0 rebuilds
// the identical table at every episode (the pre-cache behaviour);
// cached:1 builds each distinct geometry once per sweep.  The ratio is the
// caching win the content-addressed cache exists to deliver.
void BM_SweepTableCache(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  SweepConfig config;
  config.scenarios = {"paper_default"};
  config.axes = {{"channel_mbps", {"8", "12", "16", "20"}},
                 {"deadline_cap", {"2", "3", "4", "8"}}};
  config.base_overrides = {{"road_length", "30"},
                           {"max_episode_s", "2"},
                           {"table_distance_bins", "81"},
                           {"table_bearing_bins", "49"},
                           {"table_speed_bins", "41"},
                           {"table_cache", cached ? "true" : "false"}};
  config.episodes = 1;
  config.max_attempts = 1;
  config.require_success = false;
  config.threads = 1;
  for (auto _ : state) {
    DeadlineTableCache::global().clear();  // cold store every iteration
    benchmark::DoNotOptimize(run_sweep(config));
  }
}
BENCHMARK(BM_SweepTableCache)
    ->ArgName("cached")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// A realistic streamed episode: smoke-route length sample log plus a
// modest offload stream — the unit of work both the sweep trace tap
// (serialize) and the stage tools (parse + verify) pay per episode.
EpisodeTrace bench_trace() {
  EpisodeTrace trace;
  for (int i = 0; i < 600; ++i) {
    TraceSample s;
    s.t = 0.02 * i;
    s.position = {0.12 * i, 0.01 * i};
    s.heading = 0.001 * i;
    s.speed = 6.0 + 0.001 * i;
    s.barrier_h = 5.0 - 0.002 * i;
    s.delta_max = i % 4 + 1;
    s.interval_started = i % 5 == 0;
    s.filter_engaged = i % 7 == 0;
    s.steering = -0.1 + 0.0001 * i;
    s.throttle = 0.8;
    s.detection_age_s = 0.04;
    trace.add(s);
  }
  for (int i = 0; i < 40; ++i) {
    OffloadEvent e;
    e.pipeline = static_cast<std::size_t>(i % 2);
    e.submit_s = 0.3 * i;
    e.bytes = 24576.0;
    e.tx_time_s = 0.004;
    e.deadline_s = 0.3 * i + 0.5;
    e.probe = i % 3 == 0;
    trace.add_offload(e);
  }
  return trace;
}

void BM_TraceStreamWrite(benchmark::State& state) {
  const EpisodeTrace trace = bench_trace();
  TraceEpisodeInfo info;
  info.seed = 1000;
  info.label = "paper_default channel_mbps=8";
  const TraceEpisodeSummary summary{};
  std::string block;
  for (auto _ : state) {
    block.clear();  // reuse capacity, like the sweep's per-point block
    append_trace_episode(block, info, summary, trace);
    benchmark::DoNotOptimize(block.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.size()));
}
BENCHMARK(BM_TraceStreamWrite)->Unit(benchmark::kMicrosecond);

void BM_TraceStreamRead(benchmark::State& state) {
  const EpisodeTrace trace = bench_trace();
  TraceEpisodeInfo info;
  info.seed = 1000;
  info.label = "paper_default channel_mbps=8";
  std::ostringstream out;
  TraceStreamWriter writer(out);
  writer.write_episode(info, TraceEpisodeSummary{}, trace);
  writer.finish();
  const std::string bytes = out.str();
  for (auto _ : state) {
    std::istringstream in(bytes);
    TraceStreamReader reader(in);
    TraceRecord record;
    std::uint64_t samples = 0;
    while (reader.next(record))
      if (record.type == TraceRecord::Type::kSample) ++samples;
    benchmark::DoNotOptimize(samples);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_TraceStreamRead)->Unit(benchmark::kMicrosecond);

void BM_FullEpisode(benchmark::State& state) {
  ScenarioConfig config = default_scenario();
  config.obstacle_count = 2;
  config.mode = OptimizerMode::kGating;
  for (auto _ : state) {
    config.seed = static_cast<std::uint64_t>(state.iterations());
    benchmark::DoNotOptimize(run_episode(config));
  }
}
BENCHMARK(BM_FullEpisode)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
