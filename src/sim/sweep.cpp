#include "sim/sweep.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "core/fingerprint.hpp"
#include "sim/scenario_io.hpp"
#include "sim/simulation.hpp"
#include "util/expect.hpp"
#include "util/thread_pool.hpp"

namespace seo {

std::string SweepPoint::label() const {
  std::string out = scenario;
  for (const auto& [key, value] : assignment)
    out += " " + key + "=" + value;
  return out;
}

namespace {

void validate(const SweepConfig& config) {
  SEO_EXPECT(!config.scenarios.empty());
  SEO_EXPECT(config.episodes >= 1);
  SEO_EXPECT(config.max_attempts >= config.episodes);
  SEO_EXPECT(config.rounds >= 0);
  for (const auto& name : config.scenarios)
    make_scenario(name);  // throws with the valid names on a typo
  // A point may set any scenario key but the two the sweep owns: the
  // library base (rows keep its label) and the seed (run_experiment and
  // run_fleet_experiment run episode k at base_seed + k).
  const auto check_key = [](const std::string& key, const std::string& what) {
    if (!is_scenario_key(key))
      throw ContractViolation("unknown sweep " + what + " key: " + key);
    if (key == "scenario" || key == "seed")
      throw ContractViolation(
          "'" + key + "' cannot be a sweep " + what + ": the sweep sets it " +
          (key == "seed" ? "per episode; use --seed (SweepConfig::base_seed)"
                         : "per point; use --scenarios "
                           "(SweepConfig::scenarios)"));
  };
  for (const auto& axis : config.axes) {
    SEO_EXPECT(!axis.values.empty());
    check_key(axis.key, "axis");
  }
  for (const auto& [key, value] : config.base_overrides) {
    (void)value;
    check_key(key, "override");
  }
  if (config.grid == GridMode::kPaired && !config.axes.empty()) {
    const std::size_t len = config.axes.front().values.size();
    for (const auto& axis : config.axes)
      if (axis.values.size() != len)
        throw ContractViolation(
            "paired sweep axes must share one length (axis '" + axis.key +
            "' has " + std::to_string(axis.values.size()) + ", expected " +
            std::to_string(len) + ")");
  }
}

}  // namespace

std::vector<SweepPoint> expand_grid(const SweepConfig& config) {
  validate(config);

  // Axis assignments first (identical for every scenario).
  std::vector<std::vector<std::pair<std::string, std::string>>> assignments;
  if (config.axes.empty()) {
    assignments.push_back({});
  } else if (config.grid == GridMode::kPaired) {
    const std::size_t len = config.axes.front().values.size();
    for (std::size_t i = 0; i < len; ++i) {
      std::vector<std::pair<std::string, std::string>> a;
      for (const auto& axis : config.axes)
        a.emplace_back(axis.key, axis.values[i]);
      assignments.push_back(std::move(a));
    }
  } else {
    // Cartesian product, last axis fastest (odometer order).
    assignments.push_back({});
    for (const auto& axis : config.axes) {
      std::vector<std::vector<std::pair<std::string, std::string>>> next;
      next.reserve(assignments.size() * axis.values.size());
      for (const auto& prefix : assignments) {
        for (const auto& value : axis.values) {
          auto a = prefix;
          a.emplace_back(axis.key, value);
          next.push_back(std::move(a));
        }
      }
      assignments = std::move(next);
    }
  }

  std::vector<SweepPoint> points;
  points.reserve(config.scenarios.size() * assignments.size());
  for (const auto& scenario : config.scenarios) {
    for (const auto& assignment : assignments) {
      SweepPoint p;
      p.index = points.size();
      p.scenario = scenario;
      p.assignment = assignment;
      points.push_back(std::move(p));
    }
  }
  return points;
}

SweepConfig smoke_sweep() {
  SweepConfig config;
  config.scenarios = {"paper_default", "dense_field", "lossy_channel",
                      "unfiltered_baseline"};
  config.axes = {{"channel_mbps", {"8", "20"}},
                 {"deadline_cap", {"2", "4"}}};
  // Short route + small lookup table keep the 16-point grid fast enough
  // for CI and unit tests while still exercising the full stack.
  config.base_overrides = {{"road_length", "45"},
                           {"max_episode_s", "12"},
                           {"table_distance_bins", "15"},
                           {"table_bearing_bins", "9"},
                           {"table_speed_bins", "9"}};
  config.episodes = 2;
  config.max_attempts = 8;
  config.require_success = false;
  return config;
}

SweepConfig fleet_smoke_sweep() {
  SweepConfig config;
  config.scenarios = {"fleet_cluster"};
  config.axes = {{"cluster.servers", {"1", "2"}},
                 {"cluster.dispatch", {"round_robin", "least_loaded"}},
                 {"cluster.batch_window_ms", {"0", "4"}}};
  config.base_overrides = fleet_short_horizon();
  config.rounds = 1;
  return config;
}

ScenarioConfig resolve_point(const SweepConfig& config,
                             const SweepPoint& point) {
  ScenarioConfig scenario = make_scenario(point.scenario);
  KeyValueConfig overrides;
  for (const auto& [key, value] : config.base_overrides)
    overrides.set(key, value);
  for (const auto& [key, value] : point.assignment)
    overrides.set(key, value);
  const auto unknown = apply_overrides(overrides, scenario);
  SEO_ASSERT(unknown.empty());  // validate() already screened the keys
  return scenario;
}

SweepPlan plan_sweep(const SweepConfig& config) {
  SweepPlan plan;
  plan.points = expand_grid(config);

  // Resolve every point up front (cheap config overlays) so the scheduler
  // can see each point's deadline-table digest before any episode runs.
  plan.resolved.reserve(plan.points.size());
  for (const auto& point : plan.points)
    plan.resolved.push_back(resolve_point(config, point));

  // Digest-aware scheduling: claim grid points grouped by the table
  // digest run_episode will request, groups ordered by first appearance.
  // Runners pulling in this order take a geometry class's points back to
  // back, so the class's first episode builds (or disk-loads) the table
  // and the siblings claimed after it hit warm; a sibling claimed while
  // the build is still running waits on single-flight instead of building
  // again.  Grouping is purely a warmth optimization.  Points with nothing
  // shareable (digest 0) keep their own slot in the order.
  plan.digests.resize(plan.points.size());
  plan.order.reserve(plan.points.size());
  {
    std::unordered_map<std::uint64_t, std::size_t> group_rank;
    std::size_t next_rank = 0;
    for (std::size_t i = 0; i < plan.points.size(); ++i) {
      const std::uint64_t digest = scenario_table_digest(plan.resolved[i]);
      plan.digests[i] = digest;
      std::size_t rank = 0;
      if (digest == 0) {
        rank = next_rank++;
      } else {
        const auto [it, inserted] = group_rank.try_emplace(digest, next_rank);
        if (inserted) ++next_rank;
        rank = it->second;
      }
      plan.order.emplace_back(rank, i);
    }
    std::sort(plan.order.begin(), plan.order.end());  // grid order per group
  }

  // The stream header's run digest: every point's table digest mixed in
  // grid order — the run's canonical identity, which the `--workers` hello
  // also checks so a child that planned another grid is refused.
  FingerprintHasher hasher;
  for (const std::uint64_t digest : plan.digests) hasher.mix(digest);
  plan.run_digest = hasher.digest();
  return plan;
}

std::vector<std::size_t> SweepPlan::schedule() const {
  std::vector<std::size_t> out;
  out.reserve(order.size());
  for (const auto& [rank, i] : order) {
    (void)rank;
    out.push_back(i);
  }
  return out;
}

std::size_t sweep_runners(const SweepConfig& config, std::size_t points) {
  const std::size_t per_process =
      config.rounds >= 1 ? 1 : ThreadPool::resolve_threads(config.threads);
  return std::min(per_process, points);
}

void execute_sweep_points(const SweepConfig& config, const SweepPlan& plan,
                          const SweepPointSource& next_point,
                          std::size_t runners, bool want_trace,
                          const SweepEmit& emit) {
  // Each grid point is an independent experiment with its own slot: points
  // finish in any order and on any runner, but emissions carry the grid
  // index and each point's result is independent of the thread count, so
  // the assembled result — hence every report and trace stream — is
  // bit-identical to the serial sweep for every thread count, worker count,
  // and schedule.  Streaming traces: every episode is serialized into the
  // point's block, which the caller commits under the point's sequence
  // number, so an ordered merge reproduces the serial stream byte-for-byte
  // whatever the schedule was.
  const auto run_point = [&](std::size_t i) {
    SweepRow row;
    row.point = plan.points[i];
    row.scenario = plan.resolved[i];
    TraceEpisodeInfo info;
    info.scenario_digest = plan.digests[i];
    info.point_index = static_cast<std::uint32_t>(i);
    info.label = row.point.label();
    const auto append = [&row](std::string& block, TraceEpisodeInfo info,
                               std::uint64_t seed, const EpisodeResult& episode,
                               const EpisodeTrace& trace) {
      info.seed = seed;
      append_trace_episode(block, info,
                           summarize_episode(row.scenario, episode), trace);
    };
    std::string block;
    std::uint64_t block_episodes = 0;
    if (config.rounds >= 1) {
      FleetExperimentConfig fleet;
      fleet.scenario = row.scenario;
      fleet.rounds = config.rounds;
      fleet.base_seed = config.base_seed;
      fleet.threads = config.threads;  // parallelism lives inside the point
      // Episode slots finish concurrently in any order: each serializes
      // into its own buffer, joined in slot order below.  Checked here
      // because it sizes those buffers before the fleet run validates it.
      SEO_EXPECT(row.scenario.fleet.vehicles >= 1);
      const auto vehicles =
          static_cast<std::size_t>(row.scenario.fleet.vehicles);
      std::vector<std::string> slots;
      if (want_trace) {
        slots.resize(static_cast<std::size_t>(config.rounds) * vehicles);
        fleet.trace_tap = [&](std::uint64_t seed, const EpisodeResult& episode,
                              const EpisodeTrace& trace) {
          const auto slot = static_cast<std::size_t>(seed - config.base_seed);
          TraceEpisodeInfo slot_info = info;
          slot_info.vehicle = static_cast<std::uint32_t>(slot % vehicles);
          append(slots[slot], std::move(slot_info), seed, episode, trace);
        };
      }
      row.fleet = run_fleet_experiment(fleet);
      for (const std::string& slot : slots) block += slot;
      block_episodes = slots.size();
    } else {
      ExperimentConfig experiment;
      experiment.scenario = row.scenario;
      experiment.episodes = config.episodes;
      experiment.max_attempts = config.max_attempts;
      experiment.base_seed = config.base_seed;
      experiment.require_success = config.require_success;
      if (want_trace) {
        experiment.trace_tap = [&](std::uint64_t seed,
                                   const EpisodeResult& episode,
                                   const EpisodeTrace& trace) {
          append(block, info, seed, episode, trace);
          ++block_episodes;
        };
      }
      row.result = run_experiment(experiment);
    }
    emit(i, std::move(row), std::move(block), block_episodes);
  };

  // One pool task per runner (run_capped with one index per chunk); each
  // runner keeps claiming until the source is drained, so a runner that
  // drew cheap points takes more of them instead of idling.
  ThreadPool::run_capped(0, runners, runners,
                         [&](std::size_t lo, std::size_t hi) {
                           for (std::size_t r = lo; r < hi; ++r)
                             while (const auto i = next_point())
                               run_point(*i);
                         });
}

void execute_sweep_points(const SweepConfig& config, const SweepPlan& plan,
                          const std::vector<std::size_t>& owned,
                          bool want_trace, const SweepEmit& emit) {
  SEO_EXPECT(std::is_sorted(owned.begin(), owned.end()));
  // Restrict the schedule to the owned set, preserving its order — a full
  // run (owned = everything) claims exactly plan.schedule().
  std::vector<std::size_t> exec;
  exec.reserve(owned.size());
  for (const std::size_t i : plan.schedule())
    if (std::binary_search(owned.begin(), owned.end(), i)) exec.push_back(i);
  SEO_EXPECT(exec.size() == owned.size());

  const std::size_t runners = sweep_runners(config, exec.size());
  SweepCursor cursor(std::move(exec));
  execute_sweep_points(
      config, plan, [&cursor] { return cursor.next(); }, runners, want_trace,
      emit);
}

std::vector<SweepRow> run_sweep(const SweepConfig& config,
                                OrderedTraceSink* trace_sink) {
  const SweepPlan plan = plan_sweep(config);
  if (trace_sink != nullptr) trace_sink->set_run_digest(plan.run_digest);
  std::vector<SweepRow> rows(plan.points.size());
  std::vector<std::size_t> all(rows.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  execute_sweep_points(
      config, plan, all, trace_sink != nullptr,
      [&](std::size_t index, SweepRow&& row, std::string&& block,
          std::uint64_t episodes) {
        rows[index] = std::move(row);
        if (trace_sink != nullptr)
          trace_sink->commit(index, std::move(block), episodes);
      });
  return rows;
}

}  // namespace seo
