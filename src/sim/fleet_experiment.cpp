#include "sim/fleet_experiment.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <queue>

#include "energy/report.hpp"
#include "sim/simulation.hpp"
#include "sim/sweep_report.hpp"
#include "util/expect.hpp"
#include "util/thread_pool.hpp"

namespace seo {

std::uint64_t FleetResult::offloads() const {
  std::uint64_t total = 0;
  for (const auto& v : per_vehicle) total += v.offloads;
  return total;
}

std::uint64_t FleetResult::deadline_misses() const {
  std::uint64_t total = 0;
  for (const auto& v : per_vehicle) total += v.deadline_misses;
  return total;
}

std::uint64_t FleetResult::shed() const {
  std::uint64_t total = 0;
  for (const auto& v : per_vehicle) total += v.shed;
  return total;
}

std::uint64_t FleetResult::filter_engagements() const {
  std::uint64_t total = 0;
  for (const auto& v : per_vehicle) total += v.filter_engagements;
  return total;
}

int FleetResult::collisions() const {
  int total = 0;
  for (const auto& v : per_vehicle) total += v.collisions;
  return total;
}

double FleetResult::miss_rate() const {
  const std::uint64_t total = offloads();
  return total > 0
             ? static_cast<double>(deadline_misses()) /
                   static_cast<double>(total)
             : 0.0;
}

EnergyComparison FleetResult::energy() const {
  EnergyComparison total;
  for (const auto& v : per_vehicle) {
    total.actual_j += v.energy_actual_j;
    total.baseline_j += v.energy_baseline_j;
  }
  return total;
}

namespace {

/// One uplink in the shared-channel replay timeline: only the OffloadEvent
/// fields the replay reads (40 bytes, not 64 with the whole event).
struct FleetUplink {
  std::uint32_t vehicle = 0;
  bool probe = false;
  double submit_s = 0.0;     ///< stagger-shifted
  double tx_time_s = 0.0;
  double deadline_s = 0.0;   ///< stagger-shifted
  double end_s = 0.0;        ///< contended uplink completion
};

/// What the round fold needs of one cluster outcome (16 bytes).
struct ReplayOutcome {
  std::uint32_t vehicle = 0;
  bool probe = false;       ///< load on the cluster, but no deadline stake
  bool admitted = false;    ///< false: shed
  bool late = false;        ///< admitted, but answered after the deadline
  double response_s = 0.0;  ///< admitted full-frame round trip
};

/// One replayed round: its cluster stats and its outcomes in the order
/// EdgeCluster::process returned them.
struct RoundReplay {
  ClusterStats cluster;
  std::vector<ReplayOutcome> outcomes;
};

}  // namespace

FleetResult run_fleet_experiment(const FleetExperimentConfig& config) {
  const ScenarioConfig& scenario = config.scenario;
  const int vehicles = scenario.fleet.vehicles;
  SEO_EXPECT(vehicles >= 1);
  SEO_EXPECT(config.rounds >= 1);
  SEO_EXPECT(std::isfinite(scenario.fleet.stagger_s) &&
             scenario.fleet.stagger_s >= 0.0);
  SEO_EXPECT(std::isfinite(scenario.fleet.contention_alpha) &&
             scenario.fleet.contention_alpha >= 0.0);
  // Built here so a bad cluster config fails before any episode runs;
  // every round replays through a fresh copy.
  const EdgeCluster fresh_cluster(scenario.cluster);

  // Slot i = round * vehicles + vehicle is fully determined by its seed, so
  // episodes run in any order / on any thread count and land in their own
  // slot; everything downstream reads slots and rounds in index order.
  const std::size_t per_round = static_cast<std::size_t>(vehicles);
  const std::size_t total =
      static_cast<std::size_t>(config.rounds) * per_round;
  struct Slot {
    EpisodeResult episode;
    std::vector<OffloadEvent> offloads;  ///< freed by the round's replay
  };
  std::vector<Slot> slots(total);
  std::vector<RoundReplay> replays(static_cast<std::size_t>(config.rounds));

  // Cluster replay of one round, run by whichever runner finishes the
  // round's last episode.
  const auto replay_round = [&](std::size_t round) {
    std::size_t count = 0;
    for (std::size_t v = 0; v < per_round; ++v)
      count += slots[round * per_round + v].offloads.size();
    // The kept records are reserved before the scratch vectors below: kept
    // above them, they would pin the freed scratch in the runner's heap
    // and raise peak RSS.
    RoundReplay& replay = replays[round];
    replay.outcomes.reserve(count);

    // Merge every vehicle's uplink stream into the shared timeline.
    std::vector<FleetUplink> uplinks;
    uplinks.reserve(count);
    for (std::size_t v = 0; v < per_round; ++v) {
      std::vector<OffloadEvent>& log = slots[round * per_round + v].offloads;
      const double offset = static_cast<double>(v) * scenario.fleet.stagger_s;
      for (const OffloadEvent& event : log) {
        FleetUplink up;
        up.vehicle = static_cast<std::uint32_t>(v);
        up.probe = event.probe;
        up.submit_s = event.submit_s + offset;
        up.tx_time_s = event.tx_time_s;
        up.deadline_s = event.deadline_s + offset;
        uplinks.push_back(up);
      }
      std::vector<OffloadEvent>().swap(log);
    }
    // stable_sort with the (submit, vehicle) key is a total order here:
    // one vehicle's submits are already nondecreasing, so the merged
    // stream is deterministic.
    std::stable_sort(uplinks.begin(), uplinks.end(),
                     [](const FleetUplink& a, const FleetUplink& b) {
                       if (a.submit_s != b.submit_s)
                         return a.submit_s < b.submit_s;
                       return a.vehicle < b.vehicle;
                     });

    // Shared-channel contention: an uplink starting while c earlier
    // uplinks are still transmitting runs at rate / (1 + alpha * c), i.e.
    // its duration stretches by that factor.  Processing in start order
    // makes the count well-defined and the replay deterministic; a min-heap
    // of active completion times keeps the pass O(n log n).  An uplink
    // ending exactly when another starts does not contend with it (closed
    // boundary, like every other tie in the net layer).
    std::priority_queue<double, std::vector<double>, std::greater<>> active;
    for (FleetUplink& up : uplinks) {
      while (!active.empty() && active.top() <= up.submit_s)
        active.pop();
      const double factor =
          1.0 + scenario.fleet.contention_alpha *
                    static_cast<double>(active.size());
      up.end_s = up.submit_s + up.tx_time_s * factor;
      active.push(up.end_s);
    }

    // Arrival-ordered request trace for the cluster DES.
    std::vector<std::size_t> order(uplinks.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return uplinks[a].end_s < uplinks[b].end_s;
                     });
    std::vector<ClusterRequest> requests;
    requests.reserve(uplinks.size());
    for (const std::size_t i : order) {
      ClusterRequest request;
      request.id = static_cast<std::uint64_t>(i);
      request.vehicle = uplinks[i].vehicle;
      request.arrival_s = uplinks[i].end_s;
      // Probes are load without a deadline stake: they keep the no-deadline
      // default so a slack-aware dispatcher never serves one ahead of a
      // full frame (and sheds them first under overload).
      if (!uplinks[i].probe)
        request.deadline_s = uplinks[i].deadline_s;
      requests.push_back(request);
    }

    EdgeCluster cluster = fresh_cluster;
    const std::vector<ClusterOutcome> outcomes = cluster.process(requests);
    replay.cluster = cluster.stats();
    for (const ClusterOutcome& outcome : outcomes) {
      const FleetUplink& up = uplinks[static_cast<std::size_t>(outcome.id)];
      ReplayOutcome record;
      record.vehicle = up.vehicle;
      record.probe = up.probe;
      record.admitted = outcome.admitted;
      if (!record.probe && record.admitted) {
        const double response_end =
            outcome.completion_s + scenario.link.downlink_latency_s;
        record.response_s = response_end - up.submit_s;
        record.late = response_end > up.deadline_s;
      }
      replay.outcomes.push_back(record);
    }
  };

  // --- Episode fan-out -----------------------------------------------------
  // Runners claim slots one at a time, and a round's countdown hands its
  // replay to the runner that finishes its last episode, so replays
  // overlap later rounds' episodes and no runner waits at a phase barrier.
  std::vector<std::atomic<int>> unfinished(replays.size());
  for (auto& count : unfinished) count.store(vehicles);
  std::atomic<std::size_t> cursor{0};
  const bool tracing = static_cast<bool>(config.trace_tap);
  const std::size_t runners =
      std::min(ThreadPool::resolve_threads(config.threads), total);
  // One pool task per runner.  Every call drains the cursor, so a range
  // run inline (one call for all runner indices) still covers every slot.
  ThreadPool::run_capped(0, runners, runners, [&](std::size_t, std::size_t) {
    // Runner-local trace buffer reused across its episodes: clear() keeps
    // its reserved capacity, so steady-state episodes record without
    // reallocating the sample/offload vectors.
    EpisodeTrace trace;
    for (std::size_t i = cursor.fetch_add(1); i < total;
         i = cursor.fetch_add(1)) {
      ScenarioConfig episode_scenario = scenario;
      episode_scenario.seed = config.base_seed + i;
      trace.clear();
      // Sample logs are only needed when streaming; the replay just wants
      // the offload stream.
      trace.set_capture_samples(tracing);
      slots[i].episode = run_episode(episode_scenario, &trace);
      if (tracing)
        config.trace_tap(episode_scenario.seed, slots[i].episode, trace);
      // Copy, not move: the slot gets an exact-size log and the runner's
      // buffer keeps its capacity for the next episode.
      slots[i].offloads = trace.offloads();
      // acq_rel: the runner that takes the count to zero sees every log of
      // the round.
      const std::size_t round = i / per_round;
      if (unfinished[round].fetch_sub(1, std::memory_order_acq_rel) == 1)
        replay_round(round);
    }
  });

  FleetResult result;
  result.vehicles = vehicles;
  result.rounds = config.rounds;
  result.per_vehicle.resize(per_round);
  for (int v = 0; v < vehicles; ++v) result.per_vehicle[v].vehicle = v;

  // --- Per-vehicle episode aggregates, in slot order -----------------------
  for (std::size_t i = 0; i < total; ++i) {
    const EpisodeResult& e = slots[i].episode;
    FleetVehicleStats& stats = result.per_vehicle[i % per_round];
    ++stats.episodes;
    if (e.completed) ++stats.completions;
    if (e.collided) ++stats.collisions;
    if (e.off_road) ++stats.off_roads;
    if (e.timed_out) ++stats.timeouts;
    stats.filter_engagements += e.filter_engagements;
    stats.avg_speed.add(e.avg_speed);
    const EnergyComparison energy = episode_model_energy(scenario, e);
    stats.energy_actual_j += energy.actual_j;
    stats.energy_baseline_j += energy.baseline_j;
  }

  // --- Round fold, in round then outcome order -----------------------------
  // RunningStats has no bit-exact merge, so its adds are replayed in the
  // order a serial run makes them.
  for (const RoundReplay& replay : replays) {
    result.cluster.merge(replay.cluster);
    for (const ReplayOutcome& outcome : replay.outcomes) {
      FleetVehicleStats& stats = result.per_vehicle[outcome.vehicle];
      if (outcome.probe) {
        ++stats.probes;
        continue;
      }
      ++stats.offloads;
      if (!outcome.admitted) {
        ++stats.shed;
        ++stats.deadline_misses;
        continue;
      }
      stats.response_s.add(outcome.response_s);
      result.response_s.add(outcome.response_s);
      if (outcome.late) ++stats.deadline_misses;
    }
  }
  return result;
}

std::vector<std::string> fleet_metric_names() {
  return {
      "vehicles",        "rounds",           "completions",
      "collisions",      "off_roads",        "timeouts",
      "filter_engagements", "avg_speed",
      "offloads",        "probes",           "deadline_misses",
      "miss_rate",       "shed",             "mean_response_ms",
      "batches",         "mean_batch",       "max_batch",
      "max_queue_delay_ms", "utilization",   "makespan_s",
      "energy_actual_j", "energy_baseline_j", "energy_gain",
  };
}

std::vector<double> fleet_metrics(const FleetResult& result) {
  int completions = 0, off_roads = 0, timeouts = 0;
  std::uint64_t probes = 0;
  RunningStats speed;
  for (const auto& v : result.per_vehicle) {
    completions += v.completions;
    off_roads += v.off_roads;
    timeouts += v.timeouts;
    probes += v.probes;
    speed.add(v.avg_speed.mean());
  }
  const EnergyComparison energy = result.energy();
  return {
      static_cast<double>(result.vehicles),
      static_cast<double>(result.rounds),
      static_cast<double>(completions),
      static_cast<double>(result.collisions()),
      static_cast<double>(off_roads),
      static_cast<double>(timeouts),
      static_cast<double>(result.filter_engagements()),
      speed.empty() ? 0.0 : speed.mean(),
      static_cast<double>(result.offloads()),
      static_cast<double>(probes),
      static_cast<double>(result.deadline_misses()),
      result.miss_rate(),
      static_cast<double>(result.shed()),
      result.response_s.empty() ? 0.0 : result.response_s.mean() * 1e3,
      static_cast<double>(result.cluster.batches),
      result.cluster.mean_batch_size(),
      static_cast<double>(result.cluster.max_batch_seen),
      result.cluster.max_queue_delay_s * 1e3,
      result.cluster.utilization(),
      result.cluster.makespan_s,
      energy.actual_j,
      energy.baseline_j,
      energy.gain(),
  };
}

std::vector<std::pair<std::string, std::string>> fleet_short_horizon() {
  return {{"road_length", "45"},
          {"max_episode_s", "12"},
          {"fleet.vehicles", "3"},
          {"table_distance_bins", "15"},
          {"table_bearing_bins", "9"},
          {"table_speed_bins", "9"}};
}

std::string fleet_vehicle_csv(const FleetResult& result) {
  std::string out =
      "vehicle,episodes,completions,collisions,off_roads,timeouts,"
      "filter_engagements,avg_speed,offloads,probes,deadline_misses,"
      "miss_rate,shed,mean_response_ms,energy_actual_j,energy_baseline_j\n";
  // Appends, not "," + std::string&&: GCC 12 flags that operator+ with a
  // false-positive -Wrestrict.
  const auto field = [&out](const std::string& value) {
    out += ',';
    out += value;
  };
  for (const auto& v : result.per_vehicle) {
    out += std::to_string(v.vehicle);
    field(std::to_string(v.episodes));
    field(std::to_string(v.completions));
    field(std::to_string(v.collisions));
    field(std::to_string(v.off_roads));
    field(std::to_string(v.timeouts));
    field(std::to_string(v.filter_engagements));
    field(report_fmt(v.avg_speed.empty() ? 0.0 : v.avg_speed.mean()));
    field(std::to_string(v.offloads));
    field(std::to_string(v.probes));
    field(std::to_string(v.deadline_misses));
    field(report_fmt(v.miss_rate()));
    field(std::to_string(v.shed));
    field(report_fmt(v.response_s.empty() ? 0.0 : v.response_s.mean() * 1e3));
    field(report_fmt(v.energy_actual_j));
    field(report_fmt(v.energy_baseline_j));
    out += "\n";
  }
  return out;
}

}  // namespace seo
