#include "sim/fleet_experiment.hpp"

#include <algorithm>
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

/// One uplink in the shared-channel replay timeline.
struct FleetUplink {
  std::size_t vehicle = 0;
  OffloadEvent event;        ///< times already stagger-shifted
  double end_s = 0.0;        ///< contended uplink completion
};

}  // namespace

FleetResult run_fleet_experiment(const FleetExperimentConfig& config) {
  const ScenarioConfig& scenario = config.scenario;
  const int vehicles = scenario.fleet.vehicles;
  SEO_EXPECT(vehicles >= 1);
  SEO_EXPECT(config.rounds >= 1);
  SEO_EXPECT(scenario.fleet.stagger_s >= 0.0);
  SEO_EXPECT(scenario.fleet.contention_alpha >= 0.0);

  // --- Phase 1: episode fan-out --------------------------------------------
  // Slot i = round * vehicles + vehicle is fully determined by its seed, so
  // episodes run in any order / on any thread count and land in their own
  // slot; everything downstream reads slots in index order.
  const std::size_t total =
      static_cast<std::size_t>(config.rounds) *
      static_cast<std::size_t>(vehicles);
  struct Slot {
    EpisodeResult episode;
    std::vector<OffloadEvent> offloads;
  };
  std::vector<Slot> slots(total);
  const bool tracing = static_cast<bool>(config.trace_tap);
  const std::size_t workers = ThreadPool::resolve_threads(config.threads);
  ThreadPool::run_capped(0, total, workers, [&](std::size_t lo,
                                                std::size_t hi) {
    // Slot-local trace buffer reused across the chunk's episodes: clear()
    // keeps its reserved capacity, so steady-state episodes record without
    // reallocating the sample/offload vectors.
    EpisodeTrace trace;
    for (std::size_t i = lo; i < hi; ++i) {
      ScenarioConfig episode_scenario = scenario;
      episode_scenario.seed = config.base_seed + i;
      trace.clear();
      // Sample logs are only needed when streaming; the replay phase just
      // wants the offload stream.
      trace.set_capture_samples(tracing);
      slots[i].episode = run_episode(episode_scenario, &trace);
      if (tracing)
        config.trace_tap(episode_scenario.seed, slots[i].episode, trace);
      // Copy, not move: the slot gets an exact-size log and the chunk's
      // buffer keeps its capacity for the next episode.
      slots[i].offloads = trace.offloads();
    }
  });

  FleetResult result;
  result.vehicles = vehicles;
  result.rounds = config.rounds;
  result.per_vehicle.resize(static_cast<std::size_t>(vehicles));
  for (int v = 0; v < vehicles; ++v) result.per_vehicle[v].vehicle = v;

  // --- Per-vehicle episode aggregates --------------------------------------
  for (std::size_t i = 0; i < total; ++i) {
    const std::size_t v = i % static_cast<std::size_t>(vehicles);
    const EpisodeResult& e = slots[i].episode;
    FleetVehicleStats& stats = result.per_vehicle[v];
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

  // --- Phase 2: serial cluster replay, one round at a time -----------------
  for (int round = 0; round < config.rounds; ++round) {
    // Merge every vehicle's uplink stream into the shared timeline.
    std::vector<FleetUplink> uplinks;
    for (int v = 0; v < vehicles; ++v) {
      const std::size_t slot =
          static_cast<std::size_t>(round) *
              static_cast<std::size_t>(vehicles) +
          static_cast<std::size_t>(v);
      const double offset = static_cast<double>(v) * scenario.fleet.stagger_s;
      for (const OffloadEvent& event : slots[slot].offloads) {
        FleetUplink up;
        up.vehicle = static_cast<std::size_t>(v);
        up.event = event;
        up.event.submit_s += offset;
        up.event.deadline_s += offset;
        uplinks.push_back(up);
      }
    }
    // stable_sort with the (submit, vehicle) key is a total order here:
    // one vehicle's submits are already nondecreasing, so the merged
    // stream is deterministic.
    std::stable_sort(uplinks.begin(), uplinks.end(),
                     [](const FleetUplink& a, const FleetUplink& b) {
                       if (a.event.submit_s != b.event.submit_s)
                         return a.event.submit_s < b.event.submit_s;
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
      while (!active.empty() && active.top() <= up.event.submit_s)
        active.pop();
      const double factor =
          1.0 + scenario.fleet.contention_alpha *
                    static_cast<double>(active.size());
      up.end_s = up.event.submit_s + up.event.tx_time_s * factor;
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
      if (!uplinks[i].event.probe)
        request.deadline_s = uplinks[i].event.deadline_s;
      requests.push_back(request);
    }

    EdgeCluster cluster(scenario.cluster);
    const std::vector<ClusterOutcome> outcomes = cluster.process(requests);
    result.cluster.merge(cluster.stats());

    for (const ClusterOutcome& outcome : outcomes) {
      const FleetUplink& up = uplinks[static_cast<std::size_t>(outcome.id)];
      FleetVehicleStats& stats = result.per_vehicle[up.vehicle];
      if (up.event.probe) {
        ++stats.probes;  // load on the cluster, but no deadline stake
        continue;
      }
      ++stats.offloads;
      if (!outcome.admitted) {
        ++stats.shed;
        ++stats.deadline_misses;
        continue;
      }
      const double response_end =
          outcome.completion_s + scenario.link.downlink_latency_s;
      stats.response_s.add(response_end - up.event.submit_s);
      result.response_s.add(response_end - up.event.submit_s);
      if (response_end > up.event.deadline_s) ++stats.deadline_misses;
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
