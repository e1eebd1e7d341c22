// Fleet-experiment tests: golden fingerprints for the fleet-cluster rigs
// bit-identical across thread counts (and across the order in which rounds
// finish and replay), the fleet smoke grid's pinned report, per-vehicle and
// trace bytes, replay sensitivity to the cluster knobs, the batch-window /
// stagger edge cases, and failures crossing the fan-out.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/fingerprint.hpp"
#include "sim/fleet_experiment.hpp"
#include "sim/scenario_io.hpp"
#include "sim/scenario_library.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_report.hpp"
#include "sim/trace.hpp"
#include "util/config.hpp"
#include "util/expect.hpp"

namespace seo {
namespace {

/// Short-horizon variant so the fleet suite stays fast — the exact same
/// override set the CI `sweep --smoke --rounds 1` grid runs
/// (fleet_short_horizon), so the workload CI byte-compares is the workload
/// these goldens pin.
ScenarioConfig shortened(ScenarioConfig config) {
  KeyValueConfig overrides;
  for (const auto& [key, value] : fleet_short_horizon())
    overrides.set(key, value);
  const auto unknown = apply_overrides(overrides, config);
  SEO_ASSERT(unknown.empty());
  return config;
}

/// Scalar fingerprint of one fleet run.  Doubles are captured as raw bit
/// patterns: "bit-identical", not "close".
struct Fingerprint {
  std::uint64_t offloads = 0;
  std::uint64_t probes = 0;
  std::uint64_t misses = 0;
  std::uint64_t shed = 0;
  std::uint64_t engagements = 0;
  std::size_t batches = 0;
  std::size_t cluster_requests = 0;
  std::uint64_t mean_response_bits = 0;
  std::uint64_t max_queue_delay_bits = 0;
  std::uint64_t utilization_bits = 0;
  std::uint64_t energy_actual_bits = 0;
  std::uint64_t energy_baseline_bits = 0;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint run_fingerprint(const std::string& name, int threads,
                            int rounds = 2) {
  FleetExperimentConfig config;
  config.scenario = shortened(make_scenario(name));
  config.rounds = rounds;
  config.base_seed = 4242;
  config.threads = threads;
  const FleetResult r = run_fleet_experiment(config);

  std::uint64_t probes = 0;
  for (const auto& v : r.per_vehicle) probes += v.probes;
  const EnergyComparison energy = r.energy();
  Fingerprint fp;
  fp.offloads = r.offloads();
  fp.probes = probes;
  fp.misses = r.deadline_misses();
  fp.shed = r.shed();
  fp.engagements = r.filter_engagements();
  fp.batches = r.cluster.batches;
  fp.cluster_requests = r.cluster.requests;
  fp.mean_response_bits = std::bit_cast<std::uint64_t>(
      r.response_s.empty() ? 0.0 : r.response_s.mean());
  fp.max_queue_delay_bits =
      std::bit_cast<std::uint64_t>(r.cluster.max_queue_delay_s);
  fp.utilization_bits = std::bit_cast<std::uint64_t>(r.cluster.utilization());
  fp.energy_actual_bits = std::bit_cast<std::uint64_t>(energy.actual_j);
  fp.energy_baseline_bits = std::bit_cast<std::uint64_t>(energy.baseline_j);
  return fp;
}

// --- Golden fingerprints across thread counts -------------------------------

TEST(FleetGolden, FingerprintsBitIdenticalAcrossThreadCounts) {
  for (const char* name : {"fleet_cluster", "fleet_cluster_saturated"}) {
    const Fingerprint serial = run_fingerprint(name, 1);
    // The serial run is the golden reference; 2 workers and all hardware
    // threads must reproduce it bit for bit.
    for (const int threads : {2, 0}) {
      EXPECT_EQ(run_fingerprint(name, threads), serial)
          << name << " threads=" << threads;
    }
    // The short horizon must still produce signal, not vacuous zeros.
    EXPECT_GT(serial.offloads, 0u) << name;
    EXPECT_GT(serial.batches, 0u) << name;
    EXPECT_GT(serial.cluster_requests, serial.offloads) << name;  // + probes
  }
}

TEST(FleetGolden, ReplayOrderCannotMoveBytes) {
  // 5 rounds of 3 vehicles.  The tap stalls round 0's last slot, so with
  // several runners later rounds finish (and replay) first; the fold must
  // still read them in round order.
  for (const char* name : {"fleet_cluster", "fleet_cluster_saturated"}) {
    std::string reference_csv;
    std::vector<std::uint64_t> reference_bits;
    for (const int threads : {1, 2, 3, 0}) {
      FleetExperimentConfig config;
      config.scenario = shortened(make_scenario(name));
      ASSERT_EQ(config.scenario.fleet.vehicles, 3);
      config.rounds = 5;
      config.base_seed = 4242;
      config.threads = threads;
      std::mutex mutex;
      std::vector<int> taps(15, 0);
      config.trace_tap = [&](std::uint64_t seed, const EpisodeResult&,
                             const EpisodeTrace&) {
        const std::uint64_t slot = seed - config.base_seed;
        if (slot == 2)
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
        const std::lock_guard<std::mutex> lock(mutex);
        ++taps.at(slot);
      };
      const FleetResult r = run_fleet_experiment(config);
      EXPECT_EQ(taps, std::vector<int>(15, 1))
          << name << " threads=" << threads;
      std::vector<std::uint64_t> bits;
      for (const double v : fleet_metrics(r))
        bits.push_back(std::bit_cast<std::uint64_t>(v));
      if (threads == 1) {
        reference_csv = fleet_vehicle_csv(r);
        reference_bits = bits;
        EXPECT_GT(r.offloads(), 0u) << name;
      } else {
        EXPECT_EQ(fleet_vehicle_csv(r), reference_csv)
            << name << " threads=" << threads;
        EXPECT_EQ(bits, reference_bits) << name << " threads=" << threads;
      }
    }
  }
}

TEST(FleetGolden, FingerprintsAreSeedSensitive) {
  FleetExperimentConfig a;
  a.scenario = shortened(make_scenario("fleet_cluster"));
  a.rounds = 1;
  a.base_seed = 4242;
  FleetExperimentConfig b = a;
  b.base_seed = 4243;
  const FleetResult ra = run_fleet_experiment(a);
  const FleetResult rb = run_fleet_experiment(b);
  EXPECT_TRUE(ra.offloads() != rb.offloads() ||
              ra.response_s.mean() != rb.response_s.mean() ||
              ra.cluster.max_queue_delay_s != rb.cluster.max_queue_delay_s);
}

std::string fnv_hex(const std::string& bytes) {
  FingerprintHasher hasher;
  hasher.mix_bytes(bytes.data(), bytes.size());
  return hasher.hex();
}

// A rendered sweep report, as `write_sweep_report` writes it.
std::string report(const std::string& format, const SweepConfig& config,
                   const std::vector<SweepRow>& rows) {
  std::ostringstream out;
  write_sweep_report(out, format, config, rows);
  return out.str();
}

TEST(FleetGolden, SmokeGridBytesArePinned) {
  // fleet_smoke_sweep() (rounds 1, seed 1000) through the sweep engine:
  // FNV-1a digests of the CSV and JSON reports, the per-vehicle CSV and
  // the trace stream, as the standalone fleet grid runner wrote them
  // before fleet grids moved onto the sweep engine.  Any change here is a
  // change to published fleet output and must be declared.
  SweepConfig config = fleet_smoke_sweep();
  ASSERT_EQ(config.rounds, 1);
  ASSERT_EQ(config.base_seed, 1000u);
  config.threads = 0;
  std::ostringstream trace;
  OrderedTraceSink sink(trace);
  const std::vector<SweepRow> rows = run_sweep(config, &sink);
  sink.finish();

  EXPECT_EQ(fnv_hex(report("csv", config, rows)), "eb3af5f247c488fd");
  EXPECT_EQ(fnv_hex(report("json", config, rows)), "3edccaef597f6389");
  EXPECT_EQ(fnv_hex(sweep_vehicle_csv(rows)), "3e90dfc59e826f79");
  EXPECT_EQ(fnv_hex(trace.str()), "30bc0020af6ad4be");
  EXPECT_EQ(sink.episodes_written(), 8u * 3u);  // points x vehicles
}

// --- Replay semantics -------------------------------------------------------

TEST(Fleet, PerVehicleSlotsAreIndependentOfFleetSize) {
  // Vehicle v's episode depends only on seed base + round*V + v, so the
  // first vehicle of a 1-vehicle and a 3-vehicle fleet run identical
  // episodes (the cluster replay differs, the driving does not).
  FleetExperimentConfig solo;
  solo.scenario = shortened(make_scenario("fleet_cluster"));
  solo.scenario.fleet.vehicles = 1;
  FleetExperimentConfig trio = solo;
  trio.scenario.fleet.vehicles = 3;
  const FleetResult rs = run_fleet_experiment(solo);
  const FleetResult rt = run_fleet_experiment(trio);
  ASSERT_EQ(rs.per_vehicle.size(), 1u);
  ASSERT_EQ(rt.per_vehicle.size(), 3u);
  EXPECT_EQ(rs.per_vehicle[0].filter_engagements,
            rt.per_vehicle[0].filter_engagements);
  EXPECT_EQ(rs.per_vehicle[0].energy_actual_j,
            rt.per_vehicle[0].energy_actual_j);
  EXPECT_EQ(rs.per_vehicle[0].offloads + rs.per_vehicle[0].probes,
            rt.per_vehicle[0].offloads + rt.per_vehicle[0].probes);
}

TEST(Fleet, MoreVehiclesAddLoadAndNeverShrinkWorstQueueing) {
  FleetExperimentConfig small;
  small.scenario = shortened(make_scenario("fleet_cluster_saturated"));
  small.scenario.fleet.vehicles = 2;
  FleetExperimentConfig large = small;
  large.scenario.fleet.vehicles = 6;
  const FleetResult rs = run_fleet_experiment(small);
  const FleetResult rl = run_fleet_experiment(large);
  // Structural guarantees only: extra vehicles strictly add requests, and
  // the worst queueing delay cannot shrink when load is superset-of.  (The
  // *mean* response is not monotone — new vehicles contribute fresh
  // samples with no small-fleet counterpart — so it is not asserted.)
  EXPECT_GT(rl.cluster.requests, rs.cluster.requests);
  EXPECT_GE(rl.cluster.max_queue_delay_s + 1e-12,
            rs.cluster.max_queue_delay_s);
}

TEST(Fleet, ZeroBatchWindowMatchesNoBatchingCluster) {
  // window=0 and max_batch=1 describe the same cluster; the whole fleet
  // result must agree bit for bit.
  FleetExperimentConfig zero;
  zero.scenario = shortened(make_scenario("fleet_cluster"));
  zero.scenario.cluster.batch_window_s = 0.0;
  zero.scenario.cluster.max_batch = 8;
  FleetExperimentConfig single = zero;
  single.scenario.cluster.batch_window_s = 0.004;
  single.scenario.cluster.max_batch = 1;
  const FleetResult rz = run_fleet_experiment(zero);
  const FleetResult rs = run_fleet_experiment(single);
  EXPECT_EQ(rz.deadline_misses(), rs.deadline_misses());
  EXPECT_EQ(rz.shed(), rs.shed());
  EXPECT_EQ(rz.cluster.batches, rs.cluster.batches);
  EXPECT_EQ(rz.response_s.mean(), rs.response_s.mean());
  EXPECT_EQ(rz.cluster.max_queue_delay_s, rs.cluster.max_queue_delay_s);
}

TEST(Fleet, DispatchPoliciesDivergeUnderLoad) {
  // The three policies must be real alternatives: under saturation their
  // cluster traces should not all coincide.
  FleetExperimentConfig config;
  config.scenario = shortened(make_scenario("fleet_cluster_saturated"));
  config.scenario.fleet.vehicles = 4;
  Fingerprint fps[3];
  int i = 0;
  for (const DispatchPolicy policy :
       {DispatchPolicy::kRoundRobin, DispatchPolicy::kLeastLoaded,
        DispatchPolicy::kEarliestSlack}) {
    FleetExperimentConfig c = config;
    c.scenario.cluster.dispatch = policy;
    const FleetResult r = run_fleet_experiment(c);
    fps[i].misses = r.deadline_misses();
    fps[i].shed = r.shed();
    fps[i].mean_response_bits = std::bit_cast<std::uint64_t>(
        r.response_s.empty() ? 0.0 : r.response_s.mean());
    fps[i].max_queue_delay_bits =
        std::bit_cast<std::uint64_t>(r.cluster.max_queue_delay_s);
    ++i;
  }
  EXPECT_FALSE(fps[0] == fps[1] && fps[1] == fps[2]);
}

TEST(Fleet, StaggerSmearsBurstsAndChangesTheReplay) {
  FleetExperimentConfig aligned;
  aligned.scenario = shortened(make_scenario("fleet_cluster_saturated"));
  aligned.scenario.fleet.vehicles = 4;
  aligned.scenario.fleet.stagger_s = 0.0;
  FleetExperimentConfig staggered = aligned;
  staggered.scenario.fleet.stagger_s = 0.005;
  const FleetResult ra = run_fleet_experiment(aligned);
  const FleetResult rs = run_fleet_experiment(staggered);
  // Driving is untouched (episodes are identical)...
  EXPECT_EQ(ra.filter_engagements(), rs.filter_engagements());
  EXPECT_EQ(ra.energy().actual_j, rs.energy().actual_j);
  // ...but the shared timeline is not.
  EXPECT_NE(ra.response_s.mean(), rs.response_s.mean());
}

TEST(Fleet, ContentionStretchesUplinksMonotonically) {
  FleetExperimentConfig orthogonal;
  orthogonal.scenario = shortened(make_scenario("fleet_cluster"));
  orthogonal.scenario.fleet.contention_alpha = 0.0;
  FleetExperimentConfig contended = orthogonal;
  contended.scenario.fleet.contention_alpha = 1.0;
  const FleetResult ro = run_fleet_experiment(orthogonal);
  const FleetResult rc = run_fleet_experiment(contended);
  // Same transmissions, stretched uplinks: responses can only get slower.
  EXPECT_GE(rc.response_s.mean() + 1e-12, ro.response_s.mean());
}

TEST(Fleet, RejectsBadConfig) {
  FleetExperimentConfig good;
  good.scenario = shortened(make_scenario("fleet_cluster"));
  FleetExperimentConfig config = good;
  config.scenario.fleet.vehicles = 0;
  EXPECT_THROW(run_fleet_experiment(config), ContractViolation);
  config = good;
  config.rounds = 0;
  EXPECT_THROW(run_fleet_experiment(config), ContractViolation);
  config = good;
  config.scenario.fleet.contention_alpha = -0.5;
  EXPECT_THROW(run_fleet_experiment(config), ContractViolation);
  // Non-finite replay settings fail before any episode runs.
  int episodes = 0;
  good.trace_tap = [&episodes](std::uint64_t, const EpisodeResult&,
                               const EpisodeTrace&) { ++episodes; };
  const double inf = std::numeric_limits<double>::infinity();
  config = good;
  config.scenario.fleet.contention_alpha = inf;
  EXPECT_THROW(run_fleet_experiment(config), ContractViolation);
  config = good;
  config.scenario.fleet.stagger_s = inf;
  EXPECT_THROW(run_fleet_experiment(config), ContractViolation);
  config = good;
  config.scenario.cluster.server.service_time_s = inf;
  EXPECT_THROW(run_fleet_experiment(config), ContractViolation);
  EXPECT_EQ(episodes, 0);
}

TEST(Fleet, TapFailurePropagatesWithoutHang) {
  // The tap throws on one slot of a 5-round, 3-vehicle run: the first
  // slot, a middle slot, and the last slot of round 1, whose countdown then
  // never reaches zero.  The run must rethrow that exception, not hang.
  struct TapFailure : std::runtime_error {
    using std::runtime_error::runtime_error;
  };
  for (const int threads : {1, 3}) {
    for (const std::uint64_t failing : {0u, 7u, 5u}) {
      FleetExperimentConfig config;
      config.scenario = shortened(make_scenario("fleet_cluster"));
      config.rounds = 5;
      config.base_seed = 4242;
      config.threads = threads;
      config.trace_tap = [&](std::uint64_t seed, const EpisodeResult&,
                             const EpisodeTrace&) {
        if (seed - config.base_seed == failing) throw TapFailure("tap");
      };
      EXPECT_THROW(run_fleet_experiment(config), TapFailure)
          << "threads=" << threads << " slot=" << failing;
    }
  }
}

// --- Reports ----------------------------------------------------------------

TEST(Fleet, MetricNamesAndValuesStayAligned) {
  FleetExperimentConfig config;
  config.scenario = shortened(make_scenario("fleet_cluster"));
  const FleetResult r = run_fleet_experiment(config);
  EXPECT_EQ(fleet_metric_names().size(), fleet_metrics(r).size());
  const std::string csv = fleet_vehicle_csv(r);
  // Header + one line per vehicle.
  EXPECT_EQ(static_cast<int>(std::count(csv.begin(), csv.end(), '\n')),
            1 + r.vehicles);
}

}  // namespace
}  // namespace seo
