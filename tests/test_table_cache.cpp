// DeadlineTable cache tests: key canonicality and sensitivity (every
// table-determining input must move the digest; the threads knob must
// not), hit/miss/wait accounting, single-flight build deduplication, disk
// artifact round-trips with corruption fallback, and the run_episode
// wiring — including the moving-obstacle environment_speed raise that
// makes distinct obstacle speeds distinct keys.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/binary_io.hpp"
#include "safety/table_cache.hpp"
#include "sim/scenario.hpp"
#include "sim/scenario_library.hpp"
#include "sim/simulation.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace seo {
namespace {

/// Small grid so builds are instant; domain values match the default rig.
DeadlineTableKey small_key() {
  DeadlineTableKey key;
  key.table.distance_bins = 9;
  key.table.bearing_bins = 7;
  key.table.speed_bins = 5;
  key.table.max_distance = LipschitzIntervalConfig{}.sensing_range;
  key.body_radius = BarrierConfig{}.body_radius;
  return key;
}

DeadlineTableCache::Builder builder_for(const DeadlineTableKey& key,
                                        std::atomic<int>* builds = nullptr) {
  return [key, builds] {
    if (builds != nullptr) ++*builds;
    const Barrier barrier(key.barrier);
    const LipschitzSafeInterval source(key.interval, barrier,
                                       Road(key.road));
    return std::make_unique<DeadlineTable>(key.table, source,
                                           key.body_radius);
  };
}

/// The binary payload: raw IEEE-754 cell bits, so equal bytes mean
/// bit-identical tables.
std::string serialized(const DeadlineTable& table) {
  std::string bytes;
  BinaryWriter out(bytes);
  table.encode(out);
  return bytes;
}

/// RAII temp directory for artifact-store tests.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& tag) {
    path = std::filesystem::temp_directory_path() /
           ("seo_table_cache_" + tag + "_" +
            std::to_string(static_cast<long long>(::getpid())));
    std::filesystem::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ArtifactDiskOptions disk() const { return {path.string(), 0, 0.0}; }
};

// --- Key canonicality -------------------------------------------------------

TEST(DeadlineTableKey, DigestIsStableAndThreadsAgnostic) {
  DeadlineTableKey a = small_key();
  DeadlineTableKey b = small_key();
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.hex(), b.hex());
  EXPECT_EQ(a.hex().size(), 16u);
  // The build-parallelism knob is an execution parameter, not content.
  b.table.threads = 8;
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_TRUE(a == b);
}

TEST(DeadlineTableKey, EveryTableDeterminingFieldMovesTheDigest) {
  // One variant per fingerprinted field — a field dropped from digest()
  // or operator== fails here, before it can silently alias two tables.
  const DeadlineTableKey base = small_key();
  std::vector<DeadlineTableKey> variants(17, base);
  variants[0].table.distance_bins += 2;
  variants[1].table.bearing_bins += 2;
  variants[2].table.speed_bins += 2;
  variants[3].table.max_distance += 1.0;
  variants[4].table.max_speed += 1.0;
  variants[5].table.obstacle_radius += 0.1;
  variants[6].interval.sensing_range += 1.0;
  variants[7].interval.rate_gain += 0.5;
  variants[8].interval.speed_floor += 0.25;
  variants[9].interval.environment_speed += 0.25;  // the moving-obstacle raise
  variants[10].interval.road_conservatism += 0.5;
  variants[11].barrier.body_radius += 0.05;
  variants[12].barrier.margin += 0.1;
  variants[13].barrier.heading_gain += 0.1;
  variants[14].road.length += 5.0;
  variants[15].road.half_width += 0.5;
  variants[16].body_radius += 0.05;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    EXPECT_NE(variants[i].digest(), base.digest()) << "variant " << i;
    EXPECT_FALSE(variants[i] == base) << "variant " << i;
  }
  // An ulp-sized perturbation is a different config, hence a different key.
  DeadlineTableKey ulp = base;
  ulp.interval.environment_speed =
      std::nextafter(base.interval.environment_speed, 1.0);
  EXPECT_NE(ulp.digest(), base.digest());
}

// --- Accounting -------------------------------------------------------------

TEST(DeadlineTableCache, HitMissAccounting) {
  DeadlineTableCache cache;
  const DeadlineTableKey a = small_key();
  DeadlineTableKey b = small_key();
  b.interval.environment_speed = 1.5;

  std::atomic<int> builds{0};
  const auto ta1 = cache.get(a, builder_for(a, &builds));
  const auto tb1 = cache.get(b, builder_for(b, &builds));
  const auto ta2 = cache.get(a, builder_for(a, &builds));
  const auto tb2 = cache.get(b, builder_for(b, &builds));

  EXPECT_EQ(builds.load(), 2);
  EXPECT_EQ(ta1.get(), ta2.get());  // same immutable table, not a copy
  EXPECT_EQ(tb1.get(), tb2.get());
  EXPECT_NE(ta1.get(), tb1.get());
  EXPECT_EQ(cache.size(), 2u);

  const ArtifactStoreStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.builds, 2u);
  EXPECT_EQ(stats.waits, 0u);
  EXPECT_EQ(stats.disk_loads, 0u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(DeadlineTableCache, FailedBuildPropagatesAndAllowsRetry) {
  DeadlineTableCache cache;
  const DeadlineTableKey key = small_key();
  EXPECT_THROW(cache.get(key,
                         []() -> std::unique_ptr<DeadlineTable> {
                           throw ContractViolation("injected build failure");
                         }),
               ContractViolation);
  // The failed entry must not wedge the key: a later call rebuilds.
  const auto table = cache.get(key, builder_for(key));
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(cache.stats().builds, 1u);
}

// --- Single-flight ----------------------------------------------------------

TEST(DeadlineTableCache, ConcurrentRequestsShareOneBuild) {
  DeadlineTableCache cache;
  const DeadlineTableKey key = small_key();
  constexpr int kThreads = 4;

  std::atomic<int> builds{0};
  const auto slow_build = [&]() {
    ++builds;
    // Hold the build until every sibling has registered as a waiter, so
    // the dedup is exercised deterministically rather than by luck.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (cache.stats().waits <
               static_cast<std::uint64_t>(kThreads - 1) &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return builder_for(key)();
  };

  std::vector<std::shared_ptr<const DeadlineTable>> tables(kThreads);
  // seo-lint: allow(raw-thread) -- all threads must dogpile one in-flight
  // build simultaneously; pool partitioning would serialize them.
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back(
        [&, t] { tables[t] = cache.get(key, slow_build); });
  for (auto& t : threads) t.join();

  EXPECT_EQ(builds.load(), 1);
  const ArtifactStoreStats stats = cache.stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.waits, static_cast<std::uint64_t>(kThreads - 1));
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(tables[t].get(), tables[0].get());
}

TEST(DeadlineTableCache, CachedAndUncachedTablesAreByteIdenticalAtAnyThreads) {
  // Ground truth: a direct serial build, bypassing the store.
  const std::string truth = serialized(*builder_for(small_key())());

  for (const int threads : {1, 2, 0}) {
    // The build fan-out must not change a single cell bit...
    DeadlineTableKey key = small_key();
    key.table.threads = threads;
    EXPECT_EQ(serialized(*builder_for(key)()), truth)
        << "direct build diverged at threads=" << threads;
    // ...and the store must hand back exactly the built bytes, both on the
    // cold build and on a warm in-memory hit.
    DeadlineTableCache cache;
    const auto cold = cache.get(key, builder_for(key));
    EXPECT_EQ(serialized(*cold), truth) << "threads=" << threads;
    const auto warm = cache.get(key, builder_for(key));
    EXPECT_EQ(warm.get(), cold.get());
    EXPECT_EQ(cache.stats().builds, 1u);
  }
}

// --- Disk artifact store ----------------------------------------------------

TEST(DeadlineTableCache, DiskRoundTripIsByteIdenticalToFreshBuild) {
  const TempDir dir("roundtrip");
  const DeadlineTableKey key = small_key();

  DeadlineTableCache cold;
  const auto built = cold.get(key, dir.disk(), builder_for(key));
  EXPECT_EQ(cold.stats().builds, 1u);
  EXPECT_EQ(cold.stats().disk_stores, 1u);
  EXPECT_TRUE(std::filesystem::exists(
      dir.path / DeadlineTableCache::artifact_name(key)));

  // A fresh cache (fresh process stand-in) must serve the key from disk —
  // and the loaded table must round-trip bit for bit, not merely close.
  DeadlineTableCache warm;
  const auto loaded = warm.get(key, dir.disk(), builder_for(key));
  EXPECT_EQ(warm.stats().builds, 0u);
  EXPECT_EQ(warm.stats().disk_loads, 1u);
  EXPECT_EQ(serialized(*built), serialized(*loaded));
  for (const double d : {0.0, 3.3, 17.9}) {
    EXPECT_EQ(built->sample(d, 0.4, 5.0), loaded->sample(d, 0.4, 5.0));
  }
}

TEST(DeadlineTableCache, CorruptArtifactFallsBackToRebuildAndHeals) {
  const TempDir dir("corrupt");
  const DeadlineTableKey key = small_key();
  const std::filesystem::path artifact =
      dir.path / DeadlineTableCache::artifact_name(key);

  std::filesystem::create_directories(dir.path);
  {
    std::ofstream out(artifact);
    out << "seo-dtable 1\nthis is not a table\n";
  }
  DeadlineTableCache cache;
  const auto table = cache.get(key, dir.disk(), builder_for(key));
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(cache.stats().disk_failures, 1u);
  EXPECT_EQ(cache.stats().builds, 1u);
  EXPECT_EQ(cache.stats().disk_loads, 0u);

  // The rebuild rewrote the artifact; a fresh cache now loads it cleanly.
  DeadlineTableCache healed;
  const auto reloaded = healed.get(key, dir.disk(), builder_for(key));
  EXPECT_EQ(healed.stats().disk_loads, 1u);
  EXPECT_EQ(serialized(*table), serialized(*reloaded));
}

TEST(DeadlineTableCache, RenamedArtifactForAnotherKeyIsRejected) {
  // The serialized table cannot expose an interval/barrier/road mismatch
  // (the payload only records the grid, domain, and body radius), so the
  // artifact header's full key digest is what protects against a file
  // copied under another key's address: same table shape, different
  // barrier margin — trusting it would poison every safety deadline.
  const TempDir dir("renamed");
  const DeadlineTableKey key_a = small_key();
  DeadlineTableKey key_b = small_key();
  key_b.barrier.margin += 0.3;
  ASSERT_NE(key_a.digest(), key_b.digest());

  {
    DeadlineTableCache seed;
    (void)seed.get(key_a, dir.disk(), builder_for(key_a));
  }
  std::filesystem::copy_file(
      dir.path / DeadlineTableCache::artifact_name(key_a),
      dir.path / DeadlineTableCache::artifact_name(key_b));

  DeadlineTableCache cache;
  const auto table = cache.get(key_b, dir.disk(), builder_for(key_b));
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(cache.stats().disk_failures, 1u);
  EXPECT_EQ(cache.stats().disk_loads, 0u);
  EXPECT_EQ(cache.stats().builds, 1u);
}

TEST(DeadlineTableCache, ArtifactWithNonFiniteCellsIsRejected) {
  const TempDir dir("nonfinite");
  const DeadlineTableKey key = small_key();

  // Well-formed container (checksums computed over the poisoned bytes),
  // NaN in the last cell: only the decode-time finiteness hardening — not
  // the checksum — stands between this file and NaN deadlines in every
  // episode.
  const auto table = builder_for(key)();
  std::string payload;
  BinaryWriter writer(payload);
  table->encode(writer);
  const std::uint64_t nan_bits = 0x7ff8000000000000ull;
  for (int i = 0; i < 8; ++i)
    payload[payload.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>((nan_bits >> (8 * i)) & 0xff);
  artifact_detail::write_artifact(dir.disk(), LipschitzTableTraits::kind(),
                                  LipschitzTableTraits::version(), key.digest(),
                                  payload);

  DeadlineTableCache cache;
  const auto rebuilt = cache.get(key, dir.disk(), builder_for(key));
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_EQ(cache.stats().disk_failures, 1u);
  EXPECT_EQ(cache.stats().builds, 1u);
}

// --- run_episode wiring -----------------------------------------------------

ScenarioConfig shortened(ScenarioConfig config) {
  config.road.length = 45.0;
  config.max_episode_s = 4.0;
  config.table.distance_bins = 9;
  config.table.bearing_bins = 7;
  config.table.speed_bins = 5;
  return config;
}

TEST(TableCacheWiring, EpisodesWithIdenticalGeometryShareOneBuild) {
  DeadlineTableCache::global().clear();
  ScenarioConfig config = shortened(make_scenario("paper_default"));
  config.seed = 101;
  (void)run_episode(config);
  config.seed = 202;  // different world sample, identical table geometry
  (void)run_episode(config);

  const ArtifactStoreStats stats = DeadlineTableCache::global().stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(TableCacheWiring, CachedEpisodeBitIdenticalToUncached) {
  DeadlineTableCache::global().clear();
  ScenarioConfig cached = shortened(make_scenario("dense_field"));
  cached.seed = 7;
  ScenarioConfig uncached = cached;
  uncached.table_cache = false;

  // Warm the cache, then compare a cache-hit episode against the direct
  // build — every scalar must match bit for bit.
  (void)run_episode(cached);
  const EpisodeResult hit = run_episode(cached);
  const EpisodeResult fresh = run_episode(uncached);
  EXPECT_EQ(hit.duration_s, fresh.duration_s);
  EXPECT_EQ(hit.progress_m, fresh.progress_m);
  EXPECT_EQ(hit.min_h, fresh.min_h);
  EXPECT_EQ(hit.intervals, fresh.intervals);
  EXPECT_EQ(hit.mean_delta_max(), fresh.mean_delta_max());
  EXPECT_GE(DeadlineTableCache::global().stats().hits, 1u);
}

TEST(TableCacheWiring, ConfiguredDirReachesRunEpisode) {
  // The artifact dir is store state set once per process, not a scenario
  // setting: run_episode must use it, and a table loaded from it must not
  // move a result bit.
  const TempDir dir("wiring");
  DeadlineTableCache::global().clear();
  DeadlineTableCache::global().configure(dir.disk());
  ScenarioConfig a = shortened(make_scenario("paper_default"));
  a.seed = 5;
  ScenarioConfig uncached = a;
  uncached.table_cache = false;

  (void)run_episode(a);  // builds and stores the table
  const ArtifactStoreStats cold = DeadlineTableCache::global().stats();
  DeadlineTableCache::global().clear();  // keeps the configured dir
  const EpisodeResult loaded = run_episode(a);
  const ArtifactStoreStats warm = DeadlineTableCache::global().stats();
  DeadlineTableCache::global().configure(ArtifactDiskOptions{});
  EXPECT_EQ(cold.builds, 1u);
  EXPECT_EQ(cold.disk_stores, 1u);
  EXPECT_EQ(warm.builds, 0u);
  EXPECT_EQ(warm.disk_loads, 1u);
  EXPECT_EQ(warm.disk_failures, 0u);
  const EpisodeResult fresh = run_episode(uncached);
  EXPECT_EQ(loaded.duration_s, fresh.duration_s);
  EXPECT_EQ(loaded.progress_m, fresh.progress_m);
  EXPECT_EQ(loaded.min_h, fresh.min_h);
  EXPECT_EQ(loaded.intervals, fresh.intervals);
  EXPECT_EQ(loaded.mean_delta_max(), fresh.mean_delta_max());
}

TEST(TableCacheWiring, DistinctObstacleSpeedsAreDistinctKeys) {
  // Moving obstacles raise the effective environment_speed the table is
  // built against; two worlds with different speeds MUST occupy two cache
  // entries even though every configured table knob is identical.
  DeadlineTableCache::global().clear();
  ScenarioConfig slow = shortened(make_scenario("crossing_pedestrians"));
  ASSERT_TRUE(slow.moving_obstacles);
  slow.seed = 11;
  ScenarioConfig fast = slow;
  fast.obstacle_osc_amplitude *= 2.0;  // doubles the speed bound

  (void)run_episode(slow);
  (void)run_episode(fast);
  EXPECT_EQ(DeadlineTableCache::global().stats().builds, 2u);
  EXPECT_EQ(DeadlineTableCache::global().size(), 2u);

  // Same speeds, different seed: the sampled world differs but the table
  // geometry does not — the entry is shared.
  ScenarioConfig other_seed = slow;
  other_seed.seed = 12;
  (void)run_episode(other_seed);
  EXPECT_EQ(DeadlineTableCache::global().stats().builds, 2u);
}

TEST(TableCacheWiring, MovingObstacleDigestNamesTheStoredTable) {
  // The sweep schedules and labels points by scenario_table_digest, which
  // replays run_episode's world sampling for the moving-obstacle raise.
  // The table run_episode actually stores must be the one it names.
  for (const char* name : {"crossing_pedestrians", "drifting_convoy"}) {
    for (const std::uint64_t seed : {5u, 900u, 31337u}) {
      ScenarioConfig config = shortened(make_scenario(name));
      ASSERT_TRUE(config.moving_obstacles) << name;
      config.seed = seed;
      const TempDir dir("moving_digest");
      DeadlineTableCache::global().clear();
      DeadlineTableCache::global().configure(dir.disk());
      (void)run_episode(config);
      DeadlineTableCache::global().configure(ArtifactDiskOptions{});
      std::vector<std::string> stored;
      for (const auto& entry : std::filesystem::directory_iterator(dir.path))
        if (entry.path().extension() == ".bin")
          stored.push_back(entry.path().filename().string());

      Rng master(config.seed);
      Rng obstacle_rng = master.split();
      DeadlineTableKey key;
      key.table = config.table;
      key.table.max_distance = config.interval.sensing_range;
      key.interval = config.interval;
      key.interval.environment_speed =
          std::max(config.interval.environment_speed,
                   make_moving_obstacles(config, obstacle_rng)
                       .max_obstacle_speed());
      key.barrier = config.barrier;
      key.road = config.road;
      key.body_radius = config.barrier.body_radius;
      EXPECT_GT(key.interval.environment_speed,
                config.interval.environment_speed)
          << name;
      EXPECT_EQ(key.digest(), scenario_table_digest(config))
          << name << " seed " << seed;
      EXPECT_EQ(stored,
                std::vector<std::string>{DeadlineTableCache::artifact_name(key)})
          << name << " seed " << seed;
    }
  }
}

TEST(TableCacheWiring, RuntimeSpeedRaiseMatchesExplicitEnvironmentSpeed) {
  // The key must fingerprint the *effective* interval config: a static
  // world configured with environment_speed = v shares its table with a
  // moving world whose runtime raise lands on exactly the same v.
  DeadlineTableCache::global().clear();
  ScenarioConfig moving = shortened(make_scenario("crossing_pedestrians"));
  moving.seed = 31;
  constexpr double kTwoPi = 6.28318530717958647692;
  const double raised =
      moving.obstacle_drift_speed +
      moving.obstacle_osc_amplitude * (kTwoPi / moving.obstacle_osc_period);

  ScenarioConfig still = moving;
  still.moving_obstacles = false;
  still.interval.environment_speed = raised;

  (void)run_episode(moving);
  (void)run_episode(still);
  EXPECT_EQ(DeadlineTableCache::global().stats().builds, 1u);
  EXPECT_EQ(DeadlineTableCache::global().stats().hits, 1u);
}

}  // namespace
}  // namespace seo
