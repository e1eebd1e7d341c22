// Tests for the parallel execution subsystem: the pool's one fan-out entry
// point (run_capped coverage, chunking, exception propagation, nesting,
// concurrent callers, stats) and the serial-equivalence guarantee of its
// table user — a DeadlineTable built with N threads is bit-identical to the
// serial build.  run_capped always uses the global pool; on a one-worker
// host it runs every range inline, and the tests below hold either way.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/binary_io.hpp"
#include "safety/deadline_table.hpp"
#include "safety/safe_interval.hpp"
#include "util/expect.hpp"
#include "util/thread_pool.hpp"

namespace seo {
namespace {

using Range = std::pair<std::size_t, std::size_t>;

bool pool_fans_out() { return ThreadPool::global().size() > 1; }

TEST(ThreadPool, RunCappedCoversEveryIndexOnce) {
  for (const std::size_t cap : {2u, 3u, 4u, 8u, 997u, 5000u}) {
    std::vector<std::atomic<int>> hits(997);
    ThreadPool::run_capped(0, hits.size(), cap,
                           [&](std::size_t lo, std::size_t hi) {
                             for (std::size_t i = lo; i < hi; ++i) ++hits[i];
                           });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "cap " << cap;
  }
}

TEST(ThreadPool, RunCappedHandlesEmptyAndOneChunkRanges) {
  int calls = 0;
  ThreadPool::run_capped(5, 5, 4, [&](std::size_t, std::size_t) { ++calls; });
  ThreadPool::run_capped(7, 3, 4, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);

  // A one-index range, or a cap of 0 or 1, is one chunk run inline on the
  // calling thread.
  const auto caller = std::this_thread::get_id();
  for (const auto& [begin, end, cap] :
       std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>{
           {3, 4, 8}, {0, 10, 1}, {0, 10, 0}}) {
    std::vector<Range> chunks;
    ThreadPool::run_capped(begin, end, cap,
                           [&](std::size_t lo, std::size_t hi) {
                             EXPECT_EQ(std::this_thread::get_id(), caller);
                             chunks.emplace_back(lo, hi);
                           });
    EXPECT_EQ(chunks, (std::vector<Range>{{begin, end}}));
  }
}

TEST(ThreadPool, RunCappedSplitsIntoAtMostCapContiguousChunks) {
  // 10 indices under a cap of 3: chunks of ceil(10 / 3) = 4.
  std::mutex mutex;
  std::vector<Range> chunks;
  ThreadPool::run_capped(0, 10, 3, [&](std::size_t lo, std::size_t hi) {
    std::lock_guard<std::mutex> lock(mutex);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  const std::vector<Range> expected =
      pool_fans_out() ? std::vector<Range>{{0, 4}, {4, 8}, {8, 10}}
                      : std::vector<Range>{{0, 10}};
  EXPECT_EQ(chunks, expected);
}

TEST(ThreadPool, RunCappedRethrowsAndPoolSurvives) {
  for (int repeat = 0; repeat < 20; ++repeat) {
    std::atomic<int> ran{0};
    EXPECT_THROW(ThreadPool::run_capped(0, 100, 8,
                                        [&](std::size_t lo, std::size_t) {
                                          ++ran;
                                          if (lo == 0 || lo == 39)
                                            throw std::runtime_error("chunk");
                                        }),
                 std::runtime_error);
    // Every chunk ran to the join before the rethrow.
    EXPECT_EQ(ran.load(), pool_fans_out() ? 8 : 1);
  }
  // No worker died: the pool still completes work.
  std::atomic<int> sum{0};
  ThreadPool::run_capped(0, 10, 10, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, NestedRunCappedRunsInline) {
  std::atomic<int> total{0};
  std::atomic<int> nested_calls{0};
  ThreadPool::run_capped(0, 4, 4, [&](std::size_t lo, std::size_t hi) {
    const auto chunk_thread = std::this_thread::get_id();
    for (std::size_t i = lo; i < hi; ++i) {
      // A fan-out from inside a chunk runs inline as one chunk.
      ThreadPool::run_capped(0, 8, 4, [&](std::size_t l2, std::size_t h2) {
        EXPECT_EQ(std::this_thread::get_id(), chunk_thread);
        ++nested_calls;
        total += static_cast<int>(h2 - l2);
      });
    }
  });
  EXPECT_EQ(total.load(), 32);
  EXPECT_EQ(nested_calls.load(), 4);
}

TEST(ThreadPool, ConcurrentCallersEachGetFullCoverage) {
  // Two non-pool threads fan out on the same pool at once.  A waiting
  // caller runs whatever is queued, including the other caller's chunks,
  // and must still return only once its own chunks are done.
  constexpr int kRounds = 50;
  const auto caller = [](std::vector<int>& failures, int id) {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<std::atomic<int>> hits(64 + 7 * id);
      ThreadPool::run_capped(0, hits.size(), 4 + id,
                             [&](std::size_t lo, std::size_t hi) {
                               for (std::size_t i = lo; i < hi; ++i) ++hits[i];
                               std::this_thread::yield();
                             });
      for (const auto& h : hits)
        if (h.load() != 1) failures.push_back(round);
    }
  };
  std::vector<std::vector<int>> failures(2);
  // seo-lint: allow(raw-thread) -- the callers must be threads outside the
  // pool; a fan-out from inside a pool chunk would run inline.
  std::vector<std::thread> callers;
  for (int id = 0; id < 2; ++id)
    callers.emplace_back(caller, std::ref(failures[id]), id);
  for (auto& t : callers) t.join();
  EXPECT_TRUE(failures[0].empty());
  EXPECT_TRUE(failures[1].empty());
}

TEST(ThreadPool, StatsCountQueuedChunksAndReset) {
  ThreadPool& pool = ThreadPool::global();
  pool.reset_stats();
  std::atomic<int> hits{0};
  ThreadPool::run_capped(0, 100, 4, [&](std::size_t lo, std::size_t hi) {
    hits.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(hits.load(), 100);
  // Counters are recorded before run_capped returns, so they are exact here.
  ThreadPoolStats stats = pool.stats();
  const std::uint64_t queued = pool_fans_out() ? 4 : 0;
  EXPECT_EQ(stats.submitted, queued);
  EXPECT_EQ(stats.executed, queued);
  EXPECT_LE(stats.inline_runs, queued);
  EXPECT_EQ(stats.max_queue_depth, queued);
  EXPECT_EQ(stats.steals, 0u);
  EXPECT_GE(stats.busy_s, 0.0);

  // Inline runs (cap 1, nested) queue nothing.
  ThreadPool::run_capped(0, 100, 1, [](std::size_t, std::size_t) {});
  EXPECT_EQ(pool.stats().submitted, queued);

  pool.reset_stats();
  stats = pool.stats();
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.executed, 0u);
  EXPECT_EQ(stats.inline_runs, 0u);
  EXPECT_EQ(stats.max_queue_depth, 0u);
  EXPECT_EQ(stats.busy_s, 0.0);
}

TEST(ThreadPool, BusyFractionClampsAndScales) {
  ThreadPoolStats stats;
  stats.busy_s = 1.0;
  EXPECT_DOUBLE_EQ(stats.busy_fraction(2.0, 1), 0.5);
  EXPECT_DOUBLE_EQ(stats.busy_fraction(0.25, 2), 1.0);  // clamped
  EXPECT_DOUBLE_EQ(stats.busy_fraction(0.0, 4), 0.0);   // degenerate window
}

TEST(ThreadPool, ResolveThreadsMapsKnobToWorkerCount) {
  EXPECT_EQ(ThreadPool::resolve_threads(1), 1u);
  EXPECT_EQ(ThreadPool::resolve_threads(6), 6u);
  EXPECT_EQ(ThreadPool::resolve_threads(0), ThreadPool::hardware_threads());
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
  EXPECT_THROW(ThreadPool::resolve_threads(-1), ContractViolation);
  EXPECT_THROW(ThreadPool::resolve_threads(-3), ContractViolation);
}

// --- Serial equivalence of the parallel table build---------------------------

std::string table_bytes(const DeadlineTable& table) {
  std::string bytes;
  BinaryWriter out(bytes);
  table.encode(out);
  return bytes;
}

TEST(ParallelDeadlineTable, BitIdenticalToSerialBuild) {
  const Barrier barrier{BarrierConfig{}};
  const LipschitzSafeInterval source(LipschitzIntervalConfig{}, barrier);
  const double body = BarrierConfig{}.body_radius;

  DeadlineTableConfig serial_config;
  serial_config.threads = 1;
  const DeadlineTable serial(serial_config, source, body);

  for (const int threads : {2, 4, 8}) {
    DeadlineTableConfig parallel_config;
    parallel_config.threads = threads;
    const DeadlineTable parallel(parallel_config, source, body);
    // encode() writes raw IEEE-754 cell bits: identical bytes <=>
    // bit-identical cell values.
    EXPECT_EQ(table_bytes(serial), table_bytes(parallel))
        << "table built with " << threads << " threads diverged";
  }
}

}  // namespace
}  // namespace seo
