// Tests for the parallel execution subsystem: the work-stealing pool itself
// (submit futures, parallel_for coverage, exception propagation) and the
// serial-equivalence guarantee of its table user — a DeadlineTable built
// with N threads is bit-identical to the serial build.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/binary_io.hpp"
#include "safety/deadline_table.hpp"
#include "safety/safe_interval.hpp"
#include "util/thread_pool.hpp"

namespace seo {
namespace {

TEST(ThreadPool, SubmitReturnsFutureValues) {
  ThreadPool pool(4);
  auto a = pool.submit([] { return 7; });
  auto b = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(a.get(), 7);
  EXPECT_EQ(b.get(), "ok");
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(997);
  pool.parallel_for(0, hits.size(), 16, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForHandlesEmptyAndTinyRanges) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> sum{0};
  pool.parallel_for(0, 1, 64, [&](std::size_t lo, std::size_t hi) {
    sum += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(sum.load(), 1);
}

TEST(ThreadPool, ParallelForCappedBoundsChunkCountAndCoversRange) {
  ThreadPool pool(8);
  std::atomic<int> chunks{0};
  std::vector<std::atomic<int>> hits(10);
  pool.parallel_for_capped(0, hits.size(), 3,
                           [&](std::size_t lo, std::size_t hi) {
                             ++chunks;
                             for (std::size_t i = lo; i < hi; ++i) ++hits[i];
                           });
  EXPECT_LE(chunks.load(), 3);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  // Cap of 1 (or 0) runs inline as a single chunk.
  chunks = 0;
  pool.parallel_for_capped(0, 10, 1,
                           [&](std::size_t, std::size_t) { ++chunks; });
  EXPECT_EQ(chunks.load(), 1);
}

TEST(ThreadPool, SubmittedExceptionSurfacesAtGet) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The worker that ran the throwing task must still be alive.
  EXPECT_EQ(pool.submit([] { return 3; }).get(), 3);
}

TEST(ThreadPool, ParallelForRethrowsAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100, 1,
                        [](std::size_t lo, std::size_t) {
                          if (lo == 42) throw std::runtime_error("chunk 42");
                        }),
      std::runtime_error);
  // All chunks joined, no worker died: the pool still completes work.
  std::atomic<int> sum{0};
  pool.parallel_for(0, 10, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(0, 4, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      // Nested call from a worker must not deadlock.
      pool.parallel_for(0, 8, 2, [&](std::size_t l2, std::size_t h2) {
        total += static_cast<int>(h2 - l2);
      });
    }
  });
  EXPECT_EQ(total.load(), 32);
}

// The executed/busy counters are bumped after a task's result is published,
// so a caller returning from get()/parallel_for can observe them mid-update;
// wait for the bookkeeping to drain before asserting exact counts.
ThreadPoolStats drained_stats(const ThreadPool& pool) {
  ThreadPoolStats stats = pool.stats();
  for (int i = 0; i < 2000 && stats.executed < stats.submitted; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = pool.stats();
  }
  return stats;
}

TEST(ThreadPool, StatsCountSubmittedAndExecuted) {
  ThreadPool pool(2);
  constexpr std::size_t kTasks = 64;
  std::vector<std::future<int>> futures;
  futures.reserve(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i)
    futures.push_back(pool.submit([i] { return static_cast<int>(i); }));
  for (auto& f : futures) f.get();
  const ThreadPoolStats stats = drained_stats(pool);
  EXPECT_EQ(stats.submitted, kTasks);
  EXPECT_EQ(stats.executed, kTasks);
  EXPECT_GE(stats.max_queue_depth, 1u);
  EXPECT_GE(stats.busy_s, 0.0);
}

TEST(ThreadPool, StatsCountParallelForChunksAndReset) {
  ThreadPool pool(3);
  std::atomic<int> hits{0};
  pool.parallel_for(0, 100, 4, [&](std::size_t lo, std::size_t hi) {
    hits.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(hits.load(), 100);
  ThreadPoolStats stats = drained_stats(pool);
  EXPECT_GT(stats.submitted, 0u);
  // Every chunk ran somewhere: a worker's own queue, a steal, or inline in
  // the waiting caller — executed accounts for all of them.
  EXPECT_EQ(stats.executed, stats.submitted);
  pool.reset_stats();
  stats = pool.stats();
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.executed, 0u);
  EXPECT_EQ(stats.steals, 0u);
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
