// Counting-allocator proof that the per-tick hot paths (the barrier and
// safety filter, sensing, world physics, the SEO runtime tick) perform zero
// heap allocations in steady state.  This file overrides global operator new/delete for its own
// test binary (tests build one executable per file, so the override cannot
// leak into other suites); the counters are read around repeated calls
// after a warm-up call has grown every reusable buffer to capacity.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/runtime.hpp"
#include "dynamics/obstacle.hpp"
#include "safety/barrier.hpp"
#include "safety/safety_filter.hpp"
#include "sensors/detector.hpp"
#include "sim/world.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace seo {
namespace {

TEST(HotPathAllocations, BarrierFieldMinIsAllocationFree) {
  ObstacleField field;
  for (int i = 0; i < 12; ++i)
    field.push_back(Obstacle{{5.0 + 3.0 * i, (i % 2) ? 1.5 : -1.5}, 0.8});
  const Barrier barrier;
  VehicleState state;
  state.position = {0.0, 0.0};
  state.heading = 0.05;
  state.speed = 6.0;
  (void)barrier.value(state, field);  // warm-up (nothing to grow)

  const std::uint64_t before = g_allocations.load();
  double h = 0.0;
  for (int i = 0; i < 1000; ++i) h = barrier.value(state, field);
  EXPECT_EQ(g_allocations.load() - before, 0u)
      << "SoA min-over-obstacles kernel allocated";
  EXPECT_TRUE(std::isfinite(h));
}

TEST(HotPathAllocations, SafetyFilterIsAllocationFreeInSteadyState) {
  ObstacleField field;
  field.push_back(Obstacle{{20.0, 1.0}, 0.8});
  field.push_back(Obstacle{{32.0, -1.2}, 0.8});
  const SafetyFilter filter(SafetyFilterConfig{}, BicycleModel{}, Barrier{},
                            Road{});
  VehicleState far;
  far.position = {0.0, 0.0};
  far.heading = 0.05;
  far.speed = 8.5;
  VehicleState close = far;
  close.position = {16.5, 0.8};
  const Control raw{0.0, 0.4};
  // Warm-up (nothing to grow: the visit order is built by the constructor).
  ASSERT_FALSE(filter.filter(far, field, raw).engaged);
  ASSERT_TRUE(filter.filter(close, field, raw).engaged);

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 200; ++i) {
    ASSERT_FALSE(filter.filter(far, field, raw).engaged);
    ASSERT_TRUE(filter.filter(close, field, raw).engaged);
  }
  EXPECT_EQ(g_allocations.load() - before, 0u)
      << "SafetyFilter::filter allocated in steady state";
}

TEST(HotPathAllocations, DetectIntoReusesTheFrameBuffer) {
  ObstacleField field;
  for (int i = 0; i < 12; ++i)
    field.push_back(Obstacle{{2.0 * i, 0.5}, 0.5});
  SyntheticDetector detector(DetectorConfig{}, Rng(3));
  const VehicleState ego;
  DetectionSet frame;
  detector.detect_into(ego, field, 0.0, frame);  // warm-up sizes the buffer

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) detector.detect_into(ego, field, 0.02, frame);
  EXPECT_EQ(g_allocations.load() - before, 0u)
      << "detect_into allocated with a warmed frame";
  EXPECT_FALSE(frame.detections.empty());
}

TEST(HotPathAllocations, WorldApplyTickIsAllocationFreeInSteadyState) {
  ObstacleField field;
  field.push_back(Obstacle{{400.0, 0.0}, 1.0});  // far away: no termination
  Road road;
  VehicleState initial;
  initial.position = {0.0, 0.0};
  initial.speed = 2.0;
  World world(road, field, BicycleModel(BicycleParams{}), initial, 0.9);

  Control u;
  u.throttle = 0.1;
  u.steering = 0.0;
  world.apply(u, 0.05, 4);  // warm-up

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 200; ++i) world.apply(u, 0.05, 4);
  EXPECT_EQ(g_allocations.load() - before, 0u)
      << "World::apply allocated in steady state";
  EXPECT_FALSE(world.terminal());
}

TEST(HotPathAllocations, RuntimeTickIntoIsAllocationFree) {
  // Both strategies the episode loop runs through the decision path most:
  // gating, and offloading with its per-interval feasibility check and
  // per-slot freshness hook.  delta_max = 4 with tau = 20 ms, so 16 ticks
  // span four intervals.
  const auto run = [](std::unique_ptr<OptimizationStrategy> strategy,
                      bool offloading) {
    int interval_starts = 0;
    SeoRuntime::Hooks hooks;
    hooks.sample_deadline = [] { return DeadlineSample{true, 0.08}; };
    hooks.on_interval_start = [&interval_starts] { ++interval_starts; };
    if (offloading) {
      hooks.estimate_periods = [](std::size_t) { return 1; };
      hooks.remote_fresh = [](std::size_t) { return true; };
    }
    SeoRuntime runtime(SeoRuntime::Config{TimeBase(0.02), 4, {1, 2}},
                       std::move(strategy), std::move(hooks));
    SeoRuntime::TickReport report;
    for (int t = 0; t < 4; ++t) {  // warm-up: one interval grows the report
      runtime.tick_into(report);
      for (const auto& d : report.directives) runtime.record(d, 0.001);
    }

    const int starts_before = interval_starts;
    const std::uint64_t before = g_allocations.load();
    for (int t = 0; t < 16; ++t) {
      runtime.tick_into(report);
      for (const auto& d : report.directives) runtime.record(d, 0.001);
    }
    EXPECT_EQ(g_allocations.load() - before, 0u)
        << runtime.strategy().name() << ": tick_into allocated";
    EXPECT_GE(interval_starts - starts_before, 2);
  };
  run(std::make_unique<GatingStrategy>(), false);
  run(std::make_unique<OffloadStrategy>(), true);
}

}  // namespace
}  // namespace seo
