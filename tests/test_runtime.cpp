// Tests for SeoRuntime — the world-agnostic decision engine — driven by
// scripted hooks (no simulator): directive sequences per strategy, hook
// invocation discipline, tally bookkeeping, and fallback/apply accounting.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/runtime.hpp"
#include "util/expect.hpp"

namespace seo {
namespace {

SeoRuntime::Config config_for(std::vector<int> deltas, int cap = 4) {
  return SeoRuntime::Config{TimeBase(0.02), cap, std::move(deltas)};
}

/// Scripted environment: fixed deadline stream + controllable offload
/// state.
struct ScriptedEnv {
  std::vector<DeadlineSample> deadlines;
  std::size_t next = 0;
  int estimate = 1;
  bool fresh = false;
  int interval_starts = 0;

  SeoRuntime::Hooks hooks(bool offloading) {
    SeoRuntime::Hooks h;
    h.sample_deadline = [this]() -> DeadlineSample {
      const DeadlineSample s =
          deadlines[std::min(next, deadlines.size() - 1)];
      ++next;
      return s;
    };
    h.on_interval_start = [this] { ++interval_starts; };
    if (offloading) {
      h.estimate_periods = [this](std::size_t) { return estimate; };
      h.remote_fresh = [this](std::size_t) { return fresh; };
    }
    return h;
  }
};

TEST(SeoRuntime, GatingDirectiveSequenceAtDeltaMax4) {
  ScriptedEnv env;
  env.deadlines = {{true, 0.08}};  // delta_max = 4 forever
  SeoRuntime runtime(config_for({1, 2}), std::make_unique<GatingStrategy>(),
                     env.hooks(false));

  // Tick 0: both pipelines have frames; p1 gates, p2 gates.
  auto r0 = runtime.tick();
  EXPECT_TRUE(r0.interval_started);
  ASSERT_EQ(r0.directives.size(), 2u);
  EXPECT_EQ(r0.directives[0].action, FrameAction::kGate);
  EXPECT_EQ(r0.directives[1].action, FrameAction::kGate);

  // Tick 1: only p1 (delta 2 has no frame).
  auto r1 = runtime.tick();
  ASSERT_EQ(r1.directives.size(), 1u);
  EXPECT_EQ(r1.directives[0].pipeline, 0u);
  EXPECT_EQ(r1.directives[0].action, FrameAction::kGate);

  // Tick 2: p1 gates, p2 hits its deadline slot.
  auto r2 = runtime.tick();
  ASSERT_EQ(r2.directives.size(), 2u);
  EXPECT_EQ(r2.directives[0].action, FrameAction::kGate);
  EXPECT_EQ(r2.directives[1].action, FrameAction::kRunLocal);
  EXPECT_EQ(r2.directives[1].outcome, SlotOutcome::kLocalDeadline);

  // Tick 3: p1's deadline slot.
  auto r3 = runtime.tick();
  ASSERT_EQ(r3.directives.size(), 1u);
  EXPECT_EQ(r3.directives[0].outcome, SlotOutcome::kLocalDeadline);

  // Tick 4: new interval.
  auto r4 = runtime.tick();
  EXPECT_TRUE(r4.interval_started);
  EXPECT_EQ(env.interval_starts, 2);
}

TEST(SeoRuntime, RecordAccumulatesTallies) {
  ScriptedEnv env;
  env.deadlines = {{true, 0.08}};
  SeoRuntime runtime(config_for({1}), std::make_unique<GatingStrategy>(),
                     env.hooks(false));
  for (int t = 0; t < 8; ++t) {
    const auto report = runtime.tick();
    for (const auto& d : report.directives) runtime.record(d);
  }
  // Two full intervals: 6 gated + 2 deadline runs.
  const BucketCounts total = runtime.tally(0).total();
  EXPECT_EQ(total.gated, 6u);
  EXPECT_EQ(total.local_deadline, 2u);
  EXPECT_EQ(runtime.intervals(), 2u);
}

TEST(SeoRuntime, UnrecordedDirectivesLeaveTalliesEmpty) {
  // The tally is the caller's report channel, not an automatic effect.
  ScriptedEnv env;
  env.deadlines = {{true, 0.08}};
  SeoRuntime runtime(config_for({1}), std::make_unique<GatingStrategy>(),
                     env.hooks(false));
  (void)runtime.tick();
  EXPECT_EQ(runtime.tally(0).total_frames(), 0u);
}

TEST(SeoRuntime, OffloadAppliesRemoteOnlyWhenUnconstrainedAndFresh) {
  ScriptedEnv env;
  env.deadlines = {{false, 0.0}};  // unconstrained stream
  env.fresh = true;
  SeoRuntime runtime(config_for({1}), std::make_unique<OffloadStrategy>(),
                     env.hooks(true));
  // cap=4: ticks 0..2 offload; tick 3 applies remote.
  std::vector<FrameAction> actions;
  for (int t = 0; t < 4; ++t) {
    const auto r = runtime.tick();
    ASSERT_EQ(r.directives.size(), 1u);
    actions.push_back(r.directives[0].action);
    runtime.record(r.directives[0], 0.01);
  }
  EXPECT_EQ(actions, (std::vector<FrameAction>{
                         FrameAction::kOffload, FrameAction::kOffload,
                         FrameAction::kOffload, FrameAction::kApplyRemote}));
  EXPECT_EQ(runtime.tally(0).total().remote_applied, 1u);
  EXPECT_EQ(runtime.tally(0).total().local_fallback, 0u);
  EXPECT_NEAR(runtime.tally(0).total_tx_energy_j(), 0.04, 1e-12);
}

TEST(SeoRuntime, OffloadFallsBackWhenStale) {
  ScriptedEnv env;
  env.deadlines = {{false, 0.0}};
  env.fresh = false;  // responses never arrive in time
  SeoRuntime runtime(config_for({1}), std::make_unique<OffloadStrategy>(),
                     env.hooks(true));
  for (int t = 0; t < 4; ++t) {
    const auto r = runtime.tick();
    runtime.record(r.directives[0]);
  }
  EXPECT_EQ(runtime.tally(0).total().local_fallback, 1u);
  EXPECT_EQ(runtime.tally(0).total().remote_applied, 0u);
}

TEST(SeoRuntime, ConstrainedDeadlineSlotIsNeverRemote) {
  ScriptedEnv env;
  env.deadlines = {{true, 0.08}};  // constrained delta_max = 4
  env.fresh = true;                // fresh results available...
  SeoRuntime runtime(config_for({1}), std::make_unique<OffloadStrategy>(),
                     env.hooks(true));
  for (int t = 0; t < 4; ++t) {
    const auto r = runtime.tick();
    ASSERT_EQ(r.directives.size(), 1u);
    if (t < 3) {
      EXPECT_EQ(r.directives[0].action, FrameAction::kOffload);
    } else {
      // ...but the constrained deadline slot still runs locally.
      EXPECT_EQ(r.directives[0].action, FrameAction::kRunLocal);
      EXPECT_EQ(r.directives[0].outcome, SlotOutcome::kLocalDeadline);
    }
    runtime.record(r.directives[0]);
  }
  EXPECT_EQ(runtime.tally(0).total().remote_applied, 0u);
}

TEST(SeoRuntime, SlowEstimateDisablesOffloading) {
  ScriptedEnv env;
  env.deadlines = {{true, 0.08}};
  env.estimate = 9;  // delta-hat far beyond any window
  SeoRuntime runtime(config_for({1}), std::make_unique<OffloadStrategy>(),
                     env.hooks(true));
  const auto r = runtime.tick();
  ASSERT_EQ(r.directives.size(), 1u);
  EXPECT_EQ(r.directives[0].action, FrameAction::kRunLocal);
  EXPECT_EQ(r.directives[0].outcome, SlotOutcome::kLocalScheduled);
}

TEST(SeoRuntime, FeasibilityIsReevaluatedPerInterval) {
  ScriptedEnv env;
  env.deadlines = {{true, 0.08}};
  env.estimate = 9;
  SeoRuntime runtime(config_for({1}), std::make_unique<OffloadStrategy>(),
                     env.hooks(true));
  (void)runtime.tick();  // interval 1: infeasible
  for (int t = 1; t < 4; ++t) (void)runtime.tick();
  env.estimate = 1;      // channel recovered
  const auto r = runtime.tick();  // interval 2 start
  EXPECT_TRUE(r.interval_started);
  EXPECT_EQ(r.directives[0].action, FrameAction::kOffload);
}

TEST(SeoRuntime, BucketsFollowIntervalKind) {
  ScriptedEnv env;
  env.deadlines = {{false, 0.0}, {true, 0.05}};  // unconstrained, then d=2
  SeoRuntime runtime(config_for({1}), std::make_unique<GatingStrategy>(),
                     env.hooks(false));
  for (int t = 0; t < 6; ++t) {
    const auto r = runtime.tick();
    for (const auto& d : r.directives) runtime.record(d);
  }
  // Interval 1 (cap=4, unconstrained): 3 gated + 1 deadline in bucket 0.
  EXPECT_EQ(runtime.tally(0).bucket(kUnconstrainedBucket).gated, 3u);
  // Interval 2 (delta_max=2): 1 gated + 1 deadline in bucket 2.
  EXPECT_EQ(runtime.tally(0).bucket(2).gated, 1u);
  EXPECT_EQ(runtime.tally(0).bucket(2).local_deadline, 1u);
}

TEST(SeoRuntime, ScaledStrategyEmitsScaledDirectives) {
  ScriptedEnv env;
  env.deadlines = {{true, 0.08}};
  SeoRuntime runtime(config_for({1}), std::make_unique<ScaledStrategy>(),
                     env.hooks(false));
  const auto r = runtime.tick();
  EXPECT_EQ(r.directives[0].action, FrameAction::kRunScaled);
  EXPECT_EQ(r.directives[0].outcome, SlotOutcome::kScaledLocal);
}

TEST(SeoRuntime, Contracts) {
  ScriptedEnv env;
  env.deadlines = {{true, 0.08}};
  EXPECT_THROW(SeoRuntime(config_for({1}), nullptr, env.hooks(false)),
               ContractViolation);
  SeoRuntime::Hooks no_sampler;
  EXPECT_THROW(SeoRuntime(config_for({1}),
                          std::make_unique<GatingStrategy>(), no_sampler),
               ContractViolation);
  SeoRuntime runtime(config_for({1}), std::make_unique<GatingStrategy>(),
                     env.hooks(false));
  SeoRuntime::Directive bad;
  bad.pipeline = 5;
  EXPECT_THROW(runtime.record(bad), ContractViolation);
  EXPECT_THROW(runtime.tally(5), ContractViolation);
}

TEST(SeoRuntime, IntervalStartHookPrecedesDirectives) {
  // The on_interval_start hook must fire before freshness is consulted:
  // make freshness depend on a flag the hook sets.
  bool window_reset = false;
  bool fresh_seen_after_reset = false;
  SeoRuntime::Hooks hooks;
  hooks.sample_deadline = [] { return DeadlineSample{false, 0.0}; };
  hooks.on_interval_start = [&] { window_reset = true; };
  hooks.estimate_periods = [](std::size_t) { return 1; };
  hooks.remote_fresh = [&](std::size_t) {
    fresh_seen_after_reset = window_reset;
    return false;
  };
  SeoRuntime runtime(config_for({2}), std::make_unique<OffloadStrategy>(),
                     std::move(hooks));
  // delta=2, cap=4: tick 0 is an opt slot -> remote_fresh consulted.
  (void)runtime.tick();
  EXPECT_TRUE(fresh_seen_after_reset);
}

}  // namespace
}  // namespace seo
