// The SEO runtime scheduler — Algorithm 1 of the paper together with the
// safety-aware optimized model schedule of eq. (6).
//
// Operation: time advances in base periods (ticks).  At the start of every
// optimization interval a fresh safety deadline Delta_max is sampled from
// the lookup table, discretized to delta_max (eq. 5) and clamped to
// [1, cap].  Within the interval, every optimizable pipeline N_i with
// delta_i < delta_max has its frames classified as:
//
//   * optimization slots (Omega may be applied: gate or offload) for frame
//     ticks strictly before its deadline slot,
//   * the deadline slot at n = delta_i * floor((delta_max - delta_i) /
//     delta_i) — the last own-period frame that still completes by
//     delta_max — where the full model N_i must be invoked,
//   * post-done frames (natural-schedule local runs after the deadline
//     slot while other pipelines finish their intervals).
//
// Pipelines with delta_i >= delta_max get no optimization slots at all
// (eq. 6's else-branch) and run at their natural schedule.  When every
// pipeline has produced its mandatory output (all done_i true, Algorithm 1
// lines 22-23), the interval ends and a new Delta_max is sampled at the
// next tick.
//
// Deviations from the paper's pseudocode (under-specifications repaired):
// natural-schedule invocation for delta_i >= delta_max, interval length =
// max_i(deadline slot) + 1, and delta_max = 0 clamped to 1.
//
// The scheduler is deliberately *pure* scheduling logic — no world, no
// energy, no radio — so its invariants are directly unit-testable.  The
// strategy layer (gating/offloading) maps slot kinds to outcomes.
#pragma once

#include <functional>
#include <vector>

#include "core/timebase.hpp"
#include "util/expect.hpp"

namespace seo {

/// How the deadline provider answered at an interval start.
struct DeadlineSample {
  /// False when no obstacle is in sensing range: the formal deadline is
  /// vacuous.  The scheduler then uses the cap as a refresh period and
  /// marks the interval unconstrained (strategies may exploit this — see
  /// OffloadPlanner).
  bool constrained = false;
  double delta_max_s = 0.0;  ///< continuous Delta_max (when constrained)
};

/// Classification of one pipeline at one tick.
enum class SlotKind {
  kNoFrame,        ///< no sensor frame for this pipeline at this tick
  kMandatoryLocal, ///< delta_i >= delta_max: full model, natural schedule
  kOptSlot,        ///< optimization slot: Omega may replace the model
  kDeadlineSlot,   ///< the eq.-(6) invocation meeting the safety deadline
  kPostDoneLocal,  ///< natural-schedule local run after this pipeline's done
};

class SeoScheduler {
 public:
  struct Config {
    int deadline_cap = 4;  ///< delta_max clamp (paper's observed domain 1..4)
  };

  /// `deltas`: discretized period delta_i per optimizable pipeline.
  SeoScheduler(Config config, TimeBase time, std::vector<int> deltas);

  /// Everything a strategy needs to act on one tick.
  struct Tick {
    bool interval_started = false; ///< a new Delta_max was sampled this tick
    bool unconstrained = false;    ///< current interval is unconstrained
    int delta_max = 0;             ///< current discretized deadline (1..cap)
    int interval_tick = 0;         ///< n within the current interval
    std::vector<SlotKind> slots;   ///< per optimizable pipeline
  };

  /// Advances one base period.  `sample` is invoked only when a new
  /// interval starts (Algorithm 1's lookup-table probe on new-Delta).
  Tick tick(const std::function<DeadlineSample()>& sample);

  /// `tick` into a caller-owned result: the slots vector is overwritten in
  /// place, so a reused Tick makes the per-period path allocation-free.
  void tick_into(const std::function<DeadlineSample()>& sample, Tick& out);

  std::size_t pipeline_count() const { return deltas_.size(); }
  int delta(std::size_t i) const { return deltas_[i]; }
  const Config& config() const { return config_; }
  const TimeBase& time() const { return time_; }

  /// Deadline slot for pipeline period `delta_i` under deadline
  /// `delta_max` (exposed for tests/analytics): the last multiple of
  /// delta_i that is <= delta_max - delta_i, or -1 when delta_i >=
  /// delta_max (no optimization authorized).
  static int deadline_slot(int delta_i, int delta_max);

 private:
  void start_interval(const DeadlineSample& sample);

  Config config_;
  TimeBase time_;
  std::vector<int> deltas_;

  // Interval state.
  bool need_new_interval_ = true;
  bool unconstrained_ = false;
  int delta_max_ = 0;
  int n_ = 0;  ///< tick within interval
  std::vector<int> deadline_slots_;  ///< per pipeline; -1 = mandatory mode
  std::vector<bool> done_;
};

}  // namespace seo
