// SeoRuntime — the complete SEO decision engine behind a world-agnostic
// API.  It owns the scheduler (Algorithm 1), the strategy (Omega), the
// offload feasibility state and the energy tallies; the embedding
// application owns the world: sensors, models, radios and actuators.
//
// Per base period the caller invokes tick() with three environment probes
// (deadline sample, per-pipeline delta-hat, per-pipeline remote freshness)
// and receives a list of directives — which pipeline must run the full
// model, which may gate, scale or transmit.  After executing a directive
// the caller reports it back through record() (with the measured radio
// energy for transmissions), which maintains the per-pipeline tallies that
// the energy reports consume.  The tallies are the runtime's only counters:
// remote results applied and late-response fallbacks are the
// kRemoteApplied / kLocalFallback outcomes of the recorded directives.
//
// The simulator's run_episode() is itself a client of this API; embedded
// deployments would wire the hooks to real pipelines instead.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/scheduler.hpp"
#include "core/strategy.hpp"
#include "energy/tally.hpp"

namespace seo {

class SeoRuntime {
 public:
  struct Config {
    TimeBase time;
    int deadline_cap = 4;
    std::vector<int> deltas;  ///< delta_i per optimizable pipeline
  };

  /// One instruction for one pipeline at the current tick.
  struct Directive {
    std::size_t pipeline = 0;
    FrameAction action = FrameAction::kRunLocal;
    SlotOutcome outcome = SlotOutcome::kLocalScheduled;
    int bucket = kUnconstrainedBucket;  ///< tally bucket of this frame
  };

  struct TickReport {
    bool interval_started = false;
    bool unconstrained = false;
    int delta_max = 0;
    int interval_tick = 0;
    std::vector<Directive> directives;
  };

  /// Environment probes supplied by the embedding application.
  struct Hooks {
    /// Lambda''-based deadline probe (invoked once per interval).
    std::function<DeadlineSample()> sample_deadline;
    /// Current delta-hat in base periods for a pipeline (offload mode).
    /// May be null for strategies that never offload.
    std::function<int(std::size_t)> estimate_periods;
    /// Whether a sufficiently fresh remote result is available for a
    /// pipeline.  May be null for strategies that never offload.
    std::function<bool(std::size_t)> remote_fresh;
    /// Invoked immediately after a new interval's deadline is sampled and
    /// before any directive of that interval is classified — the place to
    /// reset interval-relative state (e.g. the freshness window origin).
    std::function<void()> on_interval_start;
  };

  SeoRuntime(Config config, std::unique_ptr<OptimizationStrategy> strategy,
             Hooks hooks);

  /// Advances one base period and returns the directives to execute.
  TickReport tick();

  /// `tick` into a caller-owned report (directives overwritten in place):
  /// with a reused report the per-period decision path is allocation-free.
  void tick_into(TickReport& report);

  /// Reports a completed directive; `tx_energy_j` is the radio energy of a
  /// kOffload / kApplyRemote transmission (0 otherwise).
  void record(const Directive& directive, double tx_energy_j = 0.0);

  std::size_t pipeline_count() const { return scheduler_.pipeline_count(); }
  const PipelineTally& tally(std::size_t pipeline) const;
  const OptimizationStrategy& strategy() const { return *strategy_; }

  /// Whether offloading was judged feasible for `pipeline` in the current
  /// interval (section V-A rule; false for non-offloading strategies).
  bool pipeline_offload_feasible(std::size_t pipeline) const;

  /// Charges probe-transmission radio energy (a measurement the embedding
  /// application sends to re-estimate delta-hat while offloading is judged
  /// infeasible) to the current interval's tally bucket.
  void add_probe_energy(std::size_t pipeline, double tx_energy_j);

  /// Interval statistics.
  std::uint64_t intervals() const { return intervals_; }
  std::uint64_t unconstrained_intervals() const {
    return unconstrained_intervals_;
  }

 private:
  Directive classify(std::size_t pipeline, SlotKind kind,
                     const SeoScheduler::Tick& tick);

  SeoScheduler scheduler_;
  std::unique_ptr<OptimizationStrategy> strategy_;
  Hooks hooks_;
  SeoScheduler::Tick tick_scratch_;  ///< reused per tick (slots buffer)
  std::vector<bool> offload_feasible_;
  int current_bucket_ = kUnconstrainedBucket;
  std::vector<PipelineTally> tallies_;
  std::uint64_t intervals_ = 0;
  std::uint64_t unconstrained_intervals_ = 0;
};

}  // namespace seo
