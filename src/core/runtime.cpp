#include "core/runtime.hpp"

#include "util/expect.hpp"

namespace seo {

SeoRuntime::SeoRuntime(Config config,
                       std::unique_ptr<OptimizationStrategy> strategy,
                       Hooks hooks)
    : scheduler_(SeoScheduler::Config{config.deadline_cap}, config.time,
                 config.deltas),
      strategy_(std::move(strategy)),
      hooks_(std::move(hooks)) {
  SEO_EXPECT(strategy_ != nullptr);
  SEO_EXPECT(static_cast<bool>(hooks_.sample_deadline));
  offload_feasible_.assign(scheduler_.pipeline_count(), false);
  tallies_.assign(scheduler_.pipeline_count(),
                  PipelineTally(config.deadline_cap));
}

SeoRuntime::Directive SeoRuntime::classify(std::size_t pipeline,
                                           SlotKind kind,
                                           const SeoScheduler::Tick& tick) {
  Directive directive;
  directive.pipeline = pipeline;
  directive.bucket =
      tick.unconstrained ? kUnconstrainedBucket : tick.delta_max;

  FrameContext context;
  context.kind = kind;
  context.unconstrained = tick.unconstrained;
  context.delta_max = tick.delta_max;
  context.delta_i = scheduler_.delta(pipeline);
  context.offload_feasible = offload_feasible_[pipeline];
  context.remote_fresh =
      hooks_.remote_fresh ? hooks_.remote_fresh(pipeline) : false;

  switch (kind) {
    case SlotKind::kMandatoryLocal:
    case SlotKind::kPostDoneLocal:
      directive.action = FrameAction::kRunLocal;
      directive.outcome = SlotOutcome::kLocalScheduled;
      break;

    case SlotKind::kOptSlot: {
      directive.action = strategy_->opt_slot(context);
      switch (directive.action) {
        case FrameAction::kRunLocal:
          directive.outcome = SlotOutcome::kLocalScheduled;
          break;
        case FrameAction::kGate:
          directive.outcome = SlotOutcome::kGated;
          break;
        case FrameAction::kRunScaled:
          directive.outcome = SlotOutcome::kScaledLocal;
          break;
        case FrameAction::kOffload:
          directive.outcome = SlotOutcome::kOffloadTx;
          break;
        case FrameAction::kApplyRemote:
          SEO_ASSERT(false);  // not a legal opt-slot action
          break;
      }
      break;
    }

    case SlotKind::kDeadlineSlot: {
      directive.action = strategy_->deadline_slot(context);
      if (directive.action == FrameAction::kApplyRemote) {
        directive.outcome = SlotOutcome::kRemoteApplied;
      } else {
        SEO_ASSERT(directive.action == FrameAction::kRunLocal);
        // An expected-but-missing remote result is a safety fallback.
        if (context.offload_feasible && context.unconstrained &&
            !context.remote_fresh) {
          directive.outcome = SlotOutcome::kLocalFallback;
        } else {
          directive.outcome = SlotOutcome::kLocalDeadline;
        }
      }
      break;
    }

    case SlotKind::kNoFrame:
      SEO_ASSERT(false);
      break;
  }
  return directive;
}

SeoRuntime::TickReport SeoRuntime::tick() {
  TickReport report;
  tick_into(report);
  return report;
}

void SeoRuntime::tick_into(TickReport& report) {
  scheduler_.tick_into(hooks_.sample_deadline, tick_scratch_);
  const SeoScheduler::Tick& tick = tick_scratch_;

  report.directives.clear();
  report.interval_started = tick.interval_started;
  report.unconstrained = tick.unconstrained;
  report.delta_max = tick.delta_max;
  report.interval_tick = tick.interval_tick;

  if (tick.interval_started) {
    ++intervals_;
    if (tick.unconstrained) ++unconstrained_intervals_;
    if (hooks_.on_interval_start) hooks_.on_interval_start();
    for (std::size_t i = 0; i < scheduler_.pipeline_count(); ++i) {
      const int estimate =
          hooks_.estimate_periods ? hooks_.estimate_periods(i) : 0;
      offload_feasible_[i] =
          hooks_.estimate_periods &&
          offload_feasible(scheduler_.delta(i), tick.delta_max, estimate,
                           tick.unconstrained);
    }
  }

  current_bucket_ =
      tick.unconstrained ? kUnconstrainedBucket : tick.delta_max;

  for (std::size_t i = 0; i < tick.slots.size(); ++i) {
    if (tick.slots[i] == SlotKind::kNoFrame) continue;
    report.directives.push_back(classify(i, tick.slots[i], tick));
  }
}

bool SeoRuntime::pipeline_offload_feasible(std::size_t pipeline) const {
  SEO_EXPECT(pipeline < offload_feasible_.size());
  return offload_feasible_[pipeline];
}

void SeoRuntime::add_probe_energy(std::size_t pipeline, double tx_energy_j) {
  SEO_EXPECT(pipeline < tallies_.size());
  tallies_[pipeline].add_tx_energy(current_bucket_, tx_energy_j);
}

void SeoRuntime::record(const Directive& directive, double tx_energy_j) {
  SEO_EXPECT(directive.pipeline < tallies_.size());
  tallies_[directive.pipeline].record(directive.bucket, directive.outcome,
                                      tx_energy_j);
}

const PipelineTally& SeoRuntime::tally(std::size_t pipeline) const {
  SEO_EXPECT(pipeline < tallies_.size());
  return tallies_[pipeline];
}

}  // namespace seo
