#include "sim/experiment.hpp"

#include <cmath>
#include <vector>

#include "util/expect.hpp"
#include "util/log.hpp"

namespace seo {

EnergyComparison ExperimentResult::pipeline_model_energy(
    std::size_t i, const PlatformPowerModel& pm) const {
  SEO_EXPECT(i < pipelines.size());
  const auto& p = pipelines[i];
  return model_energy(p.tally, p.model, p.sensor.period_s, pm,
                      &p.scaled_model);
}

EnergyComparison ExperimentResult::combined_model_energy(
    const PlatformPowerModel& pm) const {
  EnergyComparison total;
  for (std::size_t i = 0; i < pipelines.size(); ++i)
    total += pipeline_model_energy(i, pm);
  return total;
}

namespace {

/// Folds one finished episode into the aggregate, in attempt order.
void consume_episode(const ExperimentConfig& config,
                     const EpisodeResult& episode, ExperimentResult& result) {
  ++result.attempts;
  // Outcome counters cover every consumed attempt, so sweep rows report
  // collision/off-road/timeout rates even when require_success is off and
  // the failed episodes merge into the aggregate below.
  if (episode.collided) ++result.collisions;
  if (episode.off_road) ++result.off_roads;
  if (episode.timed_out) ++result.timeouts;
  if (config.require_success && !episode.success()) {
    ++result.failures;
    return;
  }

  SEO_ASSERT(episode.pipelines.size() == result.pipelines.size());
  for (std::size_t i = 0; i < episode.pipelines.size(); ++i) {
    auto& agg = result.pipelines[i];
    const auto& pr = episode.pipelines[i];
    agg.delta = pr.delta;
    agg.tally.merge(pr.tally);
    agg.offload_submitted += pr.offload_submitted;
  }
  for (const int key : episode.deadline_hist.keys())
    result.deadline_hist.add(key, episode.deadline_hist.count(key));
  result.intervals += episode.intervals;
  result.unconstrained_intervals += episode.unconstrained_intervals;
  result.avg_speed.add(episode.avg_speed);
  result.duration_s.add(episode.duration_s);
  // min_h is +inf for obstacle-free scenarios (vacuously safe).
  if (std::isfinite(episode.min_h)) result.min_h.add(episode.min_h);
  result.filter_engagements += episode.filter_engagements;
  ++result.episodes_used;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  SEO_EXPECT(config.episodes >= 1);
  SEO_EXPECT(config.max_attempts >= config.episodes);

  ExperimentResult result;
  // Seed the aggregates with pipeline identities from the scenario config.
  for (const auto& pc : config.scenario.pipelines) {
    if (pc.criticality != Criticality::kOptimizable) continue;
    PipelineAggregate agg;
    agg.name = pc.name;
    agg.sensor = pc.sensor;
    agg.model = pc.model;
    agg.scaled_model = config.scenario.scaled_model;
    agg.tally = PipelineTally(config.scenario.deadline_cap);
    result.pipelines.push_back(std::move(agg));
  }

  // Attempt k runs with seed base_seed + k and is merged before attempt
  // k + 1 starts.  One scenario copy (only its seed changes) and one trace
  // buffer serve every attempt.
  ScenarioConfig scenario = config.scenario;
  EpisodeTrace trace;
  while (result.episodes_used < config.episodes &&
         result.attempts < config.max_attempts) {
    scenario.seed =
        config.base_seed + static_cast<std::uint64_t>(result.attempts);
    trace.clear();
    const EpisodeResult episode =
        run_episode(scenario, config.trace_tap ? &trace : nullptr);
    if (config.trace_tap) config.trace_tap(scenario.seed, episode, trace);
    consume_episode(config, episode, result);
  }

  if (result.episodes_used < config.episodes) {
    log_warn() << "experiment finished with only " << result.episodes_used
               << "/" << config.episodes << " successful episodes after "
               << result.attempts << " attempts";
  }
  return result;
}

}  // namespace seo
