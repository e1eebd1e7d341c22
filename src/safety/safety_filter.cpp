#include "safety/safety_filter.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/expect.hpp"

namespace seo {

SafetyFilter::SafetyFilter(SafetyFilterConfig config, BicycleModel model,
                           Barrier barrier, std::optional<Road> road)
    : config_(config),
      model_(std::move(model)),
      barrier_(barrier),
      road_(std::move(road)) {
  SEO_EXPECT(config_.horizon_s > 0.0);
  SEO_EXPECT(config_.step_s > 0.0 && config_.step_s <= config_.horizon_s);
  SEO_EXPECT(std::isfinite(config_.engage_margin) &&
             config_.engage_margin >= 0.0);
  SEO_EXPECT(std::isfinite(config_.speed_ref) && config_.speed_ref > 0.0);
  SEO_EXPECT(config_.min_margin_factor >= 0.0 &&
             config_.min_margin_factor <= 1.0);
  SEO_EXPECT(config_.steering_candidates >= 3);
  SEO_EXPECT(config_.off_road_penalty >= 0.0);
  const int n = config_.steering_candidates;
  const int variants = config_.brake_assist ? 2 : 1;
  // Grid indices are ints, and one call's steps — the pass-through rollout
  // plus every candidate's — must fit FilterDecision::rollout_steps.  Both
  // bounds are checked in double, before any narrowing cast.
  const double steps = std::ceil(config_.horizon_s / config_.step_s);
  const double candidates = static_cast<double>(variants) * n;
  SEO_EXPECT(candidates <= std::numeric_limits<int>::max());
  SEO_EXPECT((1.0 + candidates) * steps <=
             std::numeric_limits<std::uint32_t>::max());
  steps_ = static_cast<std::uint32_t>(steps);

  const auto coarse = [n](int i) { return i % 4 == 0 || i == n - 1; };
  for (int i = 0; i < n; ++i) {
    if (!coarse(i)) continue;
    for (int brake = variants - 1; brake >= 0; --brake)
      visit_order_.push_back(i * variants + brake);
  }
  for (int i = 0; i < n; ++i) {
    if (coarse(i)) continue;
    for (int brake = 0; brake < variants; ++brake)
      visit_order_.push_back(i * variants + brake);
  }
}

HeadingHint heading_hint_after_step(const HeldControl& held,
                                    const Vec2& course, double speed,
                                    double wheelbase_rear, double dt) {
  // The yaw step is the model's own double: speed / l_r * sin(beta) * dt.
  return {course.x * held.cos_beta + course.y * held.sin_beta,
          course.y * held.cos_beta - course.x * held.sin_beta,
          std::abs(speed / wheelbase_rear * held.sin_beta * dt) *
                  (1.0 + 1e-9) +
              1e-9};
}

double SafetyFilter::score_bound(const RolloutEval& eval,
                                 const Cutoff& cutoff) const {
  const double safety =
      cutoff.scored
          ? eval.min_h - config_.off_road_penalty * eval.road_violation
          : eval.min_h;
  return (safety - cutoff.steer_pen) - cutoff.brake_pen;
}

SafetyFilter::RolloutEval SafetyFilter::rollout(const VehicleState& state,
                                                const ObstacleView& obstacles,
                                                const Control& control,
                                                double h_start,
                                                const Cutoff& cutoff) const {
  // A NaN bound compares false and never cuts.
  const auto reached = [this, &cutoff](const RolloutEval& eval) {
    const double bound = score_bound(eval, cutoff);
    return cutoff.ties_lose ? bound <= cutoff.floor : bound < cutoff.floor;
  };
  RolloutEval eval;
  eval.min_h = h_start;
  eval.cut = reached(eval);
  VehicleState s = state;
  // The candidate is held for the whole horizon: clamp and slip-angle
  // evaluate once, each Euler step reuses them (bit-identical stepping).
  const HeldControl held = model_.hold(control);
  const double l_r = model_.params().wheelbase_rear;
  while (!eval.cut && eval.steps < steps_) {
    const double v = s.speed;
    Vec2 course;
    s = model_.step_euler(s, held, config_.step_s, course);
    ++eval.steps;
    eval.min_h = barrier_.value(
        s, obstacles.xs, obstacles.ys, obstacles.radii, obstacles.n,
        eval.min_h, heading_hint_after_step(held, course, v, l_r,
                                            config_.step_s),
        &eval.trig_evals);
    if (road_ && cutoff.scored) {
      const double margin = road_->boundary_margin(s.position);
      if (margin < 0.0)
        eval.road_violation = std::max(eval.road_violation, -margin);
    }
    eval.cut = reached(eval);
  }
  return eval;
}

SafetyFilter::FieldScan SafetyFilter::scan_field(const VehicleState& state,
                                                 const ObstacleField& field,
                                                 double h_now,
                                                 CullBuffer& buffer) const {
  const std::size_t n = field.size();
  const double* xs = field.xs().data();
  const double* ys = field.ys().data();
  const double* radii = field.radii().data();
  FieldScan scan{{xs, ys, radii, n},
                 -std::numeric_limits<double>::infinity()};
  // The bound and its floating-point slack are argued in the header.  A
  // NaN speed fails this comparison.
  if (!(state.speed >= 0.0 && std::isfinite(state.position.x) &&
        std::isfinite(state.position.y)))
    return scan;  // unbounded: keep every obstacle, never certify.
  const BicycleParams& vehicle = model_.params();
  const BarrierConfig& barrier = barrier_.config();
  const double eps = 1e-12 * (steps_ + 16.0);
  const double horizon = steps_ * config_.step_s;
  const double v_bar = std::max(
      state.speed,
      std::min(vehicle.max_speed, state.speed + vehicle.max_accel * horizon));
  const double reach =
      v_bar * horizon * (1.0 + eps) +
      eps * (1.0 + std::abs(state.position.x) + std::abs(state.position.y));
  const double worst = barrier.margin * (1.0 + barrier.heading_gain);
  const bool cull = n <= kCullCapacity;
  if (cull) scan.kept = {buffer.xs.data(), buffer.ys.data(),
                         buffer.radii.data(), 0};
  scan.min_lb = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < n; ++j) {
    const double dx = state.position.x - xs[j];
    const double dy = state.position.y - ys[j];
    const double c = std::sqrt(dx * dx + dy * dy) * (1.0 - eps) - radii[j];
    const double lb = ((c - reach) - barrier.body_radius) - worst;
    scan.min_lb = std::min(scan.min_lb, lb);
    if (cull) {  // branch-free gather: the slot is overwritten unless kept
      buffer.xs[scan.kept.n] = xs[j];
      buffer.ys[scan.kept.n] = ys[j];
      buffer.radii[scan.kept.n] = radii[j];
      scan.kept.n += !(lb >= h_now && c >= 0.0);
    }
  }
  return scan;
}

FilterDecision SafetyFilter::filter(const VehicleState& state,
                                    const ObstacleField& field,
                                    const Control& raw) const {
  FilterDecision decision;
  decision.h_now = barrier_.value(state, field);
  decision.control = model_.clamp(raw);

  const double margin_eff =
      config_.engage_margin *
      std::clamp(state.speed / config_.speed_ref, config_.min_margin_factor,
                 1.0);
  CullBuffer buffer;
  const FieldScan scan = scan_field(state, field, decision.h_now, buffer);
  // NaN h_now, min_lb or margin_eff fail these comparisons.
  if (decision.h_now >= margin_eff && scan.min_lb >= margin_eff)
    return decision;  // provably nothing within reach: pass through.
  const RolloutEval raw_eval = rollout(state, scan.kept, decision.control,
                                       decision.h_now, Cutoff{margin_eff});
  decision.rollout_steps = raw_eval.steps;
  decision.barrier_trig_evals = raw_eval.trig_evals;
  // A NaN min_h or margin never cuts, so the final test still decides.
  if (!raw_eval.cut && raw_eval.min_h >= margin_eff)
    return decision;  // S = 1 and staying safe: pass through.

  // psi(x; U): search the admissible steering grid (optionally with brake
  // assistance) for the action maximizing the worst-case barrier value.
  ++engagements_;
  decision.engaged = true;

  const double max_steer = model_.params().max_steer;
  double best_score = -std::numeric_limits<double>::infinity();
  int best_index = -1;  // precedes every candidate: the first win is strict
  Control best = decision.control;

  const int n = config_.steering_candidates;
  const int variants = config_.brake_assist ? 2 : 1;
  const auto score_candidate = [&](int index) {
    const int i = index / variants;
    const int brake = index % variants;
    const double steer =
        -max_steer + 2.0 * max_steer * static_cast<double>(i) /
                         static_cast<double>(n - 1);
    Control candidate;
    candidate.steering = steer;
    candidate.throttle =
        brake == 0 ? decision.control.throttle : config_.brake_throttle;
    // Prefer higher safety; keep corrections on the road; tie-break toward
    // the raw steering request so corrections are minimally invasive.
    const Cutoff cutoff{best_score, 1e-3 * std::abs(steer - raw.steering),
                        brake == 1 ? 1e-4 : 0.0, index > best_index, true};
    const RolloutEval eval =
        rollout(state, scan.kept, candidate, decision.h_now, cutoff);
    decision.rollout_steps += eval.steps;
    decision.barrier_trig_evals += eval.trig_evals;
    if (eval.cut) return;
    const double score = score_bound(eval, cutoff);
    // Grid order breaks exact ties: the earlier candidate wins.
    if (score > best_score || (score == best_score && index < best_index)) {
      best_score = score;
      best_index = index;
      best = candidate;
    }
  };
  // Warm start: the previous engaged call's winner first, then the
  // coarse-first order without it.
  if (hint_ >= 0) score_candidate(hint_);
  for (const int index : visit_order_)
    if (index != hint_) score_candidate(index);
  hint_ = best_index;
  decision.control = best;
  return decision;
}

}  // namespace seo
