// The safety filter Psi of the paper's eq. (2): passes raw control actions
// through unchanged while the system is (and will remain) safe, and applies
// the corrective policy psi(x; U) otherwise.
//
// Corrective policy: a predictive steering shield in the spirit of
// ShieldNN [19] — it rolls the KBM forward under candidate steering actions
// from the admissible set U and picks the candidate that maximizes the
// worst-case barrier value over the prediction horizon (optionally adding
// brake assistance).  Only the steering dimension is filtered, exactly like
// the paper's controller shield for steering angle outputs.
//
// Exact pruning.  The decision is bit-identical to scoring every candidate
// of the steering x {throttle, brake} grid in grid order and keeping the
// first one with the highest score
//
//   score = ((min_h - off_road_penalty * road_violation) - steer_pen)
//           - brake_pen
//
// but most rollouts stop early.  min_h only falls along a rollout and
// off_road_penalty * road_violation >= 0, so under monotone rounded
// subtraction (running_min_h - steer_pen) - brake_pen bounds the final
// score from above at every step.  A candidate stops as soon as that bound
// can no longer win: when it is <= best_score for a candidate after the
// current best in grid order (a tie goes to the earlier candidate), or
// < best_score for one before it.  A stopped candidate can never become
// the winner, so the winner's rollout always runs to the end.  A NaN bound
// never stops a rollout.  The pass-through rollout likewise stops once
// min_h < margin_eff: the filter engages then and its value is never read.
//
// Certified pass-through.  The pass-through test reads only min_h >=
// margin_eff (no road term) and the rollout holds the obstacle field
// still, so the paper's Lipschitz-certificate argument (section III-B,
// eq. 3), applied to Psi itself, can settle it without a rollout.  Over
// the horizon T = steps * step_s the Euler speed stays in [0, max_speed]
// and rises by at most max_accel * T (drag only slows), so no rollout
// state is farther than reach = v_bar * T from the start, with
// v_bar = max(v0, min(max_speed, v0 + max_accel * T)).  Since
// 1 <= g(chi) <= 1 + heading_gain, every obstacle's h along the rollout is
// at least
//
//   ((clear - reach) - body_radius) - margin * (1 + heading_gain)
//
// where clear bounds the obstacles' surface distances at the start.  When
// that is >= margin_eff and h_now is too, the rollout cannot fail: the
// call passes through with rollout_steps = 0.  `control` and `engaged`
// are bit-identical either way, and the warm-start hint is untouched
// (only engaged calls set it).
//
// The bound holds for the rounded rollout too.  A rounded Euler step moves
// at most v_k * step_s * (1 + 4u) (u = 2^-53: rounded cos and sin stay
// within 1, two products round), the rounded speed exceeds the exact bound
// by at most 3u per step, each position update rounds by at most
// u * |position|, and a computed distance to obstacle j is within
// ~5u * (center_j + r_j) of the exact one.  So reach is inflated to
// v_bar * T * (1 + eps) + eps * (1 + |x0| + |y0|) and clear is
// min_j(center_j * (1 - eps) - r_j), with eps = 1e-12 * (steps + 16):
// hundreds of times the ~16u * (steps + 8) these errors can sum to.  (An
// ego inside an obstacle has a negative clear and never certifies, so
// r_j <= center_j wherever the bound is used.)  Rounded subtraction is
// monotone and the barrier's rounded g stays <= 1 + heading_gain (the
// argument of Barrier::value's trig skip), so the final comparison carries
// over to the rollout's rounded h.  A NaN or negative speed, a non-finite
// position, or a NaN h_now or margin_eff never certifies; otherwise an
// empty field always does.
//
// Visit order.  Pruning pays when a strong candidate is scored early.  The
// winner rarely changes from one tick to the next, so the search is warm
// started: it scores the previous engaged call's winning grid index first,
// then visits the rest of the grid coarse-first: every 4th steering index
// plus the last one, each brake variant before its throttle variant, then
// the remaining candidates in grid order.  The tie rule above holds under
// any visit order, so the decision does not depend on the hint; only
// `rollout_steps` does, and it therefore depends on the filter's call
// history (one filter serves one episode).  The coarse-first order is a
// constant built once in the constructor; the tick allocates nothing.
//
// Every rollout step folds the barrier with Barrier::value's `cap` set to
// the running minimum, so obstacles that cannot lower it skip their trig.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dynamics/bicycle.hpp"
#include "dynamics/obstacle.hpp"
#include "dynamics/road.hpp"
#include "safety/barrier.hpp"

namespace seo {

struct SafetyFilterConfig {
  double horizon_s = 0.6;       ///< prediction horizon for engagement
  double step_s = 0.02;         ///< rollout step
  double engage_margin = 0.7;   ///< engage when predicted min h dips below
  /// The effective engage margin scales with speed (the certificate
  /// distance shrinks as the vehicle slows): margin * clamp(v/speed_ref,
  /// min_margin_factor, 1).  Prevents low-speed engagement deadlock.
  double speed_ref = 8.0;
  double min_margin_factor = 0.3;
  int steering_candidates = 17; ///< grid resolution over [-max_steer, max]
  bool brake_assist = true;     ///< also consider braking while correcting
  double brake_throttle = -0.6; ///< throttle used by brake assistance
  /// Penalty subtracted from a corrective candidate's score per meter it
  /// ends up beyond the road edge (admissible set U excludes leaving the
  /// road); only used when a Road is supplied.
  double off_road_penalty = 2.0;
};

/// Result of one filtering decision.
struct FilterDecision {
  Control control{};     ///< u' = Psi(x, u)
  bool engaged = false;  ///< true when psi overrode the raw control
  double h_now = 0.0;    ///< barrier value at the decision state
  /// Euler steps integrated by every rollout of this decision: a
  /// deterministic, machine-independent measure of the filter's work.  It
  /// depends on the inputs and on the filter's earlier engaged calls (the
  /// warm-start hint), never on the machine.
  std::uint32_t rollout_steps = 0;
};

class SafetyFilter {
 public:
  /// `road`: when supplied, corrective candidates that would leave the
  /// drivable band are penalized (never preferred over on-road candidates
  /// of comparable safety).
  SafetyFilter(SafetyFilterConfig config, BicycleModel model, Barrier barrier,
               std::optional<Road> road = std::nullopt);

  const SafetyFilterConfig& config() const { return config_; }
  const Barrier& barrier() const { return barrier_; }

  /// Filters a raw control: returns it unchanged when its rollout stays
  /// clear of the barrier, otherwise substitutes the corrective action.
  /// An engaged call records its winner as the next call's warm start.
  FilterDecision filter(const VehicleState& state, const ObstacleField& field,
                        const Control& raw) const;

  /// Cumulative number of engagements since construction.
  std::uint64_t engagements() const { return engagements_; }

 private:
  /// When a rollout may stop: once (min_h - steer_pen) - brake_pen falls
  /// below `floor`, or reaches it when `ties_lose`.
  struct Cutoff {
    double floor = 0.0;
    double steer_pen = 0.0;
    double brake_pen = 0.0;
    bool ties_lose = false;
  };

  struct RolloutEval {
    double min_h = 0.0;           ///< worst barrier value along the rollout
    double road_violation = 0.0;  ///< worst off-road excursion [m]
    std::uint32_t steps = 0;      ///< Euler steps integrated
    bool cut = false;             ///< stopped early by the cutoff
  };

  /// True when the reachability bound proves that the raw rollout would
  /// pass through (header comment, "Certified pass-through").
  bool certified_pass(const VehicleState& state, const ObstacleField& field,
                      double h_now, double margin_eff) const;

  /// Worst-case barrier value and road excursion along a rollout of
  /// `control` held for the horizon, or `cut` as soon as `cutoff` is
  /// reached.  `h_start` is the barrier value at `state` (already known by
  /// every caller, so it is never recomputed).
  RolloutEval rollout(const VehicleState& state, const ObstacleField& field,
                      const Control& control, double h_start,
                      const Cutoff& cutoff) const;

  SafetyFilterConfig config_;
  BicycleModel model_;
  Barrier barrier_;
  std::optional<Road> road_;
  std::uint32_t steps_ = 0;  ///< Euler steps per full rollout
  /// Candidate grid indices (steering index * variants + brake) in visit
  /// order.
  std::vector<int> visit_order_;
  mutable std::uint64_t engagements_ = 0;
  /// Grid index of the previous engaged call's winner, -1 when none.
  mutable int hint_ = -1;
};

}  // namespace seo
