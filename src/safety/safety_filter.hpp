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
// but most rollouts stop early.  Along a rollout min_h only falls and
// road_violation only grows, and rounded multiply and subtract are
// monotone, so this formula over the running min_h and road_violation
// bounds the final score from above at every step (and is the score after
// the last one).  A candidate stops as soon as that bound can no longer
// win: when it is <= best_score for a candidate after the current best in
// grid order (a tie goes to the earlier candidate), or < best_score for one
// before it.  A stopped candidate can never become the winner, so the
// winner's rollout always runs to the end.  A NaN bound (0 * inf when an
// infinite excursion meets off_road_penalty = 0) never stops a rollout.
// The pass-through rollout stops once min_h < margin_eff, reading min_h
// alone: the filter engages then and its value is never read.
//
// Certified pass-through.  The pass-through test reads only min_h >=
// margin_eff (no road term) and the rollout holds the obstacle field
// still, so the paper's Lipschitz-certificate argument (section III-B,
// eq. 3), applied to Psi itself, can settle it without a rollout.  Over
// the horizon T = steps * step_s the Euler speed stays in [0, max_speed]
// and rises by at most max_accel * T (drag only slows), so no rollout
// state is farther than reach = v_bar * T from the start, with
// v_bar = max(v0, min(max_speed, v0 + max_accel * T)).  Since
// 1 <= g(chi) <= 1 + heading_gain, obstacle j's h along the rollout is at
// least
//
//   lb_j = ((c_j - reach) - body_radius) - margin * (1 + heading_gain)
//
// where c_j bounds its surface distance at the start.  When
// min_j lb_j >= margin_eff and h_now is too, the rollout cannot fail: the
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
// v_bar * T * (1 + eps) + eps * (1 + |x0| + |y0|) and c_j is
// center_j * (1 - eps) - r_j, with eps = 1e-12 * (steps + 16): hundreds of
// times the ~16u * (steps + 8) these errors can sum to, as long as
// r_j <= center_j.  (An ego inside obstacle j has a negative c_j; such an
// obstacle never certifies and is never culled, so the bound is only used
// where r_j <= center_j.)  Rounded subtraction is monotone and the
// barrier's rounded g stays <= 1 + heading_gain (the argument of
// Barrier::value's trig skip), so the final comparison carries over to the
// rollout's rounded h.  A NaN or negative speed, a non-finite position, or
// a NaN h_now or margin_eff never certifies; otherwise an empty field
// always does.
//
// Obstacle culling.  The same bound settles obstacles one at a time.
// Every rollout of a call starts its running minimum at h_now, and the
// minimum only falls.  So an obstacle with lb_j >= h_now and c_j >= 0 has
// h_j >= min_h at every step of every rollout, min(min_h, h_j) = min_h to
// the bit (std::min keeps its first argument on a tie), and dropping it
// from the barrier fold changes nothing.  One reach covers the raw rollout
// and every candidate: they differ only in steering and throttle, and
// v_bar already assumes full throttle.  One scan per call computes every
// lb_j, gathers the obstacles it cannot drop, in index order, into a
// fixed-capacity stack buffer that every rollout of the call folds over,
// and takes min_j lb_j for the certificate.  That minimum is the bound
// f(min_j c_j) bit for bit, since f(min_j c_j) = min_j f(c_j) for the
// monotone f(c) = ((c - reach) - body_radius) - margin * (1 + heading_gain)
// and std::min skips a NaN lb_j as it skips a NaN c_j.  (The one
// exception is an obstacle at infinite distance under an infinite reach or
// barrier term, where f(+inf) is NaN: it is skipped rather than blocking
// the certificate.)  A NaN lb_j or h_now keeps its obstacle; a NaN or negative
// speed or a non-finite position keeps every obstacle.  A field larger
// than the buffer is folded whole: the rollouts read its own columns, on
// the same code path.
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
// Every rollout step folds the barrier over the kept obstacles with
// Barrier::value's `cap` set to the running minimum, so obstacles that
// cannot lower it skip their trig.
//
// Heading hint.  Each fold also passes a HeadingHint (barrier.hpp, "Heading
// screen") for the post-step heading, with no extra trig.  The Euler step
// moved along the course (cos, sin) of psi + beta; rotated by -beta with
// the held control's cos(beta) and sin(beta), that is (cos, sin) of the
// pre-step psi.  The step then turned the heading by the model's own
// double y = v / l_r * sin(beta) * dt, rounded once more when added to psi
// and wrapped.  So the hint is within |y| + ~10 ulps of the post-step
// heading, and err = |y| * (1 + 1e-9) + 1e-9 covers it.  A NaN or infinite
// speed or heading gives a NaN hint or err, which never screens.
#pragma once

#include <array>
#include <cstddef>
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
  /// Obstacles whose atan2/wrap/cos the rollouts' barrier folds evaluated:
  /// the same kind of work count, for the filter's most expensive step.
  std::uint64_t barrier_trig_evals = 0;
};

/// The heading hint (header comment, "Heading hint") for the state that
/// `step_euler(state, held, dt, course)` returned, from that step's
/// `course` and the pre-step speed `state.speed`.
HeadingHint heading_hint_after_step(const HeldControl& held,
                                    const Vec2& course, double speed,
                                    double wheelbase_rear, double dt);

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
  /// When a rollout may stop: once its score bound (header comment, "Exact
  /// pruning") falls below `floor`, or reaches it when `ties_lose`.
  struct Cutoff {
    double floor = 0.0;
    double steer_pen = 0.0;
    double brake_pen = 0.0;
    bool ties_lose = false;
    /// A scored candidate: the bound includes the off-road term.  The
    /// pass-through rollout reads min_h alone and tracks no excursion.
    bool scored = false;
  };

  struct RolloutEval {
    double min_h = 0.0;           ///< worst barrier value along the rollout
    /// Worst off-road excursion [m]; tracked by scored rollouts only.
    double road_violation = 0.0;
    std::uint32_t steps = 0;      ///< Euler steps integrated
    std::uint64_t trig_evals = 0; ///< obstacles the folds took trig for
    bool cut = false;             ///< stopped early by the cutoff
  };

  /// Obstacle columns the rollouts fold the barrier over.
  struct ObstacleView {
    const double* xs = nullptr;
    const double* ys = nullptr;
    const double* radii = nullptr;
    std::size_t n = 0;
  };

  /// Stack storage for the obstacles one call keeps; the scenario
  /// library's rigs place at most 8.
  static constexpr std::size_t kCullCapacity = 32;
  struct CullBuffer {
    std::array<double, kCullCapacity> xs;
    std::array<double, kCullCapacity> ys;
    std::array<double, kCullCapacity> radii;
  };

  struct FieldScan {
    ObstacleView kept;  ///< obstacles the rollouts must fold
    double min_lb = 0.0;  ///< min_j lb_j; -inf when the state is unbounded
  };

  /// One pass over `field` (header comment, "Obstacle culling"): the
  /// certificate's bound and the obstacles no rollout of this call can
  /// drop, gathered into `buffer` unless the field outgrows it.
  FieldScan scan_field(const VehicleState& state, const ObstacleField& field,
                       double h_now, CullBuffer& buffer) const;

  /// The score formula over a rollout's running values: an upper bound on
  /// its final score, and that score once the rollout is complete.
  double score_bound(const RolloutEval& eval, const Cutoff& cutoff) const;

  /// Worst-case barrier value and road excursion along a rollout of
  /// `control` held for the horizon, or `cut` as soon as `cutoff` is
  /// reached.  `h_start` is the barrier value at `state` (already known by
  /// every caller, so it is never recomputed).
  RolloutEval rollout(const VehicleState& state, const ObstacleView& obstacles,
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
