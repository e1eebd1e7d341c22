// Safe-interval characterization — the paper's eq. (3):
//   Delta_max = phi(x, x', u),
// the maximum time the system may keep applying the current control before
// it can transition to an unsafe state (S -> 0).
//
// Two evaluators are provided:
//
//  * LipschitzSafeInterval (primary): the formal certificate the paper's
//    section III-B invokes — with |dh/dt| bounded by a Lipschitz constant
//    L(v) over ALL admissible controls, h(x(t)) >= h(x0) - t*L(v), so
//    Delta_max = h(x0) / L(v) guarantees S = 1 for that long regardless of
//    what the (possibly stale) controller does.  L(v) = rate_gain*(v + v0).
//    The default rate_gain = 6.0 is hand-set so Delta_max lands in the
//    paper's delta_max in {1..4} regime; it is not fitted to the paper's
//    figures (that calibration is ROADMAP's open "Calibrate the deadline
//    distribution" item).
//
//  * RolloutSafeInterval (ablation/reference): the numerical evaluation of
//    phi — integrate the KBM under the held control until h < 0, refined by
//    bisection.  Less conservative (it assumes the current control persists
//    instead of a worst case); used to quantify the conservatism of the
//    certificate in bench/ablation_deadline_table.
#pragma once

#include <memory>
#include <optional>

#include "dynamics/bicycle.hpp"
#include "dynamics/obstacle.hpp"
#include "dynamics/road.hpp"
#include "safety/barrier.hpp"

namespace seo {

/// Result of a safe-interval query.
struct SafeInterval {
  /// False when no obstacle is within sensing range: the formal deadline is
  /// vacuous (there is nothing to be unsafe with respect to).
  bool constrained = false;
  /// Delta_max [s]; meaningful only when constrained.  0 means "already at
  /// the barrier boundary: no stale-control tolerance at all".
  double delta_max_s = 0.0;
};

/// Interface shared by the evaluators and the lookup-table proxy.
class SafeIntervalEvaluator {
 public:
  virtual ~SafeIntervalEvaluator() = default;
  virtual SafeInterval evaluate(const VehicleState& state, const Control& u,
                                const ObstacleField& field) const = 0;
};

struct LipschitzIntervalConfig {
  double sensing_range = 40.0;  ///< constrained iff an obstacle is closer
  double rate_gain = 6.0;       ///< alpha in L(v) = alpha * (v + v_env + v_floor)
  double speed_floor = 1.0;     ///< v_floor [m/s], keeps L > 0 at standstill
  /// Worst-case obstacle speed v_env [m/s]: in dynamic environments the
  /// barrier can decay through obstacle motion even when the ego stands
  /// still, so the bound must include it (0 for static worlds).
  double environment_speed = 0.0;
  /// Optional road-boundary term: time to cross the approached road edge
  /// divided by this conservatism factor; <= 0 disables the term.
  double road_conservatism = 4.0;
};

class LipschitzSafeInterval : public SafeIntervalEvaluator {
 public:
  LipschitzSafeInterval(LipschitzIntervalConfig config, Barrier barrier,
                        std::optional<Road> road = std::nullopt);

  SafeInterval evaluate(const VehicleState& state, const Control& u,
                        const ObstacleField& field) const override;

  /// Core closed form on reduced coordinates (used by the table builder):
  /// Delta_max for barrier value `h` at speed `v`.
  double interval_from_h(double h, double speed) const;

  const LipschitzIntervalConfig& config() const { return config_; }
  const Barrier& barrier() const { return barrier_; }

 private:
  double road_term_s(const VehicleState& state) const;

  LipschitzIntervalConfig config_;
  Barrier barrier_;
  std::optional<Road> road_;
};

struct RolloutIntervalConfig {
  double sensing_range = 40.0;
  double horizon_s = 2.0;   ///< give up (unconstrained-like) past this
  double step_s = 0.005;    ///< integration step
  int bisection_iters = 12; ///< refinement of the crossing time
};

class RolloutSafeInterval : public SafeIntervalEvaluator {
 public:
  RolloutSafeInterval(RolloutIntervalConfig config, BicycleModel model,
                      Barrier barrier);

  SafeInterval evaluate(const VehicleState& state, const Control& u,
                        const ObstacleField& field) const override;

  const RolloutIntervalConfig& config() const { return config_; }

 private:
  RolloutIntervalConfig config_;
  BicycleModel model_;
  Barrier barrier_;
};

}  // namespace seo
