// The low-cost proxy lookup table T(x, u) of the paper's section IV-C:
// Delta_max values precomputed over a grid of reduced safety states and
// sampled with multilinear interpolation at runtime.
//
// Reduced coordinates (matching the controller-shield state of [19], [20]):
//   d   — clearance from vehicle body to nearest obstacle surface [m]
//   chi — obstacle bearing relative to vehicle heading [rad]
//   v   — vehicle speed [m/s]
#pragma once

#include <vector>

#include "safety/safe_interval.hpp"

namespace seo {

class BinaryWriter;
class BinaryReader;

struct DeadlineTableConfig {
  int distance_bins = 41;
  int bearing_bins = 25;
  int speed_bins = 21;
  double max_distance = 40.0;  ///< table domain = sensing range
  double max_speed = 15.0;
  double obstacle_radius = 0.8;  ///< representative obstacle size for build
  /// Worker threads for the build: 1 = serial (default), 0 = all hardware
  /// threads, n = exactly n; negative is a contract violation.  A build
  /// from inside a pool chunk (a threaded sweep or fleet) runs serially
  /// whatever the value.  Every cell is an independent virtual-obstacle
  /// evaluation written to its own slot, so the result is bit-identical to
  /// the serial build for any thread count.  Not part of the serialized
  /// format — an execution knob, not a table property.
  int threads = 1;
};

/// Precomputed T(x,u).  Built from any SafeIntervalEvaluator by placing a
/// virtual obstacle at each grid coordinate; queried with the nearest
/// obstacle's reduced state.  Interpolation clamps to the domain edges.
class DeadlineTable : public SafeIntervalEvaluator {
 public:
  /// Builds the table by evaluating `source` on every grid point.
  /// `body_radius` must match the barrier used by `source` so the virtual
  /// obstacle reconstruction is exact.
  DeadlineTable(DeadlineTableConfig config,
                const SafeIntervalEvaluator& source, double body_radius);

  /// Interpolated Delta_max for reduced coordinates.
  double sample(double distance, double bearing, double speed) const;

  /// SafeIntervalEvaluator interface: reduces the nearest obstacle to
  /// (d, chi, v) and interpolates.  Unconstrained when nothing is in range.
  SafeInterval evaluate(const VehicleState& state, const Control& u,
                        const ObstacleField& field) const override;

  const DeadlineTableConfig& config() const { return config_; }
  double body_radius() const { return body_radius_; }
  std::size_t cell_count() const { return values_.size(); }

  /// Binary serialization (core/binary_io) — the "dtable" artifact
  /// payload, so tables can be precomputed offline and shipped, the
  /// deployment model the paper's "low-cost proxy" implies: fixed-width
  /// little-endian, raw IEEE-754 cell bits, bit-exact round trip.
  /// decode() enforces the constructor's domain contract, requires finite
  /// cells and refuses trailing or missing bytes.
  void encode(BinaryWriter& out) const;
  static DeadlineTable decode(BinaryReader& in);

 private:
  /// Deserialization constructor.
  DeadlineTable(DeadlineTableConfig config, double body_radius,
                std::vector<double> values);

  double& cell(int di, int bi, int vi);
  double cell(int di, int bi, int vi) const;

  DeadlineTableConfig config_;
  double body_radius_;
  std::vector<double> values_;
};

}  // namespace seo
