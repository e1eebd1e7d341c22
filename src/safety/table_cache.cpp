#include "safety/table_cache.hpp"

#include "core/fingerprint.hpp"
#include "util/expect.hpp"

namespace seo {

namespace {
/// Key-schema versions, mixed into the digests: bump on any change to the
/// fingerprinted field set, so every existing artifact address (which
/// embeds the digest) simply stops being addressed — no migration logic.
/// Distinct from Traits::version(), which tracks the container format.
constexpr int kLipschitzKeySchema = 1;  ///< unchanged since PR 4
constexpr int kRolloutKeySchema = 1;
}  // namespace

std::uint64_t DeadlineTableKey::digest() const {
  FingerprintHasher h;
  h.mix(std::string_view("seo-dtable-key"));
  h.mix(kLipschitzKeySchema);
  // Table grid + domain.  `table.threads` is an execution knob, not a table
  // property — deliberately not mixed.
  h.mix(table.distance_bins);
  h.mix(table.bearing_bins);
  h.mix(table.speed_bins);
  h.mix(table.max_distance);
  h.mix(table.max_speed);
  h.mix(table.obstacle_radius);
  // Effective Lipschitz interval config (environment_speed as raised at
  // runtime — seed-dependent worlds with distinct speeds are distinct keys).
  h.mix(interval.sensing_range);
  h.mix(interval.rate_gain);
  h.mix(interval.speed_floor);
  h.mix(interval.environment_speed);
  h.mix(interval.road_conservatism);
  // Barrier calibration.
  h.mix(barrier.body_radius);
  h.mix(barrier.margin);
  h.mix(barrier.heading_gain);
  // Road geometry (the interval evaluator's boundary term reads it).
  h.mix(road.length);
  h.mix(road.half_width);
  h.mix(body_radius);
  return h.digest();
}

std::string DeadlineTableKey::hex() const { return fingerprint_hex(digest()); }

bool DeadlineTableKey::operator==(const DeadlineTableKey& other) const {
  return table.distance_bins == other.table.distance_bins &&
         table.bearing_bins == other.table.bearing_bins &&
         table.speed_bins == other.table.speed_bins &&
         table.max_distance == other.table.max_distance &&
         table.max_speed == other.table.max_speed &&
         table.obstacle_radius == other.table.obstacle_radius &&
         interval.sensing_range == other.interval.sensing_range &&
         interval.rate_gain == other.interval.rate_gain &&
         interval.speed_floor == other.interval.speed_floor &&
         interval.environment_speed == other.interval.environment_speed &&
         interval.road_conservatism == other.interval.road_conservatism &&
         barrier.body_radius == other.barrier.body_radius &&
         barrier.margin == other.barrier.margin &&
         barrier.heading_gain == other.barrier.heading_gain &&
         road.length == other.road.length &&
         road.half_width == other.road.half_width &&
         body_radius == other.body_radius;
}

std::uint64_t RolloutTableKey::digest() const {
  FingerprintHasher h;
  h.mix(std::string_view("seo-rphi-key"));
  h.mix(kRolloutKeySchema);
  // Table grid + domain (threads excluded, as for the Lipschitz kind).
  h.mix(table.distance_bins);
  h.mix(table.bearing_bins);
  h.mix(table.speed_bins);
  h.mix(table.max_distance);
  h.mix(table.max_speed);
  h.mix(table.obstacle_radius);
  // Effective rollout config: every knob changes where the integrated
  // trajectory crosses h = 0, hence every cell.
  h.mix(rollout.sensing_range);
  h.mix(rollout.horizon_s);
  h.mix(rollout.step_s);
  h.mix(rollout.bisection_iters);
  // The vehicle model the rollout integrates.
  h.mix(model.wheelbase_front);
  h.mix(model.wheelbase_rear);
  h.mix(model.max_steer);
  h.mix(model.max_accel);
  h.mix(model.max_brake);
  h.mix(model.drag_coeff);
  h.mix(model.max_speed);
  // Barrier calibration.
  h.mix(barrier.body_radius);
  h.mix(barrier.margin);
  h.mix(barrier.heading_gain);
  // Road geometry (not read by today's rollout evaluator, but mixed so a
  // future road-boundary term cannot silently alias existing artifacts).
  h.mix(road.length);
  h.mix(road.half_width);
  h.mix(body_radius);
  return h.digest();
}

std::string RolloutTableKey::hex() const { return fingerprint_hex(digest()); }

bool RolloutTableKey::operator==(const RolloutTableKey& other) const {
  return table.distance_bins == other.table.distance_bins &&
         table.bearing_bins == other.table.bearing_bins &&
         table.speed_bins == other.table.speed_bins &&
         table.max_distance == other.table.max_distance &&
         table.max_speed == other.table.max_speed &&
         table.obstacle_radius == other.table.obstacle_radius &&
         rollout.sensing_range == other.rollout.sensing_range &&
         rollout.horizon_s == other.rollout.horizon_s &&
         rollout.step_s == other.rollout.step_s &&
         rollout.bisection_iters == other.rollout.bisection_iters &&
         model.wheelbase_front == other.model.wheelbase_front &&
         model.wheelbase_rear == other.model.wheelbase_rear &&
         model.max_steer == other.model.max_steer &&
         model.max_accel == other.model.max_accel &&
         model.max_brake == other.model.max_brake &&
         model.drag_coeff == other.model.drag_coeff &&
         model.max_speed == other.model.max_speed &&
         barrier.body_radius == other.barrier.body_radius &&
         barrier.margin == other.barrier.margin &&
         barrier.heading_gain == other.barrier.heading_gain &&
         road.length == other.road.length &&
         road.half_width == other.road.half_width &&
         body_radius == other.body_radius;
}

namespace table_artifact_detail {

void validate_table_shape(const DeadlineTableConfig& expected,
                          double expected_body_radius,
                          const DeadlineTable& table) {
  const DeadlineTableConfig& c = table.config();
  const bool matches = c.distance_bins == expected.distance_bins &&
                       c.bearing_bins == expected.bearing_bins &&
                       c.speed_bins == expected.speed_bins &&
                       c.max_distance == expected.max_distance &&
                       c.max_speed == expected.max_speed &&
                       c.obstacle_radius == expected.obstacle_radius &&
                       table.body_radius() == expected_body_radius;
  if (!matches)
    throw ContractViolation("table artifact payload does not match its key");
}

}  // namespace table_artifact_detail

DeadlineTableCache& DeadlineTableCache::global() {
  static DeadlineTableCache cache(Store::global());
  return cache;
}

}  // namespace seo
