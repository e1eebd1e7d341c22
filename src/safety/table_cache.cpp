#include "safety/table_cache.hpp"

#include "core/fingerprint.hpp"
#include "util/expect.hpp"

namespace seo {

namespace {
/// Key-schema version, mixed into the digest: bump on any change to the
/// fingerprinted field set, so every existing artifact address (which
/// embeds the digest) simply stops being addressed — no migration logic.
/// Distinct from Traits::version(), which tracks the container format.
constexpr int kLipschitzKeySchema = 1;  ///< unchanged since PR 4
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

void LipschitzTableTraits::validate(const Key& key,
                                    const DeadlineTable& table) {
  const DeadlineTableConfig& c = table.config();
  const bool matches = c.distance_bins == key.table.distance_bins &&
                       c.bearing_bins == key.table.bearing_bins &&
                       c.speed_bins == key.table.speed_bins &&
                       c.max_distance == key.table.max_distance &&
                       c.max_speed == key.table.max_speed &&
                       c.obstacle_radius == key.table.obstacle_radius &&
                       table.body_radius() == key.body_radius;
  if (!matches)
    throw ContractViolation("table artifact payload does not match its key");
}

}  // namespace seo
