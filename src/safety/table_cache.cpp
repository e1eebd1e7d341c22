#include "safety/table_cache.hpp"

#include <tuple>

#include "core/fingerprint.hpp"
#include "util/expect.hpp"

namespace seo {

namespace {
/// Key-schema version, mixed into the digest: bump on any change to the
/// fingerprinted field set, so every existing artifact address (which
/// embeds the digest) simply stops being addressed — no migration logic.
/// Distinct from Traits::version(), which tracks the container format.
constexpr int kLipschitzKeySchema = 1;  ///< unchanged since PR 4

/// The fingerprinted fields in digest order: the one list digest() and
/// operator== both read.
auto key_fields(const DeadlineTableKey& k) {
  return std::tie(
      // Table grid + domain.  `table.threads` is an execution knob, not a
      // table property — deliberately left out.
      k.table.distance_bins, k.table.bearing_bins, k.table.speed_bins,
      k.table.max_distance, k.table.max_speed, k.table.obstacle_radius,
      // Effective Lipschitz interval config (environment_speed as raised at
      // runtime — seed-dependent worlds with distinct speeds are distinct
      // keys).
      k.interval.sensing_range, k.interval.rate_gain, k.interval.speed_floor,
      k.interval.environment_speed, k.interval.road_conservatism,
      // Barrier calibration.
      k.barrier.body_radius, k.barrier.margin, k.barrier.heading_gain,
      // Road geometry (the interval evaluator's boundary term reads it).
      k.road.length, k.road.half_width, k.body_radius);
}
}  // namespace

std::uint64_t DeadlineTableKey::digest() const {
  FingerprintHasher h;
  h.mix(std::string_view("seo-dtable-key"));
  h.mix(kLipschitzKeySchema);
  std::apply([&h](const auto&... field) { (h.mix(field), ...); },
             key_fields(*this));
  return h.digest();
}

std::string DeadlineTableKey::hex() const { return fingerprint_hex(digest()); }

bool DeadlineTableKey::operator==(const DeadlineTableKey& other) const {
  return key_fields(*this) == key_fields(other);
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
