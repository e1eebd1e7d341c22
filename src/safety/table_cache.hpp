// Content-addressed DeadlineTable caching — the safety layer's artifact
// kind "dtable" over the generic store (core/artifact_store.hpp).
//
// The paper's deployment model for T(x,u) is "precompute once, ship, probe
// cheaply" (section IV-C) — yet a naive harness rebuilds the full grid for
// every episode, so a sweep or fleet run pays the dominant build cost
// hundreds of times for identical geometry.  The store restores the
// paper's model inside the process (and, optionally, across processes via
// the on-disk artifact store).
//
// DeadlineTableKey fingerprints EVERY input that determines the built
// Lipschitz-certificate table: the table grid/domain config, the
// *effective* Lipschitz interval config — including the environment_speed
// raise run_episode applies for moving obstacles — the barrier
// calibration, the road geometry, and the ego body radius.  The `threads`
// build knob is deliberately excluded: it is an execution parameter, not a
// table property (the build is bit-identical for any thread count).  A
// missed dependent parameter is the classic silent cache-corruption bug,
// so key sensitivity is locked by tests and the digest is pinned by a
// golden-value test.
#pragma once

#include <cstdint>
#include <string>

#include "core/artifact_store.hpp"
#include "dynamics/road.hpp"
#include "safety/barrier.hpp"
#include "safety/deadline_table.hpp"
#include "safety/safe_interval.hpp"

namespace seo {

/// Everything that determines the content of a Lipschitz-built
/// DeadlineTable.  `table.threads` is excluded from equality and digest.
struct DeadlineTableKey {
  DeadlineTableConfig table{};          ///< grid + domain (max_distance already
                                        ///< resolved to the sensing range)
  LipschitzIntervalConfig interval{};   ///< effective config, including any
                                        ///< runtime environment_speed raise
  BarrierConfig barrier{};
  RoadParams road{};
  double body_radius = 0.0;

  /// Canonical 64-bit content digest (stable across processes and runs —
  /// pinned by the golden-digest test).
  std::uint64_t digest() const;
  /// digest() as fixed-width hex — the on-disk artifact address.
  std::string hex() const;

  bool operator==(const DeadlineTableKey& other) const;
};

/// Artifact kind "dtable": Lipschitz-certificate deadline tables.
struct LipschitzTableTraits {
  using Key = DeadlineTableKey;
  using Value = DeadlineTable;
  static const char* kind() { return "dtable"; }
  /// Container format version: v3 is the binary `seo-artifact` container
  /// with the binary table payload (v2's text files — like PR 4's bespoke
  /// v1 files before them — are simply never addressed again and get
  /// reclaimed by the GC sweep).
  static int version() { return 3; }
  static void encode(const DeadlineTable& table, BinaryWriter& out) {
    table.encode(out);
  }
  static DeadlineTable decode(BinaryReader& in) {
    return DeadlineTable::decode(in);
  }
  /// The shape check against the key that the payload alone cannot
  /// prove; throws ContractViolation on a mismatch.
  static void validate(const Key& key, const DeadlineTable& table);
  static std::size_t weight_bytes(const DeadlineTable& table) {
    return table.cell_count() * sizeof(double) + 256;
  }
};

/// The deadline-table store.  One process-wide instance (global()) backs
/// run_episode; independent instances are cheap and used by tests and
/// benchmarks.
using DeadlineTableCache = ArtifactStore<LipschitzTableTraits>;

}  // namespace seo
