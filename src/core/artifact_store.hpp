// Generic content-addressed artifact store — the "build once, reuse by
// fingerprint" machinery behind the deadline-table cache
// (safety/table_cache.hpp), kept separate from that one kind so the
// container, lock and single-flight algorithm are tested on their own:
//
//  * Content-addressed.  An artifact kind supplies a Key type whose
//    `digest()` canonically fingerprints EVERY content-determining input
//    (core/fingerprint.hpp).  Execution knobs (thread counts) are excluded
//    by construction; a missed dependent parameter is the classic silent
//    cache-corruption bug, so the key's sensitivity is locked by tests and
//    a golden digest pins the hasher against accidental change.
//  * Single-flight.  Concurrent callers requesting one key block on one
//    build; every waiter receives the same immutable value.  Entries live
//    until clear(): a process holds one small table per geometry.
//  * Configured once per process.  The disk tier is store state set by
//    configure() (the CLIs do it once after parsing their flags), never a
//    per-request or per-scenario setting.
//  * Disk-layered with GC (optional).  With a cache directory, artifacts
//    persist as fixed-width little-endian FNV-1a-checksummed binary
//    containers under versioned digest-addressed file names (temp-write +
//    atomic rename) and reload across processes.  Every store and every
//    load stamps the artifact's mtime, so the files themselves record
//    last-use order and a GC sweep can enforce size/age caps by LRU — the
//    artifact dir is provably bounded instead of growing forever.
//    Unreadable, corrupt or mismatched artifacts are never trusted: they
//    count as disk_failures, rebuild in process, and are rewritten.
//  * Cross-process single-flight.  A cold disk miss serializes on a
//    per-digest advisory file lock (`<artifact>.lock` sidecar, flock), so
//    N cold processes sharing one dir build each distinct artifact exactly
//    once: the first holder builds and stores, every later holder re-reads
//    the artifact the lock ordered it behind.  A crashed holder's lock is
//    released by the OS, so stale locks are stolen for free; a filesystem
//    that refuses locks degrades to per-process single-flight, never to a
//    wrong value.
//
// Determinism guarantee: a hit returns a value bit-identical to a fresh
// build (in memory trivially; on disk because a kind's encode/decode
// round-trips raw IEEE-754 bits), so any run is byte-identical with the
// store on or off — locked by the sweep/fleet golden tests.  File mtimes
// decide only which artifacts a GC sweep keeps, never any bytes.
//
// An artifact kind is described by a Traits type:
//
//   struct MyTraits {
//     using Key = MyKey;      // digest(), hex(), operator==
//     using Value = MyValue;  // immutable once built
//     static const char* kind();            // short tag: file names, stats
//     static int version();                 // bump on format/schema change
//     static void encode(const Value&, BinaryWriter&);
//     static Value decode(BinaryReader&);            // throws on bad data
//     static void validate(const Key&, const Value&);// defense in depth
//     static std::size_t weight_bytes(const Value&); // resident-bytes stat
//   };
//
// The encode/decode pair speaks core/binary_io — the same canonical byte
// discipline as the seo-trace stream — and must consume exactly the bytes
// it wrote (the store rejects trailing bytes as corruption).
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/binary_io.hpp"
#include "core/fingerprint.hpp"
#include "util/expect.hpp"
#include "util/log.hpp"

namespace seo {

/// Monotonic counters describing one store's behaviour.  `hits + misses`
/// equals the number of get() calls; `waits` counts the subset of hits
/// that blocked on another caller's in-flight build (single-flight dedup);
/// `bytes` is the current resident payload weight, not a counter.
struct ArtifactStoreStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t builds = 0;         ///< builder invocations actually run
  std::uint64_t waits = 0;
  std::uint64_t lock_waits = 0;     ///< cold misses that blocked on another
                                    ///< process's per-digest artifact lock
  std::uint64_t bytes = 0;          ///< resident payload bytes (approx)
  std::uint64_t disk_loads = 0;     ///< misses served from the artifact dir
  std::uint64_t disk_stores = 0;
  std::uint64_t disk_failures = 0;  ///< corrupt/mismatched artifacts rebuilt

  /// Field-wise sum — how per-process stats combine into a farm-wide view.
  ArtifactStoreStats& operator+=(const ArtifactStoreStats& o) {
    hits += o.hits;
    misses += o.misses;
    builds += o.builds;
    waits += o.waits;
    lock_waits += o.lock_waits;
    bytes += o.bytes;
    disk_loads += o.disk_loads;
    disk_stores += o.disk_stores;
    disk_failures += o.disk_failures;
    return *this;
  }
};

/// Disk-tier settings of one store.  An empty dir disables the tier.
/// When a size or age cap is set, a GC sweep runs after each store.
struct ArtifactDiskOptions {
  std::string dir;
  std::uint64_t max_bytes = 0;  ///< artifact-dir size cap (0 = unbounded)
  double max_age_s = 0.0;       ///< last-use age cap (0 = unbounded)
};

/// Result of one GC sweep over an artifact directory.
struct ArtifactGcResult {
  std::size_t scanned = 0;        ///< files considered (not tmp/.lock)
  std::size_t removed = 0;        ///< files deleted (LRU/size/age/orphans)
  std::uint64_t bytes_before = 0;
  std::uint64_t bytes_after = 0;
};

/// LRU GC sweep over `dir`, in last-use order = (mtime, name): drops
/// artifacts whose age `now - mtime` exceeds `max_age_s` (when > 0; +inf
/// keeps everything), then least-recently-used artifacts until the
/// directory is within `max_bytes` (when > 0), plus stale temp files from
/// crashed writers and idle lock sidecars.  Files not named like an
/// artifact (older formats, foreign debris) count as oldest.  The
/// most-recently-used artifact is always kept.  Safe to call concurrently;
/// races with other processes degrade to a rebuild on next use, never to
/// a wrong value.  Returns what it did.
ArtifactGcResult artifact_store_gc(const std::string& dir,
                                   std::uint64_t max_bytes,
                                   double max_age_s);

namespace artifact_detail {

/// "<kind>-v<version>-<hex>.bin" — the digest-addressed artifact name.
std::string artifact_file_name(const std::string& kind, int version,
                               const std::string& hex);

/// Reads `path` and verifies the v2 binary container: magic, container
/// version, kind, Traits version, key digest, payload size, header
/// checksum, then the payload's own checksum (the file NAME is the
/// address, but content must re-prove its identity).  Returns false when
/// the file does not exist (a cold store, not a failure); throws
/// ContractViolation on any mismatch, truncation or checksum failure.
bool read_artifact_payload(const std::string& path, const std::string& kind,
                           int version, std::uint64_t digest,
                           std::string& payload_out);

/// Wraps `payload` in the v2 binary container and writes it via
/// temp-write + atomic rename, marking it most-recently-used.  Throws on
/// I/O failure.
void write_artifact(const ArtifactDiskOptions& disk, const std::string& kind,
                    int version, std::uint64_t digest,
                    const std::string& payload);

/// Marks the artifact at `path` most-recently-used by setting its mtime to
/// now, so disk LRU order reflects loads, not only stores.  Best effort: a
/// failure only costs warmth.
void mark_used(const std::string& path);

/// RAII per-digest advisory file lock (`flock` on an `<artifact>.lock`
/// sidecar) — the cross-process single-flight primitive.  Construction
/// blocks until the lock is held; `waited()` reports whether another
/// process held it first (surfaced as `lock_waits` in the stats).  A
/// holder's crash releases the lock at the OS level, so stale locks are
/// stolen simply by acquiring them.  On filesystems that refuse advisory
/// locks the lock degrades to a no-op (`held()` false): single-flight
/// falls back to per-process, correctness is unaffected.
class DigestLock {
 public:
  /// Acquires `<dir>/<artifact_name>.lock`, creating it if needed.
  DigestLock(const std::string& dir, const std::string& artifact_name);
  ~DigestLock();
  DigestLock(const DigestLock&) = delete;
  DigestLock& operator=(const DigestLock&) = delete;

  bool held() const { return fd_ >= 0; }
  bool waited() const { return waited_; }

 private:
  int fd_ = -1;
  bool waited_ = false;
};

}  // namespace artifact_detail

/// Thread-safe, single-flight content-addressed store for one artifact
/// kind.  One process-wide instance per kind (global()); fresh instances
/// are cheap and used by tests and benchmarks.
template <typename Traits>
class ArtifactStore {
 public:
  using Key = typename Traits::Key;
  using Value = typename Traits::Value;
  using ValuePtr = std::shared_ptr<const Value>;
  using Builder = std::function<std::unique_ptr<Value>()>;

  ArtifactStore() = default;
  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  /// Returns the value for `key`, building it with `build` at most once per
  /// key across all concurrent callers.  With a disk dir (the configured
  /// one), a miss first tries the artifact store and a fresh build is
  /// persisted back (best effort — I/O failures degrade to in-memory
  /// caching, never to a wrong value).  If `build` throws, the error
  /// propagates to every waiter and the entry is dropped so later calls can
  /// retry.
  ValuePtr get(const Key& key, const Builder& build) {
    return fetch(key, nullptr, build);
  }

  /// get() with an explicit disk tier in place of the configured one.
  ValuePtr get(const Key& key, const ArtifactDiskOptions& disk,
               const Builder& build) {
    return fetch(key, &disk, build);
  }

  /// Process-level setting: the disk tier get(key, build) uses on a miss.
  void configure(const ArtifactDiskOptions& disk) {
    std::lock_guard<std::mutex> lock(mutex_);
    disk_ = disk;
  }

  ArtifactStoreStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }
  /// Drops every entry and zeroes the stats (tests, benchmarks).
  /// In-flight builds complete and hand their value to current waiters,
  /// but are not re-admitted.  The configuration stays.
  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    stats_ = ArtifactStoreStats{};
  }

  /// Versioned digest-addressed artifact file name for `key`.
  static std::string artifact_name(const Key& key) {
    return artifact_detail::artifact_file_name(Traits::kind(),
                                               Traits::version(), key.hex());
  }

  /// The process-wide store for this kind.
  static ArtifactStore& global() {
    static ArtifactStore* store = new ArtifactStore();
    return *store;
  }

 private:
  /// get() behind both overloads; `explicit_disk` null = the configured
  /// disk tier, read under the store mutex on a miss only.
  ValuePtr fetch(const Key& key, const ArtifactDiskOptions* explicit_disk,
                 const Builder& build) {
    const std::uint64_t d = key.digest();
    std::shared_ptr<std::promise<ValuePtr>> promise;
    std::shared_future<ValuePtr> future;
    std::uint64_t epoch = 0;
    ArtifactDiskOptions disk;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = entries_.find(d);
      if (it != entries_.end()) {
        // A 64-bit digest collision between distinct keys is ~2^-64 per
        // pair; refusing loudly beats silently sharing a wrong value.
        if (!(it->second.key == key))
          throw ContractViolation(
              std::string(Traits::kind()) +
              " artifact digest collision: distinct keys share digest " +
              fingerprint_hex(d));
        ++stats_.hits;
        if (it->second.in_flight) ++stats_.waits;
        future = it->second.ready;
      } else {
        ++stats_.misses;
        disk = explicit_disk != nullptr ? *explicit_disk : disk_;
        promise = std::make_shared<std::promise<ValuePtr>>();
        future = promise->get_future().share();
        epoch = ++epoch_counter_;
        entries_.emplace(d, Entry{key, future, epoch, true, 0});
      }
    }
    if (!promise) return future.get();  // rethrows a failed build, by design

    // This caller owns the (single-flight) fill; everyone else blocks on
    // the shared future until the value or the exception lands.
    ValuePtr value;
    try {
      DiskLoad first = DiskLoad::kCold;
      if (!disk.dir.empty()) first = load_artifact(key, disk, value);
      if (!value) {
        // Cold (or corrupt) on disk: serialize the build on the per-digest
        // cross-process lock.  Another process may complete the same build
        // between our first look and the acquisition — even without
        // blocking — so a cold miss always re-checks the disk under the
        // held lock; only a still-absent artifact is built.  A corrupt
        // first read skips the re-check (the artifact is known bad; the
        // rebuild overwrites and heals it).
        std::unique_ptr<artifact_detail::DigestLock> dlock;
        if (!disk.dir.empty()) {
          dlock = std::make_unique<artifact_detail::DigestLock>(
              disk.dir, artifact_name(key));
          if (dlock->waited()) {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.lock_waits;
          }
          if (dlock->held() && first == DiskLoad::kCold)
            load_artifact(key, disk, value);
        }
        if (!value) {
          std::unique_ptr<Value> built = build();
          SEO_ENSURE(built != nullptr);
          value = ValuePtr(std::move(built));
          {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.builds;
          }
          if (!disk.dir.empty()) store_artifact(key, *value, disk);
        }
      }
    } catch (...) {
      {
        // Drop the entry so later calls can retry a transient failure ...
        std::lock_guard<std::mutex> lock(mutex_);
        erase_if_epoch(d, epoch);
      }
      // ... while current waiters all observe this build's exception.
      promise->set_exception(std::current_exception());
      throw;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // clear() may have raced the fill; only finalize the entry this call
      // created (the value itself is handed out anyway).
      const auto it = entries_.find(d);
      if (it != entries_.end() && it->second.epoch == epoch) {
        it->second.in_flight = false;
        it->second.bytes = Traits::weight_bytes(*value);
        stats_.bytes += it->second.bytes;
      }
    }
    promise->set_value(value);
    return value;
  }

  struct Entry {
    Key key;
    std::shared_future<ValuePtr> ready;
    std::uint64_t epoch = 0;  ///< guards finalize against clear() races
    bool in_flight = true;
    std::size_t bytes = 0;
  };

  void erase_if_epoch(std::uint64_t digest, std::uint64_t epoch) {
    const auto it = entries_.find(digest);
    if (it == entries_.end() || it->second.epoch != epoch) return;
    if (!it->second.in_flight) stats_.bytes -= it->second.bytes;
    entries_.erase(it);
  }

  /// Outcome of one disk probe: `kCold` = no artifact on disk, `kLoaded` =
  /// value decoded and validated, `kFailed` = an artifact existed but was
  /// corrupt/mismatched (counted as a disk failure; the rebuild heals it).
  enum class DiskLoad { kCold, kLoaded, kFailed };

  DiskLoad load_artifact(const Key& key, const ArtifactDiskOptions& disk,
                         ValuePtr& out) {
    const std::string path = disk.dir + "/" + artifact_name(key);
    try {
      std::string payload;
      if (!artifact_detail::read_artifact_payload(
              path, Traits::kind(), Traits::version(), key.digest(), payload))
        return DiskLoad::kCold;  // cold store: not a failure
      BinaryReader in{std::string_view(payload)};
      auto value = std::make_shared<Value>(Traits::decode(in));
      in.require_exhausted("artifact payload");
      // Defense in depth: the payload must agree with the key even though
      // the header digest already matched (catches a truncated rewrite
      // that kept the header intact).
      Traits::validate(key, *value);
      artifact_detail::mark_used(path);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.disk_loads;
      }
      out = std::move(value);
      return DiskLoad::kLoaded;
    } catch (const std::exception& e) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.disk_failures;
      }
      // Log outside the lock: stderr can stall arbitrarily (pipes), and
      // unrelated keys must not queue behind it.
      log_warn() << Traits::kind()
                 << " artifact store: rebuilding after unusable artifact "
                 << path << " (" << e.what() << ")";
      return DiskLoad::kFailed;
    }
  }

  void store_artifact(const Key& key, const Value& value,
                      const ArtifactDiskOptions& disk) {
    try {
      std::string payload;
      BinaryWriter writer(payload);
      Traits::encode(value, writer);
      artifact_detail::write_artifact(disk, Traits::kind(), Traits::version(),
                                      key.digest(), payload);
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.disk_stores;
    } catch (const std::exception& e) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.disk_failures;
      }
      log_warn() << Traits::kind()
                 << " artifact store: could not persist artifact ("
                 << e.what() << "); continuing with the in-memory entry";
    }
  }

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  ArtifactDiskOptions disk_;
  ArtifactStoreStats stats_;
  std::uint64_t epoch_counter_ = 0;
};

}  // namespace seo
