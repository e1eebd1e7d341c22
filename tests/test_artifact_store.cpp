// Generic artifact-store tests: golden digest pinning (an accidental
// hasher or key-schema change would silently invalidate every on-disk
// artifact — it must fail loudly here instead), the in-memory hit path and
// clear(), the disk tier's mtime-driven LRU GC (the artifact dir is
// provably bounded), the v2 binary container (round trip, corruption
// heal, v1-text migration), the process-level configuration (the
// configured disk tier serves every get), and the cross-process
// single-flight lock (fork-based: two cold processes sharing one dir build
// each digest exactly once).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/artifact_store.hpp"
#include "core/binary_io.hpp"
#include "core/fingerprint.hpp"
#include "safety/table_cache.hpp"
#include "util/expect.hpp"

namespace seo {
namespace {

// --- Test artifact kind -----------------------------------------------------

/// A tiny synthetic kind so store mechanics are tested without paying for
/// table builds: the payload is an explicit string and its byte weight is
/// the payload size, making the `bytes` stat exact.
struct BlobKey {
  std::uint64_t id = 0;
  std::uint64_t generation = 0;

  std::uint64_t digest() const {
    FingerprintHasher h;
    h.mix(std::string_view("test-blob-key"));
    h.mix(id);
    h.mix(generation);
    return h.digest();
  }
  std::string hex() const { return fingerprint_hex(digest()); }
  bool operator==(const BlobKey& other) const {
    return id == other.id && generation == other.generation;
  }
};

struct Blob {
  std::uint64_t id = 0;
  std::string payload;
};

struct BlobTraits {
  using Key = BlobKey;
  using Value = Blob;
  static const char* kind() { return "blob"; }
  static int version() { return 1; }
  static void encode(const Blob& blob, BinaryWriter& out) {
    out.u64(blob.id);
    out.str(blob.payload);
  }
  static Blob decode(BinaryReader& in) {
    Blob blob;
    blob.id = in.u64();
    blob.payload = in.str();
    return blob;
  }
  static void validate(const Key& key, const Blob& blob) {
    if (blob.id != key.id)
      throw ContractViolation("blob artifact does not match its key");
  }
  static std::size_t weight_bytes(const Blob& blob) {
    return blob.payload.size();
  }
};

using BlobStore = ArtifactStore<BlobTraits>;

BlobStore::Builder blob_builder(const BlobKey& key, std::size_t bytes,
                                std::atomic<int>* builds = nullptr) {
  return [key, bytes, builds] {
    if (builds != nullptr) ++*builds;
    auto blob = std::make_unique<Blob>();
    blob->id = key.id;
    blob->payload.assign(bytes, static_cast<char>('a' + key.id % 26));
    return blob;
  };
}

/// RAII temp directory for disk-tier tests.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& tag) {
    path = std::filesystem::temp_directory_path() /
           ("seo_artifact_store_" + tag + "_" +
            std::to_string(static_cast<long long>(::getpid())));
    std::filesystem::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

/// Store bookkeeping files (the lock sidecars) — everything in the dir
/// that is not an artifact.
bool is_store_metadata(const std::string& name) {
  return name.size() > 5 && name.compare(name.size() - 5, 5, ".lock") == 0;
}

/// Sets the mtime of `dir`'s artifact for `key` to `age` before now — the
/// GC's last-use order, set explicitly so no test sleeps or depends on
/// the filesystem's timestamp granularity.
void set_age(const std::filesystem::path& dir, const BlobKey& key,
             std::filesystem::file_time_type::duration age) {
  std::filesystem::last_write_time(
      dir / BlobStore::artifact_name(key),
      std::filesystem::file_time_type::clock::now() - age);
}

std::vector<std::string> dir_artifacts(const std::filesystem::path& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (!is_store_metadata(name)) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::uint64_t dir_bytes(const std::filesystem::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (is_store_metadata(entry.path().filename().string())) continue;
    total += entry.file_size();
  }
  return total;
}

// --- Golden digests ---------------------------------------------------------
//
// These pin the canonical hasher and every key schema to known values: a
// change to FNV mixing, field order, or the fingerprinted field set will
// move a digest and fail here — BEFORE it silently orphans every artifact
// written by earlier builds.  If a change is *intentional*, bump the
// kind's key-schema constant and re-pin.

TEST(GoldenDigests, FingerprintHasherIsPinned) {
  // Empty hasher = FNV-1a 64-bit offset basis.
  EXPECT_EQ(FingerprintHasher{}.digest(), 14695981039346656037ull);
  EXPECT_EQ(FingerprintHasher{}.hex(), "cbf29ce484222325");

  FingerprintHasher h;
  h.mix(std::uint64_t{1});
  h.mix(1.5);
  h.mix(std::string_view("seo"));
  EXPECT_EQ(h.hex(), "9686520aeb690357");
}

TEST(GoldenDigests, DeadlineTableKeyIsPinned) {
  EXPECT_EQ(DeadlineTableKey{}.hex(), "33e1833ba33c08b3");

  DeadlineTableKey rig;  // the paper-default episode key shape
  rig.table.max_distance = LipschitzIntervalConfig{}.sensing_range;
  rig.body_radius = BarrierConfig{}.body_radius;
  EXPECT_EQ(rig.hex(), "d8bfd9b31de26b8f");
}

// --- In-memory hit path ----------------------------------------------------

TEST(ArtifactStoreMemory, HitsShareOneValueAndClearResets) {
  BlobStore store;
  std::atomic<int> builds{0};
  const BlobKey a{1, 0};
  const auto first = store.get(a, blob_builder(a, 16, &builds));
  const auto second = store.get(a, blob_builder(a, 16, &builds));
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(first.get(), second.get());  // same shared value, not a copy
  ArtifactStoreStats stats = store.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.bytes, 16u);

  store.clear();
  stats = store.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(store.size(), 0u);
  // A post-clear get must rebuild; the value a caller held stays valid.
  (void)store.get(a, blob_builder(a, 16, &builds));
  EXPECT_EQ(builds.load(), 2);
  EXPECT_EQ(first->payload.size(), 16u);
}

// --- Disk tier: GC bounds the artifact dir ----------------------------------

TEST(ArtifactStoreDiskGc, SizeCapEvictsOldestByLru) {
  const TempDir dir("gc_size");
  BlobStore store;
  // 5 artifacts x ~300 payload bytes each, no caps while filling.
  for (std::uint64_t id = 1; id <= 5; ++id) {
    const BlobKey key{id, 0};
    (void)store.get(key, ArtifactDiskOptions{dir.str(), 0, 0.0},
                    blob_builder(key, 300));
  }
  ASSERT_EQ(dir_artifacts(dir.path).size(), 5u);
  // Last-use order = store order: id=k was used (10 - k) minutes ago.
  for (std::uint64_t id = 1; id <= 5; ++id)
    set_age(dir.path, BlobKey{id, 0}, std::chrono::minutes(10 - id));

  // Load id=1 so it becomes disk-MRU despite being stored first: a load
  // stamps the artifact's mtime with now.
  {
    BlobStore fresh;
    const BlobKey key{1, 0};
    (void)fresh.get(key, ArtifactDiskOptions{dir.str(), 0, 0.0},
                    blob_builder(key, 300));
    EXPECT_EQ(fresh.stats().disk_loads, 1u);
  }

  // Cap at exactly 2 artifacts (sized from disk, so container framing
  // changes cannot skew the arithmetic): the sweep must keep the most
  // recently used ones — id=1 (just loaded) and id=5 (last stored) —
  // and drop 2, 3, 4.
  const std::uint64_t unit = std::filesystem::file_size(
      dir.path / BlobStore::artifact_name(BlobKey{1, 0}));
  const std::uint64_t cap = 2 * unit;
  const ArtifactGcResult result = artifact_store_gc(dir.str(), cap, 0.0);
  EXPECT_EQ(result.removed, 3u);
  EXPECT_LE(result.bytes_after, cap);
  auto remaining = dir_artifacts(dir.path);
  ASSERT_EQ(remaining.size(), 2u);
  std::vector<std::string> expected = {
      BlobStore::artifact_name(BlobKey{1, 0}),
      BlobStore::artifact_name(BlobKey{5, 0})};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(remaining, expected);
  EXPECT_LE(dir_bytes(dir.path), cap);

  // The survivors still load cleanly.
  BlobStore warm;
  (void)warm.get(BlobKey{5, 0}, ArtifactDiskOptions{dir.str(), 0, 0.0},
                 blob_builder(BlobKey{5, 0}, 300));
  EXPECT_EQ(warm.stats().disk_loads, 1u);
  EXPECT_EQ(warm.stats().builds, 0u);
}

TEST(ArtifactStoreDiskGc, StoresWithCapsKeepTheDirBounded) {
  const TempDir dir("gc_inline");
  BlobStore store;
  // Fill far past the cap; every store() runs a sweep, so the dir can
  // never exceed cap + one in-flight artifact.
  const std::uint64_t cap = 1000;
  for (std::uint64_t id = 1; id <= 12; ++id) {
    const BlobKey key{id, 0};
    (void)store.get(key, ArtifactDiskOptions{dir.str(), cap, 0.0},
                    blob_builder(key, 300));
    EXPECT_LE(dir_bytes(dir.path), cap + 400) << "after artifact " << id;
  }
  // The newest artifact always survives its own store's sweep.
  const auto remaining = dir_artifacts(dir.path);
  ASSERT_FALSE(remaining.empty());
  EXPECT_TRUE(std::find(remaining.begin(), remaining.end(),
                        BlobStore::artifact_name(BlobKey{12, 0})) !=
              remaining.end());
}

TEST(ArtifactStoreDiskGc, AgeCapDropsStaleArtifactsButKeepsMru) {
  const TempDir dir("gc_age");
  BlobStore store;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const BlobKey key{id, 0};
    (void)store.get(key, ArtifactDiskOptions{dir.str(), 0, 0.0},
                    blob_builder(key, 100));
  }
  // Every artifact last used hours ago, id=3 most recently.
  for (std::uint64_t id = 1; id <= 3; ++id)
    set_age(dir.path, BlobKey{id, 0}, std::chrono::hours(5 - id));
  // `--cache max-age-h=1e308` comes to +inf seconds: no age exceeds it.
  ArtifactGcResult result = artifact_store_gc(
      dir.str(), 0, std::numeric_limits<double>::infinity());
  EXPECT_EQ(result.removed, 0u);
  EXPECT_EQ(dir_artifacts(dir.path).size(), 3u);
  result = artifact_store_gc(dir.str(), 0, /*max_age_s=*/3600.0);
  // Everything is past a one-hour cap; the sweep keeps only the most
  // recently used.
  EXPECT_EQ(result.removed, 2u);
  const auto remaining = dir_artifacts(dir.path);
  ASSERT_EQ(remaining.size(), 1u);
  EXPECT_EQ(remaining[0], BlobStore::artifact_name(BlobKey{3, 0}));
}

// With no cap at all (`--cache dir=D,gc`), a sweep still reclaims the
// files the store itself wrote in older layouts, and only those: a file it
// does not recognise may be the user's and waits for a cap.
TEST(ArtifactStoreDiskGc, RetiredStoreFilesGoWithoutACap) {
  const TempDir dir("gc_retired");
  std::filesystem::create_directories(dir.path);
  BlobStore store;
  const BlobKey key{1, 0};
  (void)store.get(key, ArtifactDiskOptions{dir.str(), 0, 0.0},
                  blob_builder(key, 100));
  const auto write = [&](const char* name, std::size_t bytes) {
    std::ofstream out(dir.path / name);
    out << std::string(bytes, 'x');
  };
  for (const char* retired : {"dtable-v1-0123456789abcdef.txt",
                              "manifest.txt", "manifest.bin"})
    write(retired, 500);
  for (const char* foreign : {"notes.txt", "dtable-v1-0123.txt"})
    write(foreign, 50);

  ArtifactGcResult result = artifact_store_gc(dir.str(), 0, 0.0);
  EXPECT_EQ(result.scanned, 6u);  // 1 artifact + 3 retired + 2 foreign
  EXPECT_EQ(result.removed, 3u);
  EXPECT_EQ(result.bytes_before - result.bytes_after, 1500u);
  std::vector<std::string> expected = {BlobStore::artifact_name(key),
                                       "dtable-v1-0123.txt", "notes.txt"};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(dir_artifacts(dir.path), expected);

  result = artifact_store_gc(dir.str(), 0, 0.0);
  EXPECT_EQ(result.scanned, 3u);
  EXPECT_EQ(result.removed, 0u);
  EXPECT_EQ(result.bytes_after, result.bytes_before);
}

TEST(ArtifactStoreDiskGc, UnmanagedFilesAreReclaimedFirst) {
  const TempDir dir("gc_unmanaged");
  std::filesystem::create_directories(dir.path);
  BlobStore store;
  const BlobKey key{1, 0};
  (void)store.get(key, ArtifactDiskOptions{dir.str(), 0, 0.0},
                  blob_builder(key, 100));
  set_age(dir.path, key, std::chrono::hours(1));
  // A v1 text artifact, retired text and binary manifests, or any foreign
  // debris is not named like an artifact: however recent its mtime, it
  // must be the first thing a size-capped sweep reclaims.  An idle
  // manifest lock goes with the other idle sidecars.
  for (const char* debris : {"dtable-v1-0123456789abcdef.txt", "manifest.txt",
                             "manifest.bin", "notes.txt", "manifest.lock"}) {
    std::ofstream out(dir.path / debris);
    out << std::string(500, 'x');
  }
  (void)artifact_store_gc(dir.str(), 200, 0.0);
  const auto remaining = dir_artifacts(dir.path);
  ASSERT_EQ(remaining.size(), 1u);
  EXPECT_EQ(remaining[0], BlobStore::artifact_name(key));
  EXPECT_FALSE(std::filesystem::exists(dir.path / "manifest.lock"));
}

// --- Disk round trip + corruption for the generic header --------------------

TEST(ArtifactStoreDisk, RoundTripAndHeaderVerification) {
  const TempDir dir("roundtrip");
  const BlobKey key{7, 3};
  BlobStore cold;
  const auto built =
      cold.get(key, ArtifactDiskOptions{dir.str(), 0, 0.0},
               blob_builder(key, 50));
  EXPECT_EQ(cold.stats().disk_stores, 1u);

  BlobStore warm;
  const auto loaded =
      warm.get(key, ArtifactDiskOptions{dir.str(), 0, 0.0},
               blob_builder(key, 50));
  EXPECT_EQ(warm.stats().builds, 0u);
  EXPECT_EQ(warm.stats().disk_loads, 1u);
  EXPECT_EQ(loaded->payload, built->payload);

  // An artifact copied under another key's address re-proves its identity
  // via the header digest and is rejected (then healed by a rebuild).
  const BlobKey other{8, 3};
  std::filesystem::copy_file(dir.path / BlobStore::artifact_name(key),
                             dir.path / BlobStore::artifact_name(other));
  BlobStore reject;
  const auto rebuilt =
      reject.get(other, ArtifactDiskOptions{dir.str(), 0, 0.0},
                 blob_builder(other, 60));
  EXPECT_EQ(reject.stats().disk_failures, 1u);
  EXPECT_EQ(reject.stats().builds, 1u);
  EXPECT_EQ(rebuilt->id, 8u);
}

TEST(ArtifactStoreDisk, CorruptBinaryPayloadIsRejectedAndHealed) {
  const TempDir dir("bitrot");
  const BlobKey key{9, 1};
  {
    BlobStore seed;
    (void)seed.get(key, ArtifactDiskOptions{dir.str(), 0, 0.0},
                   blob_builder(key, 200));
  }
  // Flip one mid-file bit; a container checksum must catch it — silent
  // bit rot must rebuild, never hand back a mangled value.
  const std::filesystem::path artifact =
      dir.path / BlobStore::artifact_name(key);
  std::string blob;
  {
    std::ifstream in(artifact, std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    blob = bytes.str();
  }
  blob[blob.size() / 2] = static_cast<char>(blob[blob.size() / 2] ^ 0x40);
  {
    std::ofstream out(artifact, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }
  BlobStore store;
  std::atomic<int> builds{0};
  const auto rebuilt = store.get(key, ArtifactDiskOptions{dir.str(), 0, 0.0},
                                 blob_builder(key, 200, &builds));
  EXPECT_EQ(store.stats().disk_failures, 1u);
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(rebuilt->payload.size(), 200u);
  // The rebuild healed the file: a fresh store loads it cleanly.
  BlobStore healed;
  (void)healed.get(key, ArtifactDiskOptions{dir.str(), 0, 0.0},
                   blob_builder(key, 200, &builds));
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(healed.stats().disk_loads, 1u);
  EXPECT_EQ(healed.stats().disk_failures, 0u);
}

TEST(ArtifactStoreDisk, LegacyTextArtifactIsRebuiltAsBinaryThenReclaimed) {
  const TempDir dir("legacy_text");
  std::filesystem::create_directories(dir.path);
  const BlobKey key{4, 2};
  // A pre-v2 text artifact under the old naming scheme: the binary store
  // never addresses .txt files, so the key is simply cold and rebuilds
  // into the v2 container alongside it...
  const std::string legacy = "blob-v1-" + key.hex() + ".txt";
  {
    std::ofstream out(dir.path / legacy);
    out << "seo-artifact blob 1 " << key.hex() << " 5\n4\nhello";
  }
  BlobStore store;
  std::atomic<int> builds{0};
  (void)store.get(key, ArtifactDiskOptions{dir.str(), 0, 0.0},
                  blob_builder(key, 120, &builds));
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(store.stats().disk_loads, 0u);
  EXPECT_EQ(store.stats().disk_failures, 0u);
  auto names = dir_artifacts(dir.path);
  EXPECT_EQ(names.size(), 2u);  // old text + new binary coexist
  // ...and, being unmanaged, the text file is the first thing a
  // size-capped sweep reclaims.
  const auto bin_size = std::filesystem::file_size(
      dir.path / BlobStore::artifact_name(key));
  (void)artifact_store_gc(dir.str(), bin_size, 0.0);
  names = dir_artifacts(dir.path);
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], BlobStore::artifact_name(key));
}

// --- Process-level configuration ------------------------------------------

TEST(ArtifactStoreConfigure, ConfiguredDiskTierServesGetWithoutOptions) {
  const TempDir dir("configured");
  const ArtifactDiskOptions disk{dir.str(), 0, 0.0};
  const BlobKey key{5, 1};
  BlobStore cold;
  cold.configure(disk);
  (void)cold.get(key, blob_builder(key, 40));
  EXPECT_EQ(cold.stats().disk_stores, 1u);
  EXPECT_TRUE(
      std::filesystem::exists(dir.path / BlobStore::artifact_name(key)));

  // A fresh store configured with the same dir (a second process stand-in)
  // loads instead of building.
  BlobStore warm;
  warm.configure(disk);
  std::atomic<int> builds{0};
  const auto loaded = warm.get(key, blob_builder(key, 40, &builds));
  EXPECT_EQ(builds.load(), 0);
  EXPECT_EQ(warm.stats().disk_loads, 1u);
  EXPECT_EQ(loaded->payload.size(), 40u);

  // An explicit disk tier replaces the configured one for that call.
  BlobStore explicit_memory;
  explicit_memory.configure(disk);
  (void)explicit_memory.get(key, ArtifactDiskOptions{},
                            blob_builder(key, 40, &builds));
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(explicit_memory.stats().disk_loads, 0u);
}

// --- Cross-process single-flight --------------------------------------------

TEST(ArtifactStoreLock, StaleLockFileIsStolenAndReclaimed) {
  const TempDir dir("stale_lock");
  std::filesystem::create_directories(dir.path);
  const BlobKey key{6, 3};
  // A lock sidecar left by a crashed holder: flock dies with its process,
  // so acquiring (stealing) the stale lock must succeed without blocking.
  const std::filesystem::path lock =
      dir.path / (BlobStore::artifact_name(key) + ".lock");
  { std::ofstream out(lock); }
  BlobStore store;
  std::atomic<int> builds{0};
  const auto blob = store.get(key, ArtifactDiskOptions{dir.str(), 0, 0.0},
                              blob_builder(key, 64, &builds));
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(blob->payload.size(), 64u);
  EXPECT_EQ(store.stats().lock_waits, 0u);  // stolen, never blocked on
  // The GC sweep reclaims idle sidecars (nobody holds them) without
  // touching the artifact they guard.
  EXPECT_TRUE(std::filesystem::exists(lock));
  (void)artifact_store_gc(dir.str(), 0, 0.0);
  EXPECT_FALSE(std::filesystem::exists(lock));
  EXPECT_TRUE(
      std::filesystem::exists(dir.path / BlobStore::artifact_name(key)));
}

TEST(ArtifactStoreLock, TwoColdProcessesBuildEachDigestExactlyOnce) {
  const TempDir dir("multiproc");
  std::filesystem::create_directories(dir.path);
  constexpr int kProcs = 2;
  constexpr std::uint64_t kDigests = 3;

  std::vector<pid_t> children;
  for (int p = 0; p < kProcs; ++p) {
    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      // Child: a fresh process image — its store is cold; only the
      // shared directory couples it to its sibling.
      int failures = 0;
      {
        BlobStore store;
        for (std::uint64_t id = 1; id <= kDigests; ++id) {
          const BlobKey key{id, 9};
          const auto blob = store.get(
              key, ArtifactDiskOptions{dir.str(), 0, 0.0}, [&] {
                // Every build leaves a per-process marker and dawdles long
                // enough that an unlocked sibling would double-build.
                std::ofstream marker(
                    dir.path / ("built-" + std::to_string(id) + "-by-" +
                                std::to_string(::getpid()) + ".marker"));
                std::this_thread::sleep_for(std::chrono::milliseconds(100));
                return blob_builder(key, 64)();
              });
          if (blob == nullptr || blob->payload.size() != 64u) ++failures;
        }
      }
      ::_exit(failures);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
  // Exactly one build marker per digest across both processes: the
  // advisory lock made the loser re-load what the winner stored instead
  // of rebuilding it.
  for (std::uint64_t id = 1; id <= kDigests; ++id) {
    const std::string prefix = "built-" + std::to_string(id) + "-by-";
    int markers = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir.path))
      if (entry.path().filename().string().rfind(prefix, 0) == 0) ++markers;
    EXPECT_EQ(markers, 1) << "digest id " << id;
    EXPECT_TRUE(std::filesystem::exists(
        dir.path / BlobStore::artifact_name(BlobKey{id, 9})));
  }
}

}  // namespace
}  // namespace seo
