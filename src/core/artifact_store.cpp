#include "core/artifact_store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace seo {

namespace fs = std::filesystem;

namespace artifact_detail {

namespace {

/// v2 artifact container magic (13 bytes, includes the NUL).
constexpr char kArtifactMagic[13] = "seo-artifact";
constexpr std::uint16_t kArtifactContainerVersion = 2;

/// Temp files from crashed writers older than this are GC'd.
constexpr double kStaleTmpAgeS = 300.0;

bool is_tmp_file(const std::string& name) {
  return name.find(".tmp.") != std::string::npos;
}

bool is_lock_file(const std::string& name) {
  return name.size() > 5 && name.compare(name.size() - 5, 5, ".lock") == 0;
}

/// Whether `name` reads "<kind>-v<N>-<16 hex><suffix>"; with ".bin", the
/// shape artifact_file_name gives every artifact the store writes.
bool is_artifact_name(std::string_view name,
                      std::string_view suffix = ".bin") {
  constexpr std::size_t kHex = 16;
  if (name.size() < kHex + suffix.size() || !name.ends_with(suffix))
    return false;
  name.remove_suffix(suffix.size());
  if (name.substr(name.size() - kHex).find_first_not_of("0123456789abcdef") !=
      std::string_view::npos)
    return false;
  name.remove_suffix(kHex);
  if (!name.ends_with('-')) return false;
  name.remove_suffix(1);  // "<kind>-v<N>"
  const std::size_t v = name.find_last_not_of("0123456789");
  return v != std::string_view::npos && v >= 2 && v + 1 < name.size() &&
         name[v] == 'v' && name[v - 1] == '-';
}

/// Whether `name` is a file the store itself wrote in an older layout: the
/// text and binary manifests, and v1 text artifacts.  Nothing reads them
/// any more, so every GC sweep reclaims them, caps or not.
bool is_retired_name(std::string_view name) {
  return name == "manifest.bin" || name == "manifest.txt" ||
         is_artifact_name(name, ".txt");
}

/// Seconds since the epoch of the filesystem clock, as a double so that
/// ages can be compared against any cap (+inf included) without an integer
/// conversion.
double file_seconds(fs::file_time_type t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

}  // namespace

// --- DigestLock ------------------------------------------------------------

DigestLock::DigestLock(const std::string& dir,
                       const std::string& artifact_name) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string path = dir + "/" + artifact_name + ".lock";
  // open / flock / verify loop: the GC may unlink a lock file between our
  // open and flock (it only reclaims locks nobody holds), and a lock on an
  // unlinked inode excludes nobody — so after acquiring, the fd's inode
  // must still be the one the path names, else retry on the fresh file.
  for (int attempt = 0; attempt < 16; ++attempt) {
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0666);
    if (fd < 0) return;  // degrade: per-process single-flight only
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
      if (errno != EWOULDBLOCK) {
        ::close(fd);  // e.g. ENOLCK: filesystem refuses advisory locks
        return;
      }
      waited_ = true;  // another process is building this digest right now
      if (::flock(fd, LOCK_EX) != 0) {
        ::close(fd);
        return;
      }
    }
    struct stat held {};
    struct stat current {};
    if (::fstat(fd, &held) == 0 && ::stat(path.c_str(), &current) == 0 &&
        held.st_ino == current.st_ino && held.st_dev == current.st_dev) {
      fd_ = fd;
      return;
    }
    ::flock(fd, LOCK_UN);
    ::close(fd);
  }
}

DigestLock::~DigestLock() {
  // Release but never unlink: unlinking a lock file another process has
  // already opened creates two holders of different inodes.  Empty .lock
  // sidecars are reclaimed by the GC sweep (which checks acquirability).
  if (fd_ >= 0) {
    ::flock(fd_, LOCK_UN);
    ::close(fd_);
  }
}

// --- v2 binary artifact container -------------------------------------------

std::string artifact_file_name(const std::string& kind, int version,
                               const std::string& hex) {
  return kind + "-v" + std::to_string(version) + "-" + hex + ".bin";
}

bool read_artifact_payload(const std::string& path, const std::string& kind,
                           int version, std::uint64_t digest,
                           std::string& payload_out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;  // cold store: not a failure
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string blob = buffer.str();
  // The file name is the address, but never trust content blindly: the
  // checksummed header repeats the kind, format version and full key
  // digest (a renamed or hand-edited artifact must re-prove its identity
  // before the payload is even parsed), and the payload carries its own
  // checksum so truncation or bit rot surfaces here, not as a wrong value.
  try {
    BinaryReader r{std::string_view(blob)};
    const std::size_t start = r.offset();
    char magic[sizeof kArtifactMagic];
    r.bytes(magic, sizeof magic);
    if (std::memcmp(magic, kArtifactMagic, sizeof magic) != 0)
      throw ContractViolation("not a seo-artifact container: " + path);
    const std::uint16_t container = r.u16();
    if (container != kArtifactContainerVersion)
      throw ContractViolation("unsupported artifact container version " +
                              std::to_string(container) + ": " + path);
    const std::string file_kind = r.str(256);
    const std::uint32_t file_version = r.u32();
    const std::uint64_t file_digest = r.u64();
    const std::uint64_t payload_size = r.u64();
    r.verify_checksum_from(start, "artifact header");
    if (file_kind != kind ||
        file_version != static_cast<std::uint32_t>(version) ||
        file_digest != digest)
      throw ContractViolation("artifact header does not match its key: " +
                              path);
    const std::size_t payload_start = r.offset();
    const std::string_view payload = r.view(payload_size);
    r.verify_checksum_from(payload_start, "artifact payload");
    r.require_exhausted("artifact container");
    payload_out.assign(payload);
    return true;
  } catch (const BinaryIoError& e) {
    throw ContractViolation("corrupt artifact container " + path + ": " +
                            e.what());
  }
}

void write_artifact(const ArtifactDiskOptions& disk, const std::string& kind,
                    int version, std::uint64_t digest,
                    const std::string& payload) {
  const fs::path dir(disk.dir);
  const std::string name =
      artifact_file_name(kind, version, fingerprint_hex(digest));
  const fs::path path = dir / name;
  // Temp-write + rename so concurrent processes only ever observe complete
  // artifacts; the pid suffix keeps same-key writers from sharing a temp
  // file (their contents are identical, so last rename winning is fine).
  const fs::path tmp =
      dir /
      (name + ".tmp." + std::to_string(static_cast<long long>(::getpid())));
  std::string blob;
  BinaryWriter w(blob);
  const std::size_t start = w.mark();
  w.bytes(kArtifactMagic, sizeof kArtifactMagic);
  w.u16(kArtifactContainerVersion);
  w.str(kind);
  w.u32(static_cast<std::uint32_t>(version));
  w.u64(digest);
  w.u64(payload.size());
  w.checksum_from(start);
  const std::size_t payload_start = w.mark();
  w.bytes(payload.data(), payload.size());
  w.checksum_from(payload_start);
  try {
    fs::create_directories(dir);
    {
      std::ofstream out(tmp, std::ios::binary);
      if (!out) throw ContractViolation("cannot open " + tmp.string());
      out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
      if (!out) throw ContractViolation("short write to " + tmp.string());
    }
    fs::rename(tmp, path);
  } catch (...) {
    std::error_code ec;
    fs::remove(tmp, ec);
    throw;
  }
  mark_used(path.string());
  // With caps configured, every store is followed by a sweep so the dir
  // can never drift past its bound between explicit GC runs.
  if (disk.max_bytes > 0 || disk.max_age_s > 0.0)
    artifact_store_gc(disk.dir, disk.max_bytes, disk.max_age_s);
}

void mark_used(const std::string& path) {
  // The filesystem's own write stamp is coarse (kernel ticks) while
  // clock::now() is not, so a store sets its mtime too: otherwise a file
  // written after a load's stamp could still sort older than it.
  std::error_code ec;  // best effort: a failure only costs warmth
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
}

}  // namespace artifact_detail

// --- GC ---------------------------------------------------------------------

ArtifactGcResult artifact_store_gc(const std::string& dir,
                                   std::uint64_t max_bytes,
                                   double max_age_s) {
  using namespace artifact_detail;
  ArtifactGcResult result;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return result;
  const double now = file_seconds(fs::file_time_type::clock::now());

  struct Candidate {
    std::string name;
    double used_s = 0.0;  ///< mtime; -inf for files that are no artifact
    std::uint64_t bytes = 0;
  };
  std::vector<Candidate> candidates;
  std::uint64_t total = 0;  // bytes of the candidates still on disk
  for (const auto& dirent : fs::directory_iterator(dir, ec)) {
    if (!dirent.is_regular_file()) continue;
    const std::string name = dirent.path().filename().string();
    std::error_code time_ec;
    const auto mtime = fs::last_write_time(dirent.path(), time_ec);
    if (is_tmp_file(name)) {
      // A temp file is either a live writer mid-store or debris from a
      // crash; only the stale kind is removed.
      if (!time_ec && now - file_seconds(mtime) > kStaleTmpAgeS) {
        // Bookkeeping debris, not an artifact: reclaimed silently (it is
        // not part of `scanned`, so it must not inflate `removed` either).
        std::error_code rm;
        fs::remove(dirent.path(), rm);
      }
      continue;
    }
    if (is_lock_file(name)) {
      // A lock sidecar is reclaimed only when nobody holds it (an
      // acquirable lock is an idle one).  A racer that just opened the
      // path re-verifies its inode after acquiring and retries on the
      // fresh file, so unlinking here is safe.
      const int fd = ::open(dirent.path().c_str(), O_RDWR | O_CLOEXEC);
      if (fd < 0) continue;
      if (::flock(fd, LOCK_EX | LOCK_NB) == 0) {
        // Like stale temp files, sidecars are debris outside the
        // scanned/removed artifact accounting.
        std::error_code rm;
        fs::remove(dirent.path(), rm);
        ::flock(fd, LOCK_UN);
      }
      ::close(fd);
      continue;
    }
    Candidate c;
    c.name = name;
    // Unmanaged files (foreign debris) and files whose mtime cannot be
    // read count as oldest, so a capped sweep reclaims them first.
    c.used_s = is_artifact_name(name) && !time_ec
                   ? file_seconds(mtime)
                   : -std::numeric_limits<double>::infinity();
    std::error_code size_ec;
    c.bytes = static_cast<std::uint64_t>(dirent.file_size(size_ec));
    if (size_ec) c.bytes = 0;
    result.bytes_before += c.bytes;
    ++result.scanned;
    if (is_retired_name(name)) {
      std::error_code rm;
      fs::remove(dirent.path(), rm);
      if (!rm) {
        ++result.removed;
        continue;
      }
      // Unremovable: it stays counted, as the oldest candidate.
    }
    total += c.bytes;
    candidates.push_back(std::move(c));
  }
  result.bytes_after = total;
  if (candidates.empty()) return result;

  // LRU order: oldest mtime first; name breaks ties deterministically.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.used_s != b.used_s ? a.used_s < b.used_s
                                          : a.name < b.name;
            });

  // The most-recently-used artifact is always kept: removing it would only
  // force an immediate rebuild of the hottest key without bounding anything
  // the next store wouldn't immediately unbound again.
  const std::size_t keep_last = candidates.size() - 1;
  for (std::size_t i = 0; i < keep_last; ++i) {
    const bool too_old =
        max_age_s > 0.0 && now - candidates[i].used_s > max_age_s;
    const bool over_budget = max_bytes > 0 && total > max_bytes;
    if (!too_old && !over_budget) {
      if (max_age_s <= 0.0) break;  // size-sorted prefix done, no age cap
      continue;  // age cap must still examine every remaining file
    }
    std::error_code rm;
    fs::remove(fs::path(dir) / candidates[i].name, rm);
    if (rm) continue;  // unremovable: leave its bytes counted
    total -= candidates[i].bytes;
    ++result.removed;
  }
  result.bytes_after = total;
  return result;
}

}  // namespace seo
