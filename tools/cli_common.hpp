// The `sweep` CLI's support code: string splitting plus the table-store
// CLI surface — flag parsing, store configuration, startup GC, and the
// stats report whose exact line formats the CI assertions grep.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/artifact_store.hpp"
#include "safety/table_cache.hpp"
#include "util/numeric.hpp"
#include "util/thread_pool.hpp"

namespace seo::cli {

/// Strict numeric flag parse shared by every CLI double flag: the whole
/// string must form one finite number (util/numeric, locale-independent).
/// "5x", "nan", "inf" and "" are all errors — a flag value with a typo
/// must fail loudly, never silently truncate to a prefix.
inline double parse_numeric_flag(const std::string& flag,
                                 const std::string& text,
                                 double min_value = 0.0) {
  double v = 0.0;
  if (!parse_finite_double(text, v) || v < min_value) {
    std::cerr << flag << " expects a finite number >= "
              << format_double(min_value) << ", got '" << text << "'\n";
    std::exit(2);
  }
  return v;
}

/// Splits on `sep`, keeping empty fields ("a,,b" -> {"a", "", "b"}).
inline std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string current;
  for (const char c : text) {
    if (c == sep) {
      parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  parts.push_back(current);
  return parts;
}

/// Usage lines for the artifact-store flag, spliced into the --help text.
constexpr const char* kCacheUsage =
    "  --cache SPEC           artifact-store settings, comma-separated:\n"
    "                           on|off        content-addressed reuse "
    "(default on;\n"
    "                                         results byte-identical "
    "either way)\n"
    "                           dir=DIR       persist artifacts in DIR\n"
    "                           budget-mb=N   artifact-dir size cap [MB]; "
    "LRU GC\n"
    "                                         sweeps after stores\n"
    "                           max-age-h=N   artifact last-use age cap "
    "[hours]\n"
    "                           gc            LRU GC sweep over the dir "
    "before the run\n"
    "                         e.g. --cache dir=artifacts,budget-mb=512,gc\n";

/// Artifact-store settings accumulated while parsing: process state,
/// applied once by configure_artifact_stores, never per scenario.
struct CacheCliOptions {
  std::string dir;
  double budget_mb = 0.0;
  double max_age_h = 0.0;
  bool gc = false;
};

/// Consumes `--cache SPEC` (and its value) from argv.  Returns false when
/// `argv[i]` is not `--cache`; exits with code 2 on a malformed value.
/// `on|off` is the one per-scenario setting (the `table_cache` key, which
/// lands in `overrides`); everything else lands in `state`.
inline bool parse_cache_flag(
    int argc, char** argv, int& i,
    std::vector<std::pair<std::string, std::string>>& overrides,
    CacheCliOptions& state) {
  const std::string arg = argv[i];
  if (arg != "--cache") return false;
  if (i + 1 >= argc) {
    std::cerr << "missing value for " << arg << "\n";
    std::exit(2);
  }
  for (const std::string& item : split(argv[++i], ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    const std::string name =
        eq == std::string::npos ? item : item.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : item.substr(eq + 1);
    const auto bare = [&] {
      if (!value.empty()) {
        std::cerr << arg << ": '" << name << "' does not take a value\n";
        std::exit(2);
      }
    };
    const auto numeric = [&] {
      return parse_numeric_flag(arg + " " + name, value);
    };
    // A size in MB must come to a byte count that fits in 64 bits: beyond
    // that, mb_to_bytes's float-to-integer conversion is undefined.
    const auto megabytes = [&] {
      const double mb = numeric();
      if (!(mb * 1024.0 * 1024.0 < 0x1p64)) {
        std::cerr << arg << " " << name << " expects a size below 2^64 "
                  << "bytes, got '" << value << "'\n";
        std::exit(2);
      }
      return mb;
    };
    if (name == "on" || name == "off") {
      bare();
      overrides.emplace_back("table_cache", name == "on" ? "true" : "false");
    } else if (name == "gc") {
      bare();
      state.gc = true;
    } else if (name == "dir") {
      if (value.empty()) {
        std::cerr << arg << ": 'dir' expects a directory\n";
        std::exit(2);
      }
      state.dir = value;
    } else if (name == "budget-mb") {
      state.budget_mb = megabytes();
    } else if (name == "max-age-h") {
      state.max_age_h = numeric();
    } else {
      std::cerr << "--cache: unknown setting '" << name
                << "' (expected on, off, dir=, budget-mb=, max-age-h=, "
                   "gc)\n";
      std::exit(2);
    }
  }
  return true;
}

/// `mb` is one parse_cache_flag accepted, so the byte count fits.
inline std::uint64_t mb_to_bytes(double mb) {
  return mb > 0.0 ? static_cast<std::uint64_t>(mb * 1024.0 * 1024.0) : 0;
}

/// The disk tier the parsed `--cache` settings describe.  A huge age cap
/// (max-age-h=1e308) comes to +inf seconds, which the GC reads as "keep
/// everything"; it stays a double all the way down.
inline ArtifactDiskOptions disk_options(const CacheCliOptions& state) {
  ArtifactDiskOptions disk;
  disk.dir = state.dir;
  disk.max_bytes = mb_to_bytes(state.budget_mb);
  disk.max_age_s = state.max_age_h > 0.0 ? state.max_age_h * 3600.0 : 0.0;
  return disk;
}

/// Startup GC requested via `--cache gc`: one LRU sweep over the artifact
/// dir with the configured caps, reported to stderr.
inline void run_requested_gc(const CacheCliOptions& state) {
  if (!state.gc) return;
  if (state.dir.empty()) {
    std::cerr << "--cache gc requires --cache dir=DIR\n";
    std::exit(2);
  }
  const ArtifactDiskOptions disk = disk_options(state);
  const ArtifactGcResult r =
      artifact_store_gc(disk.dir, disk.max_bytes, disk.max_age_s);
  std::cerr << "artifact gc: scanned " << r.scanned << " files, removed "
            << r.removed << ", " << r.bytes_before << " -> " << r.bytes_after
            << " bytes\n";
}

/// Configures the process-wide table store's disk tier from the parsed
/// `--cache` settings.  Called once after parsing — by a `--workers` child
/// too, which re-parses the forwarded argv.
inline void configure_artifact_stores(const CacheCliOptions& state) {
  DeadlineTableCache::global().configure(disk_options(state));
}

/// The one greppable stats line (CI assertions and perfbench sed these
/// exact words): the process-wide table store's counters plus `workers`
/// (the --workers parent's farm-wide sum from the done frames; zero in
/// process).
inline void print_artifact_store_stats(std::ostream& out,
                                       const ArtifactStoreStats& workers = {}) {
  ArtifactStoreStats s = DeadlineTableCache::global().stats();
  s += workers;
  out << "artifact store [" << LipschitzTableTraits::kind() << "]: " << s.hits
      << " hits, " << s.misses << " misses, " << s.builds << " builds, "
      << s.waits << " waits, " << s.lock_waits << " lock waits, " << s.bytes
      << " bytes, " << s.disk_loads << " disk loads, " << s.disk_stores
      << " disk stores, " << s.disk_failures << " disk failures\n";
}

/// One greppable utilization line for the global thread pool, matching the
/// artifact-store stats format (`sweep --stats`).
/// `window_s` is the wall time the run took; busy % is task time over
/// worker capacity in that window.
inline void print_thread_pool_stats(std::ostream& out, double window_s) {
  const ThreadPool& pool = ThreadPool::global();
  const ThreadPoolStats s = pool.stats();
  const double busy_pct = 100.0 * s.busy_fraction(window_s, pool.size());
  out << "thread pool: " << pool.size() << " workers, " << s.submitted
      << " tasks, " << s.inline_runs << " inline, " << s.max_queue_depth << " max depth, "
      << static_cast<std::uint64_t>(busy_pct + 0.5) << "% busy\n";
}

}  // namespace seo::cli
