// The `sweep` CLI's support code: string splitting plus the artifact-store
// CLI surface — flag parsing, store configuration, startup GC, and the
// per-kind stats report whose exact line formats the CI assertions grep.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
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
    "                           dir=DIR       persist artifacts (all "
    "kinds) in DIR\n"
    "                           mem-mb=N      per-kind in-memory byte "
    "budget [MB]\n"
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
  double mem_mb = 0.0;
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
      state.budget_mb = numeric();
    } else if (name == "max-age-h") {
      state.max_age_h = numeric();
    } else if (name == "mem-mb") {
      state.mem_mb = numeric();
    } else {
      std::cerr << "--cache: unknown setting '" << name
                << "' (expected on, off, dir=, mem-mb=, budget-mb=, "
                   "max-age-h=, gc)\n";
      std::exit(2);
    }
  }
  return true;
}

inline std::uint64_t mb_to_bytes(double mb) {
  return mb > 0.0 ? static_cast<std::uint64_t>(mb * 1024.0 * 1024.0) : 0;
}

/// Startup GC requested via `--cache gc`: one LRU sweep over the artifact
/// dir with the configured caps, reported to stderr.
inline void run_requested_gc(const CacheCliOptions& state) {
  if (!state.gc) return;
  if (state.dir.empty()) {
    std::cerr << "--cache gc requires --cache dir=DIR\n";
    std::exit(2);
  }
  const ArtifactGcResult r = artifact_store_gc(
      state.dir, mb_to_bytes(state.budget_mb),
      state.max_age_h > 0.0 ? state.max_age_h * 3600.0 : 0.0);
  std::cerr << "artifact gc: scanned " << r.scanned << " files, removed "
            << r.removed << ", " << r.bytes_before << " -> " << r.bytes_after
            << " bytes\n";
}

/// Configures every process-wide artifact store from the parsed `--cache`
/// settings: the disk tier (shared dir, size and age caps) and the
/// per-kind memory budget.  Called once after parsing — by a `--workers`
/// child too, which re-parses the forwarded argv.
inline void configure_artifact_stores(const CacheCliOptions& state) {
  // Kinds register lazily; touching the accessors registers each one.
  (void)DeadlineTableCache::global();
  (void)RolloutTableStore::global();
  ArtifactDiskOptions disk;
  disk.dir = state.dir;
  disk.max_bytes = mb_to_bytes(state.budget_mb);
  disk.max_age_s = state.max_age_h > 0.0 ? state.max_age_h * 3600.0 : 0.0;
  ArtifactMemoryBudget budget;
  budget.max_bytes = static_cast<std::size_t>(mb_to_bytes(state.mem_mb));
  ArtifactStoreRegistry::global().configure_all(disk, budget);
}

/// The one greppable per-kind stats line format (CI assertions sed these
/// exact words) — single body, so the in-process and aggregated-farm
/// reports below cannot drift apart.
inline void print_artifact_store_stats_row(std::ostream& out,
                                           const std::string& kind,
                                           const ArtifactStoreStats& s) {
  out << "artifact store [" << kind << "]: " << s.hits << " hits, "
      << s.misses << " misses, " << s.builds << " builds, " << s.waits
      << " waits, " << s.lock_waits << " lock waits, " << s.evictions
      << " evictions, " << s.bytes << " bytes, " << s.disk_loads
      << " disk loads, " << s.disk_stores << " disk stores, "
      << s.disk_failures << " disk failures\n";
}

/// One greppable stats line per artifact kind for the process-wide stores,
/// with `extra` rows (e.g. worker-process stats summed by the --workers
/// parent) merged in by kind.  Every kind reports — also the ones this run
/// never touched — so CI and operators always see the full picture.
inline void print_artifact_store_stats(
    std::ostream& out, const std::vector<ArtifactKindStats>& extra = {}) {
  // Touching the global accessors guarantees each kind is registered (in
  // this order on a fresh process) before the snapshot.
  (void)DeadlineTableCache::global();
  (void)RolloutTableStore::global();
  std::map<std::string, ArtifactStoreStats> merged;
  for (const auto& row : ArtifactStoreRegistry::global().snapshot())
    merged[row.kind] = row.stats;
  for (const auto& row : extra) merged[row.kind] += row.stats;
  // std::map: sorted by kind, matching the registry snapshot's order.
  for (const auto& [kind, stats] : merged)
    print_artifact_store_stats_row(out, kind, stats);
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
