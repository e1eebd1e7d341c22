// seo-lint rule table — the repo's determinism contract, machine-checked.
//
// Every subsystem since PR 1 stakes its correctness on one invariant:
// sweep/fleet/trace/artifact bytes are identical at any thread count, on
// any host, under any locale.  The golden-trace smokes enforce that
// dynamically on a handful of rigs; these rules enforce the *causes*
// statically, on every file, so the bug classes that historically broke
// the invariant cannot re-enter quietly:
//
//   wall-clock     wall-clock reads (`system_clock`, `time(`,
//                  `gettimeofday`) are irreproducible inputs.  Durations
//                  must use steady_clock; artifact ages come from file
//                  mtimes and decide only which artifacts GC keeps.
//   raw-rand       `rand`/`random_device`/std engines+distributions vary
//                  by platform and stdlib; all randomness flows through
//                  src/util/rng (seedable xoshiro, bit-stable everywhere).
//   unordered-iter range-for over unordered_map/unordered_set in a file
//                  that produces digests, reports or serialized bytes:
//                  hash-iteration order is implementation-defined, so any
//                  order that can escape must be sorted first.
//   float-format   printf float conversions, `std::to_string(double)` and
//                  iostream `<<` on floating point honor LC_NUMERIC or
//                  pick their own precision; byte-stable formatting goes
//                  through src/util/numeric (to_chars round-trip).
//   locale         `strtod`/`atof`/`std::stod`/`setlocale` parse or flip
//                  locale state; parsing goes through src/util/numeric
//                  (from_chars, locale-independent).
//   raw-thread     `std::thread`/`std::async`/`.detach()` outside
//                  src/util/thread_pool bypass the pool's deterministic
//                  partition-and-merge discipline (and its instrumented
//                  shutdown ordering).
//   raw-bytes      `reinterpret_cast` struct dumps and `fwrite`/`fread`
//                  bypass src/core/binary_io's fixed-width little-endian
//                  checksummed codecs — the only sanctioned way bytes hit
//                  disk or the trace stream.
//
// Suppression is explicit and justified:
//   // seo-lint: allow(rule) -- why this exact site is exempt
// on the offending line, or on a line of its own directly above it.
#pragma once

#include <string>
#include <vector>

#include "lint/lexer.hpp"

namespace seo::lint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// One catalogue row for --list-rules and the README table.
struct RuleInfo {
  std::string name;
  std::string summary;
};

/// The rule catalogue, in reporting order.
const std::vector<RuleInfo>& rule_catalogue();

/// True if `name` names a rule (used to validate allow(...) lists).
bool is_known_rule(const std::string& name);

/// Lints one file: lexes `source`, builds the file-scope context
/// (unordered-container declarations, floating-point declarations,
/// digest/report sensitivity), applies every rule, resolves suppressions,
/// and returns the surviving findings plus any malformed-directive
/// findings.  `path` should be repo-relative with forward slashes — the
/// per-rule allowlists match on it.
std::vector<Finding> lint_file(const std::string& path,
                               std::string_view source);

}  // namespace seo::lint
