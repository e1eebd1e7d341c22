#include "lint/rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <map>
#include <set>

namespace seo::lint {

namespace {

// --- Rule names -------------------------------------------------------------

constexpr const char* kWallClock = "wall-clock";
constexpr const char* kRawRand = "raw-rand";
constexpr const char* kUnorderedIter = "unordered-iter";
constexpr const char* kFloatFormat = "float-format";
constexpr const char* kLocale = "locale";
constexpr const char* kRawThread = "raw-thread";
constexpr const char* kRawBytes = "raw-bytes";
/// Meta-rule: a malformed or unjustified suppression is itself a finding —
/// it can never be suppressed, so silence always carries a reason.
constexpr const char* kBadSuppression = "bad-suppression";

/// Per-rule allowlists: the one module that legitimately owns the banned
/// primitive.  Matched as path prefixes on repo-relative forward-slash
/// paths.  wall-clock deliberately has no allowlist: a site that truly
/// needs wall time carries an in-file justified suppression instead, so
/// the exemption is visible next to the code it exempts.
const std::map<std::string, std::vector<std::string>>& rule_allowlists() {
  static const std::map<std::string, std::vector<std::string>> lists = {
      {kRawRand, {"src/util/rng."}},
      {kFloatFormat, {"src/util/numeric."}},
      {kLocale, {"src/util/numeric."}},
      {kRawThread, {"src/util/thread_pool."}},
      {kRawBytes, {"src/core/binary_io."}},
  };
  return lists;
}

bool path_allowlisted(const std::string& rule, const std::string& path) {
  const auto& lists = rule_allowlists();
  const auto it = lists.find(rule);
  if (it == lists.end()) return false;
  for (const std::string& prefix : it->second)
    if (path.rfind(prefix, 0) == 0) return true;
  return false;
}

bool path_has_prefix(const std::string& path, const char* prefix) {
  return path.rfind(prefix, 0) == 0;
}

// --- File-scope context -----------------------------------------------------

/// Kind of a tracked declaration: floating point, integral, or any other
/// type (recorded so a later non-float declaration of the same name can
/// shadow an earlier float one — file-scope tracking would otherwise turn
/// every reused short name into a false positive).
enum class DeclKind { kFloat, kIntegral, kOther };

struct Decl {
  int line = 0;
  DeclKind kind = DeclKind::kOther;
};

/// What the rules need to know about the whole file before matching:
/// which identifiers name unordered containers or floating-point values,
/// and whether hash-iteration order in this file could reach a digest,
/// report or serialized byte stream.
struct FileContext {
  std::set<std::string> unordered_types;  ///< base names + local aliases
  std::set<std::string> unordered_vars;
  std::map<std::string, std::vector<Decl>> decls;  ///< per name, line order
  std::set<std::string> float_funcs;

  bool digest_sensitive = false;

  /// Resolves `name` at `line` to the nearest declaration at or above it
  /// (falling back to the first one below — class members in headers are
  /// often declared after their uses).  Unknown names resolve to kOther.
  DeclKind kind_at(const std::string& name, int line) const {
    const auto it = decls.find(name);
    if (it == decls.end()) return DeclKind::kOther;
    const Decl* best = nullptr;
    for (const Decl& d : it->second) {
      if (d.line <= line && (best == nullptr || d.line > best->line))
        best = &d;
    }
    if (best == nullptr) best = &it->second.front();
    return best->kind;
  }
  bool is_float(const std::string& name, int line) const {
    return kind_at(name, line) == DeclKind::kFloat;
  }
};

bool ident(const Token& t, const char* text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

std::string lower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(
      static_cast<unsigned char>(c)));
  return out;
}

/// Skips a balanced template argument list starting at tokens[i] == "<".
/// Returns the index one past the closing ">".  A fused ">>" counts as two
/// closers.  Bails (returns i) if the list never closes.
std::size_t skip_template_args(const std::vector<Token>& t, std::size_t i) {
  if (i >= t.size() || !is_punct(t[i], "<")) return i;
  int depth = 0;
  for (std::size_t k = i; k < t.size(); ++k) {
    if (t[k].kind != TokenKind::kPunct) continue;
    if (t[k].text == "<")
      ++depth;
    else if (t[k].text == ">")
      --depth;
    else if (t[k].text == ">>")
      depth -= 2;
    else if (t[k].text == ";")
      return i;  // unbalanced: not a template argument list after all
    if (depth <= 0) return k + 1;
  }
  return i;
}

FileContext build_context(const std::vector<Token>& tokens) {
  FileContext ctx;
  ctx.unordered_types = {"unordered_map", "unordered_set", "unordered_multimap",
                         "unordered_multiset"};
  const auto is_unordered_type = [&](const Token& t) {
    return t.kind == TokenKind::kIdentifier &&
           ctx.unordered_types.count(t.text) > 0;
  };

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokenKind::kIdentifier) continue;

    const std::string low = lower(t.text);
    if (low.find("digest") != std::string::npos ||
        low.find("fingerprint") != std::string::npos ||
        low.find("manifest") != std::string::npos ||
        low.find("csv") != std::string::npos || t.text == "BinaryWriter" ||
        t.text == "TraceStreamWriter")
      ctx.digest_sensitive = true;

    // `using Alias = ... unordered_map<...> ...;` makes Alias unordered too.
    if (t.text == "using" && i + 2 < tokens.size() &&
        tokens[i + 1].kind == TokenKind::kIdentifier &&
        is_punct(tokens[i + 2], "=")) {
      for (std::size_t k = i + 3; k < tokens.size(); ++k) {
        if (is_punct(tokens[k], ";")) break;
        if (is_unordered_type(tokens[k])) {
          ctx.unordered_types.insert(tokens[i + 1].text);
          break;
        }
      }
      continue;
    }

    // `unordered_map<K, V> name` / `UnorderedAlias name` declarations.
    if (is_unordered_type(t)) {
      std::size_t k = i + 1;
      k = skip_template_args(tokens, k);
      while (k < tokens.size() &&
             (is_punct(tokens[k], "&") || is_punct(tokens[k], "*") ||
              ident(tokens[k], "const")))
        ++k;
      if (k < tokens.size() && tokens[k].kind == TokenKind::kIdentifier &&
          tokens[k].text != "const")
        ctx.unordered_vars.insert(tokens[k].text);
      continue;
    }

    // `double name` / `int name` / `Type name` declarations (single
    // declarator — the dominant shape in this codebase).  A following "("
    // marks a function returning that type rather than a variable.
    static const std::set<std::string> float_types = {"double", "float"};
    static const std::set<std::string> int_types = {
        "int",      "long",     "short",    "unsigned", "signed",
        "char",     "bool",     "size_t",   "ssize_t",  "ptrdiff_t",
        "int8_t",   "int16_t",  "int32_t",  "int64_t",  "uint8_t",
        "uint16_t", "uint32_t", "uint64_t", "uintptr_t", "intptr_t"};
    // Words that look like `ident ident` but are not declarations.
    static const std::set<std::string> not_a_type = {
        "return",   "throw",     "delete",   "new",      "goto",
        "case",     "using",     "typename", "template", "typedef",
        "sizeof",   "alignof",   "else",     "do",       "operator",
        "break",    "continue",  "default",  "public",   "private",
        "protected","virtual",   "static",   "inline",   "constexpr",
        "const",    "extern",    "mutable",  "explicit", "friend",
        "enum",     "class",     "struct",   "union",    "namespace",
        "this",     "co_return", "co_await", "co_yield", "if",
        "while",    "for",       "switch",   "catch",    "auto",
        "void",     "requires",  "concept",  "static_assert"};
    const bool is_float_type = float_types.count(t.text) > 0;
    const bool is_int_type = int_types.count(t.text) > 0;
    const bool could_be_type = is_float_type || is_int_type ||
                               not_a_type.count(t.text) == 0;
    if (could_be_type) {
      std::size_t k = i + 1;
      // `unsigned long long x`, `const double& x` — skip through the rest
      // of the type words and declarator decorations.
      while (k < tokens.size() &&
             (is_punct(tokens[k], "&") || is_punct(tokens[k], "*") ||
              ident(tokens[k], "const") ||
              (tokens[k].kind == TokenKind::kIdentifier &&
               (float_types.count(tokens[k].text) > 0 ||
                int_types.count(tokens[k].text) > 0))))
        ++k;
      if (k == i + 1 && !is_float_type && !is_int_type) {
        // `Type name` shape: only count it as a declaration when the name
        // is followed by something declaration-like, so expression pairs
        // never shadow a real declaration.
        if (k >= tokens.size() || tokens[k].kind != TokenKind::kIdentifier)
          continue;
        const Token* after = k + 1 < tokens.size() ? &tokens[k + 1] : nullptr;
        const bool decl_like =
            after != nullptr && after->kind == TokenKind::kPunct &&
            (after->text == "=" || after->text == ";" || after->text == "," ||
             after->text == ":" || after->text == ")" || after->text == "(" ||
             after->text == "{");
        if (!decl_like) continue;
        ctx.decls[tokens[k].text].push_back(
            Decl{tokens[k].line, DeclKind::kOther});
        continue;
      }
      if (k < tokens.size() && tokens[k].kind == TokenKind::kIdentifier) {
        const DeclKind kind =
            is_float_type ? DeclKind::kFloat
                          : (is_int_type ? DeclKind::kIntegral
                                         : DeclKind::kOther);
        if (k + 1 < tokens.size() && is_punct(tokens[k + 1], "(")) {
          if (kind == DeclKind::kFloat) ctx.float_funcs.insert(tokens[k].text);
        } else {
          ctx.decls[tokens[k].text].push_back(Decl{tokens[k].line, kind});
        }
      }
      continue;
    }
  }
  return ctx;
}

// --- Matching helpers -------------------------------------------------------

bool is_float_literal(const Token& t) {
  if (t.kind != TokenKind::kNumber) return false;
  if (t.text.rfind("0x", 0) == 0 || t.text.rfind("0X", 0) == 0)
    return t.text.find('p') != std::string::npos ||
           t.text.find('P') != std::string::npos;
  return t.text.find('.') != std::string::npos ||
         t.text.find('e') != std::string::npos ||
         t.text.find('E') != std::string::npos;
}

/// True when the string literal content contains a printf floating-point
/// conversion (a percent, optional flags/width/precision/length, then one
/// of the float conversion letters).
bool has_printf_float_conversion(const std::string& s) {
  // The space flag is deliberately absent: prose like "12% for" would
  // otherwise read as a float conversion, and no real format string in
  // this codebase pads floats with the space flag.
  const std::string flags = "-+'#0123456789.*";
  const std::string lengths = "lLhqjzt";
  const std::string convs = "fFeEgGaA";
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') continue;
    std::size_t k = i + 1;
    if (k < s.size() && s[k] == '%') {  // escaped literal percent
      i = k;
      continue;
    }
    while (k < s.size() && flags.find(s[k]) != std::string::npos) ++k;
    while (k < s.size() && lengths.find(s[k]) != std::string::npos) ++k;
    if (k < s.size() && convs.find(s[k]) != std::string::npos) return true;
  }
  return false;
}

struct RuleRunner {
  const std::string& path;
  const std::vector<Token>& t;
  const FileContext& ctx;
  std::vector<Finding>& findings;

  const Token* prev(std::size_t i, std::size_t back = 1) const {
    return i >= back ? &t[i - back] : nullptr;
  }
  const Token* next(std::size_t i, std::size_t ahead = 1) const {
    return i + ahead < t.size() ? &t[i + ahead] : nullptr;
  }
  bool prev_is_member_access(std::size_t i) const {
    const Token* p = prev(i);
    return p != nullptr && p->kind == TokenKind::kPunct &&
           (p->text == "." || p->text == "->");
  }
  bool prev_is_std_scope(std::size_t i) const {
    const Token* p1 = prev(i, 1);
    const Token* p2 = prev(i, 2);
    return p1 != nullptr && p2 != nullptr && is_punct(*p1, "::") &&
           ident(*p2, "std");
  }

  void report(const char* rule, int line, std::string message) {
    if (path_allowlisted(rule, path)) return;
    findings.push_back(Finding{path, line, rule, std::move(message)});
  }

  void run() {
    for (std::size_t i = 0; i < t.size(); ++i) {
      wall_clock(i);
      raw_rand(i);
      unordered_iter(i);
      float_format(i);
      locale_rule(i);
      raw_thread(i);
      raw_bytes(i);
    }
  }

  void wall_clock(std::size_t i) {
    const Token& tok = t[i];
    if (tok.kind == TokenKind::kIdentifier) {
      static const std::set<std::string> banned = {
          "system_clock", "gettimeofday", "timespec_get", "clock_gettime",
          "CLOCK_REALTIME", "localtime", "gmtime", "mktime"};
      if (banned.count(tok.text) > 0) {
        report(kWallClock, tok.line,
               "wall-clock read '" + tok.text +
                   "' is an irreproducible input; use steady_clock for "
                   "durations, or file mtimes for artifact ages");
        return;
      }
      // C `time(nullptr)` / `time(0)` / `time(&t)` — the argument shape
      // distinguishes the libc call from the many `time()` accessors.
      if (tok.text == "time" && !prev_is_member_access(i)) {
        const Token* open = next(i, 1);
        const Token* arg = next(i, 2);
        if (open != nullptr && is_punct(*open, "(") && arg != nullptr &&
            (ident(*arg, "nullptr") || ident(*arg, "NULL") ||
             (arg->kind == TokenKind::kNumber && arg->text == "0") ||
             is_punct(*arg, "&")))
          report(kWallClock, tok.line,
                 "libc time() reads the wall clock; use steady_clock for "
                 "durations, or file mtimes for artifact ages");
      }
    }
  }

  void raw_rand(std::size_t i) {
    const Token& tok = t[i];
    if (tok.kind != TokenKind::kIdentifier) return;
    static const std::set<std::string> banned = {
        "random_device", "srand", "drand48", "lrand48", "mrand48",
        "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
        "default_random_engine", "knuth_b", "ranlux24", "ranlux48",
        "uniform_int_distribution", "uniform_real_distribution",
        "normal_distribution", "bernoulli_distribution",
        "poisson_distribution", "exponential_distribution",
        "discrete_distribution"};
    if (banned.count(tok.text) > 0) {
      report(kRawRand, tok.line,
             "'" + tok.text +
                 "' varies across platforms/stdlibs (or is nondeterministic "
                 "by design); all randomness flows through util/rng's "
                 "seedable bit-stable engine");
      return;
    }
    if (tok.text == "rand" && !prev_is_member_access(i)) {
      const Token* open = next(i, 1);
      if (open != nullptr && is_punct(*open, "("))
        report(kRawRand, tok.line,
               "rand() is global-state, platform-varying randomness; use "
               "util/rng's seedable engine");
    }
  }

  void unordered_iter(std::size_t i) {
    if (!ctx.digest_sensitive) return;
    if (!ident(t[i], "for")) return;
    const Token* open = next(i, 1);
    if (open == nullptr || !is_punct(*open, "(")) return;
    // Find the range-for ':' at parenthesis depth 1 (a lone ":" token —
    // "::" lexes fused, so scope operators can't masquerade as one).
    int depth = 0;
    std::size_t colon = 0;
    std::size_t close = 0;
    for (std::size_t k = i + 1; k < t.size(); ++k) {
      if (t[k].kind != TokenKind::kPunct) continue;
      if (t[k].text == "(")
        ++depth;
      else if (t[k].text == ")") {
        --depth;
        if (depth == 0) {
          close = k;
          break;
        }
      } else if (t[k].text == ";" && depth == 1) {
        return;  // classic three-clause for
      } else if (t[k].text == ":" && depth == 1 && colon == 0) {
        colon = k;
      }
    }
    if (colon == 0 || close == 0) return;
    // The last identifier of the range expression names the container
    // (`entries_`, `obj.member`, `*snap`).
    const Token* range_name = nullptr;
    for (std::size_t k = colon + 1; k < close; ++k)
      if (t[k].kind == TokenKind::kIdentifier) range_name = &t[k];
    if (range_name == nullptr) return;
    if (ctx.unordered_vars.count(range_name->text) == 0) return;
    report(kUnorderedIter, t[i].line,
           "range-for over unordered container '" + range_name->text +
               "' in a file that produces digests/reports/serialized bytes; "
               "hash order is implementation-defined — copy and sort first");
  }

  void float_format(std::size_t i) {
    const Token& tok = t[i];
    if (tok.kind == TokenKind::kString) {
      if (has_printf_float_conversion(tok.text))
        report(kFloatFormat, tok.line,
               "printf-style float conversion in a format string honors "
               "LC_NUMERIC; format via util/numeric format_double");
      return;
    }
    if (ident(tok, "to_string")) {
      const Token* open = next(i, 1);
      if (open == nullptr || !is_punct(*open, "(")) return;
      int depth = 0;
      for (std::size_t k = i + 1; k < t.size(); ++k) {
        if (t[k].kind == TokenKind::kPunct) {
          if (t[k].text == "(") ++depth;
          if (t[k].text == ")" && --depth == 0) break;
        }
        const bool floaty =
            is_float_literal(t[k]) ||
            (t[k].kind == TokenKind::kIdentifier &&
             (ctx.is_float(t[k].text, t[k].line) || t[k].text == "double" ||
              t[k].text == "float"));
        if (floaty) {
          report(kFloatFormat, tok.line,
                 "std::to_string on floating point is locale-sensitive and "
                 "fixes 6-digit precision; use util/numeric format_double");
          return;
        }
      }
      return;
    }
    // iostream `<<` on floating point — only library and tool code, where
    // the bytes can reach a report; tests/bench stream freely.
    if (!is_punct(tok, "<<")) return;
    if (!path_has_prefix(path, "src/") && !path_has_prefix(path, "tools/"))
      return;
    const Token* rhs = next(i, 1);
    if (rhs == nullptr) return;
    const bool flagged =
        is_float_literal(*rhs) ||
        (rhs->kind == TokenKind::kIdentifier &&
         (ctx.is_float(rhs->text, rhs->line) ||
          (ctx.float_funcs.count(rhs->text) > 0 && next(i, 2) != nullptr &&
           is_punct(*next(i, 2), "("))));
    if (flagged)
      report(kFloatFormat, tok.line,
             "iostream output of floating point picks locale/precision-"
             "dependent bytes; use util/numeric format_double");
  }

  void locale_rule(std::size_t i) {
    const Token& tok = t[i];
    if (tok.kind != TokenKind::kIdentifier) return;
    static const std::set<std::string> banned = {
        "setlocale", "localeconv", "uselocale", "newlocale", "strtod",
        "strtof",    "strtold",    "atof",      "stod",      "stof",
        "stold",     "imbue"};
    if (banned.count(tok.text) > 0) {
      report(kLocale, tok.line,
             "'" + tok.text +
                 "' honors or mutates LC_NUMERIC; parse via util/numeric "
                 "parse_double / parse_finite_double");
      return;
    }
    if (tok.text == "locale" && prev_is_std_scope(i))
      report(kLocale, tok.line,
             "std::locale objects smuggle locale state into formatting; "
             "keep numeric text locale-independent via util/numeric");
  }

  void raw_thread(std::size_t i) {
    const Token& tok = t[i];
    if (tok.kind != TokenKind::kIdentifier) return;
    if ((tok.text == "thread" || tok.text == "jthread") &&
        prev_is_std_scope(i)) {
      const Token* after = next(i, 1);
      // `std::thread::hardware_concurrency()` is a query, not a spawn.
      if (after != nullptr && is_punct(*after, "::")) return;
      report(kRawThread, tok.line,
             "raw std::" + tok.text +
                 " bypasses util/thread_pool's deterministic partition-and-"
                 "merge (and its instrumented join-on-shutdown)");
      return;
    }
    if (tok.text == "async" && prev_is_std_scope(i)) {
      report(kRawThread, tok.line,
             "std::async spawns unmanaged threads; submit to "
             "util/thread_pool instead");
      return;
    }
    if (tok.text == "pthread_create") {
      report(kRawThread, tok.line,
             "pthread_create bypasses util/thread_pool; use the pool");
      return;
    }
    if (tok.text == "detach" && prev_is_member_access(i)) {
      const Token* open = next(i, 1);
      if (open != nullptr && is_punct(*open, "("))
        report(kRawThread, tok.line,
               "detached threads outlive every determinism barrier (and "
               "the sanitizers' exit checks); join instead");
    }
  }

  void raw_bytes(std::size_t i) {
    const Token& tok = t[i];
    if (tok.kind != TokenKind::kIdentifier) return;
    if (tok.text == "reinterpret_cast") {
      report(kRawBytes, tok.line,
             "reinterpret_cast byte-punning bakes host endianness/padding "
             "into bytes; go through core/binary_io's fixed-width codecs");
      return;
    }
    if (tok.text == "fwrite" || tok.text == "fread")
      report(kRawBytes, tok.line,
             "'" + tok.text +
                 "' raw struct I/O bypasses core/binary_io's checksummed "
                 "fixed-width codecs");
  }
};

}  // namespace

const std::vector<RuleInfo>& rule_catalogue() {
  static const std::vector<RuleInfo> rules = {
      {kWallClock,
       "no wall-clock reads (system_clock, libc time, gettimeofday); "
       "durations use steady_clock, artifact ages use file mtimes"},
      {kRawRand,
       "no rand/random_device/std engines or distributions outside "
       "src/util/rng; randomness must be seedable and bit-stable across "
       "stdlibs"},
      {kUnorderedIter,
       "no range-for over unordered_map/unordered_set in files that "
       "produce digests, reports or serialized bytes; sort before any "
       "order can escape"},
      {kFloatFormat,
       "no printf float conversions, std::to_string(double) or iostream "
       "output of floating point outside src/util/numeric; byte-stable "
       "formatting uses format_double"},
      {kLocale,
       "no strtod/atof/std::stod/setlocale outside src/util/numeric; "
       "parsing uses locale-independent parse_double"},
      {kRawThread,
       "no std::thread/std::async construction or .detach() outside "
       "src/util/thread_pool; concurrency goes through the pool"},
      {kRawBytes,
       "no reinterpret_cast byte-punning or fwrite/fread outside "
       "src/core/binary_io; serialization uses the checksummed "
       "fixed-width codecs"},
      {kBadSuppression,
       "every 'seo-lint: allow(rule)' needs a known rule name and a "
       "'-- justification'; emitted for malformed directives, never "
       "suppressible"},
  };
  return rules;
}

bool is_known_rule(const std::string& name) {
  for (const RuleInfo& rule : rule_catalogue())
    if (rule.name == name) return true;
  return false;
}

std::vector<Finding> lint_file(const std::string& path,
                               std::string_view source) {
  const LexResult lexed = lex(source);
  const FileContext ctx = build_context(lexed.tokens);

  std::vector<Finding> raw;
  RuleRunner runner{path, lexed.tokens, ctx, raw};
  runner.run();

  // Resolve suppressions: a finding survives unless a well-formed
  // directive covering its line lists its rule.
  std::map<int, std::set<std::string>> allowed;
  std::vector<Finding> findings;
  for (const Suppression& s : lexed.suppressions) {
    bool ok = true;
    for (const std::string& rule : s.rules) {
      if (is_known_rule(rule)) continue;
      findings.push_back(Finding{
          path, s.line, kBadSuppression,
          "suppression names unknown rule '" + rule + "'"});
      ok = false;
    }
    if (ok) allowed[s.line].insert(s.rules.begin(), s.rules.end());
  }
  for (const DirectiveError& e : lexed.directive_errors)
    findings.push_back(Finding{path, e.line, kBadSuppression, e.message});

  for (Finding& f : raw) {
    const auto it = allowed.find(f.line);
    if (it != allowed.end() && it->second.count(f.rule) > 0) continue;
    findings.push_back(std::move(f));
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return a.line != b.line ? a.line < b.line : a.rule < b.rule;
            });
  return findings;
}

}  // namespace seo::lint
