// Locale-independent numeric text round-tripping.
//
// Every formatter/parser pair that feeds a byte-stable artifact (scenario
// templates, sweep/fleet reports, config files, CLI flags) routes through
// these two functions instead of snprintf("%g")/strtod.  The C functions
// honor LC_NUMERIC: under a comma-decimal locale (de_DE, fr_FR, ...) they
// print "0,5" and parse "0.5" as 0 — so a template generated on one box
// silently changes values when applied on another, and the shortest-
// round-trip search in the formatter "verifies" against the wrong parse.
// std::to_chars/std::from_chars are locale-independent by specification,
// which makes the round trip a true identity everywhere.
#pragma once

#include <string>
#include <string_view>

namespace seo {

/// Shortest decimal representation that parses back (via parse_double) to
/// exactly `v`.  Locale-independent: always '.' as the decimal separator,
/// never grouping.  Infinities render as "inf"/"-inf", NaN as "nan".
std::string format_double(double v);

/// Locale-independent strict parse: the entire string (no leading
/// whitespace, no trailing garbage) must form one double.  Accepts the
/// formats format_double emits plus standard fixed/scientific/hex-float
/// spellings and "inf"/"nan".  Returns false without touching `out` when
/// the text does not parse.
bool parse_double(std::string_view text, double& out);

/// Fixed-notation formatting with exactly `precision` digits after the
/// decimal point — the locale-independent replacement for snprintf
/// "%.Nf" in CSV/report emitters.  Byte-identical to the C-locale printf
/// output (to_chars fixed formatting rounds the same way), but immune to
/// LC_NUMERIC.  `precision` is clamped to [0, 64].
std::string format_double_fixed(double v, int precision);

/// parse_double plus a finiteness requirement — the variant CLI flags and
/// config keys want, where "nan", "inf" or "5x" must be a loud error, not
/// a value.  Returns false unless `text` parses completely to a finite
/// double.
bool parse_finite_double(std::string_view text, double& out);

/// Locale-independent strict integer parse: the entire string must form
/// one base-10 integer in [lo, hi].  "5x", "", "1e3", "+1" and values out
/// of range (overflow included) return false without touching `out` — the
/// check CLI integer arguments want, so a typo never narrows, wraps or
/// truncates into another value.
bool parse_int(std::string_view text, long long lo, long long hi,
               long long& out);

}  // namespace seo
