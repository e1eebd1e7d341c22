#include "util/numeric.hpp"

#include <charconv>
#include <cmath>
#include <system_error>

namespace seo {

std::string format_double(double v) {
  // std::to_chars with no precision argument is specified to produce the
  // shortest string that from_chars recovers exactly — the same contract
  // the old %.*g precision ladder approximated, minus the locale hazard.
  char buf[40];
  const auto result = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, result.ptr);
}

std::string format_double_fixed(double v, int precision) {
  if (precision < 0) precision = 0;
  if (precision > 64) precision = 64;
  // Worst case: -DBL_MAX in fixed notation is ~310 digits + 64 fractional.
  char buf[400];
  const auto result = std::to_chars(buf, buf + sizeof buf, v,
                                    std::chars_format::fixed, precision);
  if (result.ec != std::errc()) return "nan";  // cannot happen with buf[400]
  return std::string(buf, result.ptr);
}

bool parse_double(std::string_view text, double& out) {
  if (text.empty()) return false;
  // from_chars does not accept a leading '+' (to_chars never emits one);
  // keep accepting it for hand-written configs.
  if (text.front() == '+') text.remove_prefix(1);
  double v = 0.0;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto result = std::from_chars(first, last, v);
  if (result.ec != std::errc() || result.ptr != last) return false;
  out = v;
  return true;
}

bool parse_finite_double(std::string_view text, double& out) {
  double v = 0.0;
  if (!parse_double(text, v) || !std::isfinite(v)) return false;
  out = v;
  return true;
}

bool parse_int(std::string_view text, long long lo, long long hi,
               long long& out) {
  long long v = 0;
  const char* last = text.data() + text.size();
  const auto result = std::from_chars(text.data(), last, v);
  if (text.empty() || result.ec != std::errc() || result.ptr != last ||
      v < lo || v > hi)
    return false;
  out = v;
  return true;
}

}  // namespace seo
