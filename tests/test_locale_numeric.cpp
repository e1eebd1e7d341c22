// Locale-independence regression tests for the numeric round-trip layer
// (util/numeric.hpp) and the report/scenario formatters built on it.
// Historic bug: fmt_value/report_fmt used snprintf("%g") and parsing used
// strtod/std::stod, all of which honor LC_NUMERIC — a comma-decimal locale
// (de_DE, fr_FR) silently corrupted saved scenarios and sweep reports.
// The formatters now go through std::to_chars/from_chars, which are
// locale-independent by specification; these tests flip the process locale
// to a comma-decimal one (when the host has one installed) and assert the
// round trip never changes.
#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <string>
#include <vector>

#include "sim/sweep_report.hpp"
#include "util/config.hpp"
#include "util/numeric.hpp"

namespace seo {
namespace {

const std::vector<double> kTrickyValues = {
    0.0,       -0.0,        1.0 / 3.0, 6.02e23, 5e-324,
    -1.5e-10,  1234567.125, 0.1,       -0.25,   1.7976931348623157e308,
};

/// The one suite that deliberately touches the process locale — it proves
/// util/numeric stays byte-stable under comma-decimal locales.  All libc
/// locale calls funnel through these two helpers so the lint exemption
/// covers exactly two lines.
const char* set_numeric_locale(const char* name) {
  // seo-lint: allow(locale) -- this suite exists to install comma-decimal
  // locales and prove the formatters ignore them.
  return std::setlocale(LC_NUMERIC, name);
}

/// The active LC_NUMERIC decimal separator, to verify a locale applied.
char decimal_point_char() {
  // seo-lint: allow(locale) -- observes the ambient locale to confirm the
  // comma-decimal setup this suite is testing against.
  return std::localeconv()->decimal_point[0];
}

/// Restores the previous LC_NUMERIC on scope exit, so a failing assertion
/// cannot leak a comma locale into later tests.
class ScopedNumericLocale {
 public:
  explicit ScopedNumericLocale(const char* name)
      : previous_(set_numeric_locale(nullptr)),
        applied_(set_numeric_locale(name) != nullptr) {}
  ~ScopedNumericLocale() { set_numeric_locale(previous_.c_str()); }
  bool applied() const { return applied_; }

 private:
  std::string previous_;
  bool applied_ = false;
};

/// First installed comma-decimal locale, empty when the host has none
/// (minimal containers often ship only C/POSIX).
std::string comma_locale() {
  for (const char* name : {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8",
                           "fr_FR.utf8", "it_IT.UTF-8", "es_ES.UTF-8"}) {
    ScopedNumericLocale guard(name);
    if (guard.applied() && decimal_point_char() == ',')
      return name;
  }
  return "";
}

void expect_round_trips() {
  for (const double v : kTrickyValues) {
    const std::string text = format_double(v);
    EXPECT_EQ(text.find(','), std::string::npos)
        << "comma leaked into '" << text << "'";
    double back = 0.0;
    ASSERT_TRUE(parse_double(text, back)) << "unparseable: '" << text << "'";
    EXPECT_EQ(back, v) << "lossy round trip for " << text;
    // report_fmt shares the formatter, so reports get the same guarantee.
    EXPECT_EQ(report_fmt(v), text);
  }
}

TEST(LocaleNumeric, RoundTripsInDefaultLocale) { expect_round_trips(); }

TEST(LocaleNumeric, ParseRejectsPartialAndNonFiniteInput) {
  double v = 0.0;
  EXPECT_FALSE(parse_double("", v));
  EXPECT_FALSE(parse_double("5x", v));      // unconsumed tail
  EXPECT_FALSE(parse_double("1.5 ", v));    // trailing space
  EXPECT_FALSE(parse_double("0x10", v));    // hex is not config syntax
  EXPECT_TRUE(parse_double("+3.5", v));
  EXPECT_EQ(v, 3.5);
  EXPECT_TRUE(parse_double("1e3", v));
  EXPECT_EQ(v, 1000.0);

  // parse_double accepts the IEEE specials; the CLI/config layer uses the
  // finite variant so "nan" can never sneak into a numeric flag.
  ASSERT_TRUE(parse_double("nan", v));
  EXPECT_TRUE(std::isnan(v));
  EXPECT_FALSE(parse_finite_double("nan", v));
  EXPECT_FALSE(parse_finite_double("inf", v));
  EXPECT_FALSE(parse_finite_double("1e999", v));  // overflows to non-finite
  EXPECT_TRUE(parse_finite_double("2.5", v));
  EXPECT_EQ(v, 2.5);
}

TEST(LocaleNumeric, ParseIntIsWholeAndRangeChecked) {
  long long v = 7;
  EXPECT_TRUE(parse_int("42", 0, 100, v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(parse_int("-3", -5, 5, v));
  EXPECT_EQ(v, -3);
  for (const char* bad : {"", "5x", " 1", "1 ", "+1", "1e3", "abc", "101",
                          "-1", "99999999999999999999"})
    EXPECT_FALSE(parse_int(bad, 0, 100, v)) << "'" << bad << "'";
  EXPECT_EQ(v, -3);  // rejected input leaves the output alone
}

TEST(LocaleNumeric, FlippedLocaleDoesNotChangeTheRoundTrip) {
  const std::string locale = comma_locale();
  if (locale.empty())
    GTEST_SKIP() << "no comma-decimal locale installed on this host";

  ScopedNumericLocale guard(locale.c_str());
  ASSERT_TRUE(guard.applied());
  ASSERT_EQ(decimal_point_char(), ',');

  // The exact failure mode of the old snprintf/strtod path: "1.5" parsed
  // as 1 (comma expected), and formatting emitted "1,5".
  expect_round_trips();
  double v = 0.0;
  ASSERT_TRUE(parse_double("1.5", v));
  EXPECT_EQ(v, 1.5);
  EXPECT_EQ(format_double(1.5), "1.5");

  // And the config layer above it: values written with a dot must read
  // back identically whatever the ambient locale says.
  KeyValueConfig config;
  config.set("x", "2.75");
  EXPECT_EQ(config.get_double("x", 0.0), 2.75);
}

}  // namespace
}  // namespace seo
