// Unit tests for the util substrate: RNG determinism and distribution
// moments, streaming statistics, histograms, table rendering, contracts.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <set>

#include "util/expect.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace seo {
namespace {

TEST(Expect, ViolationThrowsWithLocation) {
  try {
    SEO_EXPECT(1 == 2);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("precondition"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Expect, EnsureAndAssertDistinguishKinds) {
  EXPECT_THROW(SEO_ENSURE(false), ContractViolation);
  EXPECT_THROW(SEO_ASSERT(false), ContractViolation);
  EXPECT_NO_THROW(SEO_EXPECT(true));
}

TEST(Xoshiro, DeterministicPerSeed) {
  Xoshiro256 a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    EXPECT_NE(va, c.next());  // astronomically unlikely to collide
  }
}

TEST(Rng, UniformStaysInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
  EXPECT_THROW(rng.uniform(2.0, 1.0), ContractViolation);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(17);
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.uniform_int(2, 6);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // every value hit
}

TEST(Rng, GaussianMoments) {
  Rng rng(19);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.01);
  EXPECT_NEAR(s.stddev(), 1.0, 0.01);
}

TEST(Rng, GaussianScaled) {
  Rng rng(23);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.gaussian(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, RayleighMeanMatchesTheory) {
  // The Wi-Fi data-rate model depends on this: mean = sigma*sqrt(pi/2).
  Rng rng(29);
  RunningStats s;
  const double sigma = 20.0;
  for (int i = 0; i < 200000; ++i) s.add(rng.rayleigh(sigma));
  EXPECT_NEAR(s.mean(), sigma * std::sqrt(std::numbers::pi / 2.0), 0.2);
  // Variance = (4-pi)/2 * sigma^2.
  EXPECT_NEAR(s.variance(), (4.0 - std::numbers::pi) / 2.0 * sigma * sigma,
              4.0);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(37);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng parent(41);
  Rng child = parent.split();
  // Parent and child must not emit identical sequences.
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    equal += parent.uniform() == child.uniform() ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsCombined) {
  RunningStats a, b, combined;
  Rng rng(43);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.gaussian(3.0, 1.5);
    (i % 2 ? a : b).add(v);
    combined.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), combined.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.mean(), 7.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(IntHistogram, FrequenciesAndMean) {
  IntHistogram h;
  h.add(1, 3);
  h.add(2, 1);
  h.add(4, 4);
  EXPECT_EQ(h.total(), 8u);
  EXPECT_DOUBLE_EQ(h.frequency(1), 3.0 / 8.0);
  EXPECT_DOUBLE_EQ(h.frequency(3), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), (3.0 * 1 + 2 + 4.0 * 4) / 8.0);
  EXPECT_EQ(h.keys(), (std::vector<int>{1, 2, 4}));
  h.reset();
  EXPECT_EQ(h.total(), 0u);
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 62.5), 3.5);
  EXPECT_THROW(percentile({}, 50.0), ContractViolation);
}

TEST(TextTable, RendersAlignedCells) {
  TextTable t("title");
  t.set_header({"a", "long_header"});
  t.add_row({"x", "y"});
  t.add_row({"wide_cell", "z"});
  const std::string out = t.render();
  EXPECT_NE(out.find("title"), std::string::npos);
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("wide_cell"), std::string::npos);
  EXPECT_NE(out.find("+--"), std::string::npos);
}

TEST(TextTable, CsvQuotesCommas) {
  TextTable t;
  t.set_header({"k", "v"});
  t.add_row({"a,b", "c"});
  const std::string csv = t.render_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
}

TEST(Formatting, PercentAndDouble) {
  EXPECT_EQ(fmt_percent(0.659), "65.9%");
  EXPECT_EQ(fmt_percent(0.12345, 2), "12.35%");
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
}

TEST(BarChart, ScalesToPeak) {
  const std::string out = render_bar_chart({{"a", 1.0}, {"b", 2.0}}, 10);
  // 'b' should have the full-width bar, 'a' half.
  EXPECT_NE(out.find("##########"), std::string::npos);
  EXPECT_NE(out.find("#####"), std::string::npos);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(units::ms(20.0), 0.02);
  EXPECT_DOUBLE_EQ(units::mbps(20.0), 2e7);
  EXPECT_DOUBLE_EQ(units::kib(24.0), 24576.0);
  EXPECT_DOUBLE_EQ(units::bits(1024.0), 8192.0);
}

TEST(Log, WarnWritesOnePrefixedLine) {
  ::testing::internal::CaptureStderr();
  log_warn() << "short of episodes: " << 3;
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "[warn] short of episodes: 3\n");
}

}  // namespace
}  // namespace seo
