#include "util/rng.hpp"

#include <cmath>
#include <numbers>

#include "util/expect.hpp"

namespace seo {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
}

std::uint64_t Xoshiro256::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Xoshiro256 Xoshiro256::split() { return Xoshiro256(next()); }

double Rng::uniform() {
  // 53 random mantissa bits -> double in [0,1).
  return static_cast<double>(engine_.next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  SEO_EXPECT(lo <= hi);
  return lo + (hi - lo) * uniform();
}

int Rng::uniform_int(int lo, int hi) {
  SEO_EXPECT(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // Modulo bias is < 2^-50 for the spans used here (< 2^14); acceptable.
  return lo + static_cast<int>(engine_.next() % span);
}

double Rng::gaussian() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box–Muller; u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - uniform();
  double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_gaussian_ = radius * std::sin(angle);
  have_cached_gaussian_ = true;
  return radius * std::cos(angle);
}

double Rng::gaussian(double mean, double stddev) {
  SEO_EXPECT(stddev >= 0.0);
  return mean + stddev * gaussian();
}

double Rng::rayleigh(double sigma) {
  SEO_EXPECT(sigma > 0.0);
  const double u = 1.0 - uniform();  // (0,1]
  return sigma * std::sqrt(-2.0 * std::log(u));
}

bool Rng::bernoulli(double p_true) {
  SEO_EXPECT(p_true >= 0.0 && p_true <= 1.0);
  return uniform() < p_true;
}

}  // namespace seo
