// Deterministic, seedable random number generation for reproducible
// experiments.  We ship our own xoshiro256** engine instead of relying on
// std::mt19937 so that every platform/stdlib produces bit-identical
// experiment streams (libstdc++ and libc++ disagree on the std
// distributions, which would make EXPERIMENTS.md numbers machine-dependent).
#pragma once

#include <array>
#include <cstdint>

namespace seo {

/// SplitMix64 — used to expand a single 64-bit seed into engine state.
/// Reference: Steele, Lea & Flood, "Fast splittable pseudorandom number
/// generators", OOPSLA 2014.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 by Blackman & Vigna — fast, high-quality, 256-bit state.
/// Satisfies the UniformRandomBitGenerator concept.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single seed via SplitMix64.
  explicit Xoshiro256(std::uint64_t seed = 0x5eedu);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() { return next(); }
  result_type next();

  /// Creates an independent child stream (jump-free split via reseeding —
  /// adequate for simulation workloads, documented as such).
  Xoshiro256 split();

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// Convenience façade bundling an engine with the distributions the
/// simulator needs.  All sampling goes through this type so experiment
/// code never touches raw engines.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eedu) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi);
  /// Standard normal via Box–Muller (cached second variate).
  double gaussian();
  /// Normal with given mean/stddev.
  double gaussian(double mean, double stddev);
  /// Rayleigh distribution with scale sigma: pdf x/s^2 exp(-x^2/2s^2).
  /// Mean = sigma * sqrt(pi/2).  Used for the Wi-Fi effective-data-rate
  /// model (paper section VI-A, scale 20 Mbps).
  double rayleigh(double sigma);
  /// Bernoulli trial.
  bool bernoulli(double p_true);

  /// Independent child RNG (e.g. one per sensor pipeline).
  Rng split() { return Rng(engine_.next()); }

  Xoshiro256& engine() { return engine_; }

 private:
  Xoshiro256 engine_;
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace seo
