#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/expect.hpp"

namespace seo {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  // Chan et al. parallel merge.
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double nt = na + nb;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  mean_ += delta * nb / nt;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return min_; }
double RunningStats::max() const { return max_; }

void IntHistogram::add(int value, std::size_t weight) {
  buckets_[value] += weight;
  total_ += weight;
}

std::size_t IntHistogram::count(int value) const {
  const auto it = buckets_.find(value);
  return it == buckets_.end() ? 0 : it->second;
}

double IntHistogram::frequency(int value) const {
  return total_ == 0
             ? 0.0
             : static_cast<double>(count(value)) / static_cast<double>(total_);
}

double IntHistogram::mean() const {
  if (total_ == 0) return 0.0;
  double acc = 0.0;
  for (const auto& [k, c] : buckets_)
    acc += static_cast<double>(k) * static_cast<double>(c);
  return acc / static_cast<double>(total_);
}

std::vector<int> IntHistogram::keys() const {
  std::vector<int> out;
  out.reserve(buckets_.size());
  for (const auto& [k, c] : buckets_) out.push_back(k);
  return out;
}

void IntHistogram::reset() {
  buckets_.clear();
  total_ = 0;
}

double percentile(std::vector<double> samples, double p) {
  SEO_EXPECT(!samples.empty());
  SEO_EXPECT(p >= 0.0 && p <= 100.0);
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) return samples.front();
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

}  // namespace seo
