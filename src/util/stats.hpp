// Streaming statistics and histograms used by the experiment harness to
// aggregate per-episode metrics (energy gains, sampled deadline values,
// fallback rates, ...).
#pragma once

#include <cstddef>
#include <map>
#include <vector>

namespace seo {

/// Welford's online mean/variance accumulator.  Numerically stable for the
/// long episode streams the simulator produces.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Integer-bucket histogram (e.g. the paper's Fig. 6 histogram of sampled
/// discretized deadlines delta_max in {1..4}).
class IntHistogram {
 public:
  void add(int value, std::size_t weight = 1);
  std::size_t count(int value) const;
  std::size_t total() const { return total_; }
  /// Relative frequency of `value` in [0,1]; 0 when empty.
  double frequency(int value) const;
  double mean() const;
  /// Sorted list of observed bucket keys.
  std::vector<int> keys() const;
  void reset();

 private:
  std::map<int, std::size_t> buckets_;
  std::size_t total_ = 0;
};

/// Percentile of a sample vector (linear interpolation, p in [0,100]).
/// The input is copied and sorted; intended for end-of-run reporting.
double percentile(std::vector<double> samples, double p);

}  // namespace seo
