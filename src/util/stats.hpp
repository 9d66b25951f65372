// Streaming statistics and empirical CDFs.
//
// These are the analysis primitives behind every figure in the paper:
// Figures 2, 4 and 5 are CDFs of sampled series; Figures 3 and 6 are
// mean +/- stddev bars.
#pragma once

#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace blab::util {

/// Compensated (Kahan–Neumaier) summation. Multi-hour captures accumulate
/// tens of millions of float samples; a naive accumulator loses low-order
/// bits long before that, a compensated one stays within one ulp of the
/// exact sum regardless of length.
class KahanSum {
 public:
  void add(double x) {
    const double t = sum_ + x;
    if (std::abs(sum_) >= std::abs(x)) {
      compensation_ += (sum_ - t) + x;
    } else {
      compensation_ += (x - t) + sum_;
    }
    sum_ = t;
  }
  double value() const { return sum_ + compensation_; }

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

/// Welford-style running mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double variance() const;  ///< Sample variance (n-1 denominator).
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Quantiles of `xs` at each of `qs` (non-decreasing), found by selection
/// (std::nth_element) instead of a full sort. Each result equals
/// Cdf{xs}.quantile(q) bit for bit: selection lands the same order
/// statistics x[lo] and x[hi] a sort does. Reorders `xs`. Throws
/// std::logic_error when `xs` is empty, or when a q falls to a rank below
/// one an earlier q already passed.
std::vector<double> select_quantiles(std::vector<double>& xs,
                                     std::initializer_list<double> qs);

/// Empirical distribution over a collected sample set.
class Cdf {
 public:
  Cdf() = default;
  explicit Cdf(std::vector<double> samples);

  void add(double x);
  void add_all(const std::vector<double>& xs);
  /// Pre-size the sample buffer when the count is known (capture CDFs).
  void reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// Quantile q in [0, 1]; linear interpolation between order statistics.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double mean() const;
  double min() const;
  double max() const;
  /// Empirical CDF value at x: P[X <= x].
  double at(double x) const;
  /// Fraction of samples strictly above x.
  double fraction_above(double x) const { return 1.0 - at(x); }

  /// Evenly spaced (value, cumulative-probability) points, ready to plot.
  std::vector<std::pair<double, double>> curve(std::size_t points = 100) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  void ensure_sorted() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Trapezoidal integral of y(t) over irregularly spaced points; used to turn
/// current samples into charge (mAh) and power samples into energy.
double trapezoid_integral(const std::vector<double>& t,
                          const std::vector<double>& y);

}  // namespace blab::util
