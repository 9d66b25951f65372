#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace blab::util {

namespace {

/// Where quantile q of n sorted samples falls: between the order statistics
/// x[lo] and x[hi] (hi = min(lo + 1, n - 1)), `frac` of the way to x[hi].
/// Cdf::quantile and select_quantiles both read quantiles through this, so
/// they interpolate identically.
struct QuantileRank {
  std::size_t lo = 0;
  std::size_t hi = 0;
  double frac = 0.0;

  /// Rank of q (clamped to [0, 1]) among n >= 1 samples: pos = q * (n - 1).
  static QuantileRank of(double q, std::size_t n) {
    q = std::clamp(q, 0.0, 1.0);
    const double pos = q * static_cast<double>(n - 1);
    QuantileRank r;
    r.lo = static_cast<std::size_t>(pos);
    r.hi = std::min(r.lo + 1, n - 1);
    r.frac = pos - static_cast<double>(r.lo);
    return r;
  }

  double interpolate(double x_lo, double x_hi) const {
    return x_lo * (1.0 - frac) + x_hi * frac;
  }
};

}  // namespace

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
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
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

std::vector<double> select_quantiles(std::vector<double>& xs,
                                     std::initializer_list<double> qs) {
  if (xs.empty()) throw std::logic_error{"quantile of empty sample"};
  std::vector<double> out;
  out.reserve(qs.size());
  // Invariant: xs[0, settled) holds the `settled` smallest values and
  // xs[settled - 1] sits at its sorted position, so a later, higher rank
  // is selected from the suffix alone.
  std::size_t settled = 0;
  for (const double q : qs) {
    const QuantileRank r = QuantileRank::of(q, xs.size());
    if (r.lo + 1 < settled) {
      throw std::logic_error{"select_quantiles needs non-decreasing q"};
    }
    const auto lo = xs.begin() + static_cast<std::ptrdiff_t>(r.lo);
    if (r.lo + 1 > settled) {
      std::nth_element(xs.begin() + static_cast<std::ptrdiff_t>(settled), lo,
                       xs.end());
      settled = r.lo + 1;
    }
    // x[lo + 1] of the sorted sample is the least value past lo.
    const double x_hi =
        r.hi == r.lo ? *lo : *std::min_element(lo + 1, xs.end());
    out.push_back(r.interpolate(*lo, x_hi));
  }
  return out;
}

Cdf::Cdf(std::vector<double> samples) : samples_{std::move(samples)}, sorted_{false} {}

void Cdf::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void Cdf::add_all(const std::vector<double>& xs) {
  samples_.insert(samples_.end(), xs.begin(), xs.end());
  sorted_ = false;
}

void Cdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Cdf::quantile(double q) const {
  if (samples_.empty()) throw std::logic_error{"quantile of empty Cdf"};
  ensure_sorted();
  const QuantileRank r = QuantileRank::of(q, samples_.size());
  return r.interpolate(samples_[r.lo], samples_[r.hi]);
}

double Cdf::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double Cdf::min() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.front();
}

double Cdf::max() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.back();
}

double Cdf::at(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>> Cdf::curve(std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (samples_.empty() || points < 2) return out;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double q = static_cast<double>(i) / static_cast<double>(points - 1);
    out.emplace_back(quantile(q), q);
  }
  return out;
}

double trapezoid_integral(const std::vector<double>& t,
                          const std::vector<double>& y) {
  assert(t.size() == y.size());
  double acc = 0.0;
  for (std::size_t i = 1; i < t.size(); ++i) {
    acc += 0.5 * (y[i] + y[i - 1]) * (t[i] - t[i - 1]);
  }
  return acc;
}

}  // namespace blab::util
