#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace isomap {

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

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double total = static_cast<double>(n_ + other.n_);
  const double delta = other.mean_ - mean_;
  m2_ += other.m2_ +
         delta * delta * static_cast<double>(n_) *
             static_cast<double>(other.n_) / total;
  mean_ += delta * static_cast<double>(other.n_) / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

std::vector<double> SampleSet::sorted() const {
  std::vector<double> out = xs_;
  std::sort(out.begin(), out.end());
  return out;
}

double SampleSet::quantile_of_sorted(const std::vector<double>& sorted,
                                     double q) {
  if (sorted.empty())
    throw std::logic_error("SampleSet::quantile on empty set");
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace isomap
