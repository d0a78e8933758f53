#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace isomap {

/// Streaming univariate statistics (Welford). Used by the evaluation layer
/// to summarize per-trial metrics without retaining samples.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< Sample variance (n-1 denominator).
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

  /// Merge another accumulator into this one (parallel Welford).
  void merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// The program's one sample store for quantiles. The first kCapacity
/// samples are kept verbatim, so quantiles are exact up to that count;
/// beyond it, Vitter's algorithm R (fixed-seed splitmix64: deterministic)
/// keeps a uniform reservoir while count/min/max/sum stay exact running
/// accumulators. Memory is bounded however long the set is fed.
class SampleSet {
 public:
  static constexpr std::size_t kCapacity = 4096;

  void add(double x) {
    if (count_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    sum_ += x;
    ++count_;
    if (xs_.size() < kCapacity) {
      xs_.push_back(x);
      return;
    }
    // Algorithm R: sample i (0-based) replaces a uniformly drawn slot of
    // [0, i] when the draw lands inside the reservoir. Multiply-high maps
    // the 64-bit draw onto [0, count_) without a division.
    const auto j = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next_random()) * count_) >> 64);
    if (j < kCapacity) xs_[static_cast<std::size_t>(j)] = x;
  }

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double min() const { return min_; }  ///< Exact; 0 when empty.
  double max() const { return max_; }  ///< Exact; 0 when empty.
  double sum() const { return sum_; }  ///< Insertion-order running sum.
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// The retained samples, ascending (all of them up to kCapacity).
  std::vector<double> sorted() const;
  /// Quantile by linear interpolation, q in [0,1]. Requires non-empty.
  double quantile(double q) const { return quantile_of_sorted(sorted(), q); }
  double median() const { return quantile(0.5); }
  /// quantile() over an ascending vector, to read several from one sort.
  static double quantile_of_sorted(const std::vector<double>& sorted,
                                   double q);

 private:
  std::uint64_t next_random() {
    // splitmix64 with a fixed seed: deterministic across runs/platforms.
    std::uint64_t z = (rng_state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  std::vector<double> xs_;  ///< Reservoir (exact while within capacity).
  std::size_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
  std::uint64_t rng_state_ = 0x150C0DE5EEDULL;
};

}  // namespace isomap
