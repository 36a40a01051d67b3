#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nc {

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// Used by the sweep runner (TrialStats) to aggregate per-trial
/// measurements (output sizes, densities, round counts) without storing
/// every sample.
class RunningStat {
 public:
  /// Adds one observation.
  void add(double x) noexcept;

  /// Number of observations.
  [[nodiscard]] std::size_t count() const noexcept { return n_; }

  /// Sample mean (0 when empty).
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }

  /// Unbiased sample variance (0 when fewer than two observations).
  [[nodiscard]] double variance() const noexcept;

  /// Sample standard deviation.
  [[nodiscard]] double stddev() const noexcept;

  /// Smallest / largest observation (0 when empty).
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }

  /// Sum of all observations.
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Exact empirical quantile of a sample (by sorting a copy).
/// `q` in [0,1]; empty input yields 0. Uses the nearest-rank method.
double quantile(std::vector<double> xs, double q);

/// Wilson score interval for a binomial proportion. Returns {lo, hi} for
/// `successes` out of `trials` at ~95% confidence (z = 1.96). Trials == 0
/// yields {0, 1}. Used to report success-probability estimates with error
/// bars in the sweep JSON rows (`success_ci`).
struct Interval {
  double lo;
  double hi;
};
Interval wilson_interval(std::size_t successes, std::size_t trials);

/// Least-squares slope of y against x, for estimating a growth exponent
/// from (x, log y) pairs. Returns 0 for fewer than two points or when every
/// x is equal.
double least_squares_slope(const std::vector<double>& x,
                           const std::vector<double>& y);

}  // namespace nc
