// Statistics accumulators used by benches and schedulers.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace stark {

// Streaming mean/min/max/variance (Welford).
class StatAccumulator {
 public:
  void add(double x) noexcept;
  void merge(const StatAccumulator& other) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return mean_ * static_cast<double>(n_); }
  double variance() const noexcept;  // population variance
  double stddev() const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Keeps all samples; exact percentiles. Sample counts in this project stay
// small enough (tens of thousands) that exact storage beats a sketch.
class Distribution {
 public:
  void add(double x) { samples_.push_back(x); sorted_ = false; }
  std::size_t count() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }

  double mean() const;
  double min() const;
  double max() const;
  // q in [0, 1]; nearest-rank with linear interpolation.
  double percentile(double q) const;
  double median() const { return percentile(0.5); }

  const std::vector<double>& samples() const noexcept { return samples_; }
  void clear() { samples_.clear(); sorted_ = false; }

 private:
  void sort_if_needed() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

// A named time series of (t, value) points, bucketed on demand.
class TimeSeries {
 public:
  void add(double t, double value);
  std::size_t count() const noexcept { return points_.size(); }

  struct Bucket {
    double t_start = 0.0;
    StatAccumulator stats;
  };
  // Group points into fixed-width time buckets covering [t0, t1).
  std::vector<Bucket> bucketize(double t0, double t1, double width) const;

  const std::vector<std::pair<double, double>>& points() const noexcept {
    return points_;
  }

 private:
  std::vector<std::pair<double, double>> points_;
};

// Fairness over per-group means (e.g. per-tenant mean job delays), one
// entry per group with observations, summed in the caller's order.
// max/min of the means; 1.0 with fewer than two means or a min <= 0.
double max_min_spread(const std::vector<double>& means) noexcept;
// Jain's index (sum m)^2 / (n * sum m^2), in (1/n, 1] with 1 = perfectly
// even; 1.0 with fewer than two means or a zero sum of squares.
double jain_index(const std::vector<double>& means) noexcept;

// Human-readable byte / duration formatting for bench output.
std::string format_bytes(double bytes);
std::string format_seconds(double seconds);

}  // namespace stark
