#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace stark {

void StatAccumulator::add(double x) noexcept {
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

void StatAccumulator::merge(const StatAccumulator& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double StatAccumulator::variance() const noexcept {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double StatAccumulator::stddev() const noexcept {
  return std::sqrt(variance());
}

void Distribution::sort_if_needed() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Distribution::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double Distribution::min() const {
  sort_if_needed();
  return samples_.empty() ? 0.0 : samples_.front();
}

double Distribution::max() const {
  sort_if_needed();
  return samples_.empty() ? 0.0 : samples_.back();
}

double Distribution::percentile(double q) const {
  if (samples_.empty()) return 0.0;
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("percentile: q out of range");
  sort_if_needed();
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

void TimeSeries::add(double t, double value) { points_.emplace_back(t, value); }

std::vector<TimeSeries::Bucket> TimeSeries::bucketize(double t0, double t1,
                                                      double width) const {
  if (width <= 0.0 || t1 <= t0) return {};
  const std::size_t n =
      static_cast<std::size_t>(std::ceil((t1 - t0) / width));
  std::vector<Bucket> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].t_start = t0 + static_cast<double>(i) * width;
  }
  for (const auto& [t, v] : points_) {
    if (t < t0 || t >= t1) continue;
    const auto idx = static_cast<std::size_t>((t - t0) / width);
    if (idx < n) out[idx].stats.add(v);
  }
  return out;
}

double max_min_spread(const std::vector<double>& means) noexcept {
  if (means.size() < 2) return 1.0;
  double lo = means.front();
  double hi = means.front();
  for (double m : means) {
    if (m < lo) lo = m;
    if (m > hi) hi = m;
  }
  return lo > 0.0 ? hi / lo : 1.0;
}

double jain_index(const std::vector<double>& means) noexcept {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double m : means) {
    sum += m;
    sum_sq += m * m;
  }
  if (means.size() < 2 || sum_sq <= 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(means.size()) * sum_sq);
}

std::string format_bytes(double bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int u = 0;
  double v = bytes;
  while (std::abs(v) >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f %s", v, kUnits[u]);
  return buf;
}

std::string format_seconds(double seconds) {
  char buf[64];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1f us", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.1f ms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", seconds);
  }
  return buf;
}

}  // namespace stark
