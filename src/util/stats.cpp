#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace rev::util {

void Distribution::Add(double value, double weight) {
  samples_.emplace_back(value, weight);
  sorted_ = false;
}

void Distribution::Sort() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Distribution::Quantile(double q) const {
  if (samples_.empty()) return 0;
  // All-zero (or negative) weights mean the distribution is empty for CDF
  // purposes; without this guard `target == 0` and the first sample's
  // `cum >= target` is trivially true, returning an arbitrary value.
  const double total = TotalWeight();
  if (total <= 0) return 0;
  Sort();
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * total;
  double cum = 0;
  for (const auto& [value, weight] : samples_) {
    cum += weight;
    if (cum >= target) return value;
  }
  return samples_.back().first;
}

double Distribution::Min() const {
  if (samples_.empty()) return 0;
  Sort();
  return samples_.front().first;
}

double Distribution::Max() const {
  if (samples_.empty()) return 0;
  Sort();
  return samples_.back().first;
}

double Distribution::Mean() const {
  const double total = TotalWeight();
  if (total <= 0) return 0;
  double sum = 0;
  for (const auto& [value, weight] : samples_) sum += value * weight;
  return sum / total;
}

double Distribution::TotalWeight() const {
  double total = 0;
  for (const auto& [value, weight] : samples_) {
    (void)value;
    total += weight;
  }
  return total;
}

double Distribution::CdfAt(double x) const {
  const double total = TotalWeight();
  if (total <= 0) return 0;
  Sort();
  double cum = 0;
  for (const auto& [value, weight] : samples_) {
    if (value > x) break;
    cum += weight;
  }
  return cum / total;
}

std::vector<std::pair<double, double>> Distribution::CdfSeries(
    std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (samples_.empty() || points == 0) return out;
  out.reserve(points);
  for (std::size_t i = 1; i <= points; ++i) {
    const double q = static_cast<double>(i) / static_cast<double>(points);
    out.emplace_back(Quantile(q), q);
  }
  return out;
}

void Accumulator::Add(double x) {
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

double Accumulator::Variance() const {
  return n_ < 2 ? 0 : m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::StdDev() const { return std::sqrt(Variance()); }

LinearFit FitLine(const std::vector<double>& xs, const std::vector<double>& ys) {
  LinearFit fit;
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return fit;
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += xs[i];
    sy += ys[i];
  }
  const double mx = sx / static_cast<double>(n);
  const double my = sy / static_cast<double>(n);
  double sxx = 0, syy = 0, sxy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    syy += dy * dy;
    sxy += dx * dy;
  }
  if (sxx <= 0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r = (syy <= 0) ? 0 : sxy / std::sqrt(sxx * syy);
  return fit;
}

std::string HumanBytes(double bytes) {
  const char* units[] = {"B", "KB", "MB", "GB"};
  int unit = 0;
  while (bytes >= 1024.0 && unit < 3) {
    bytes /= 1024.0;
    ++unit;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f %s", bytes, units[unit]);
  return buf;
}

}  // namespace rev::util
