// Lightweight statistics used by the measurement pipeline and benches:
// empirical CDFs (raw and weighted), percentiles, summaries, and a simple
// least-squares fit for the CRL size/entries correlation (Fig. 5).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace rev::util {

// Empirical distribution over double-valued samples, each with an optional
// weight. The paper's Fig. 6 contrasts the *raw* CDF of CRL sizes with the
// *certificate-weighted* CDF (each CRL weighted by how many certificates
// point at it); this class supports both by treating weights uniformly.
class Distribution {
 public:
  void Add(double value, double weight = 1.0);

  // Quantile in [0, 1]; linear in the weighted empirical CDF.
  // Returns 0 for an empty distribution.
  double Quantile(double q) const;

  double Median() const { return Quantile(0.5); }
  double Min() const;
  double Max() const;
  double Mean() const;
  double TotalWeight() const;
  std::size_t Count() const { return samples_.size(); }
  bool Empty() const { return samples_.empty(); }

  // CDF evaluated at `x`: weighted fraction of samples <= x.
  double CdfAt(double x) const;

  // Evenly spaced (in probability) points of the CDF, suitable for printing
  // a figure series: returns `points` pairs of (value, cumulative_prob).
  std::vector<std::pair<double, double>> CdfSeries(std::size_t points) const;

 private:
  void Sort() const;

  mutable std::vector<std::pair<double, double>> samples_;  // (value, weight)
  mutable bool sorted_ = true;
};

// Simple online mean/variance accumulator (Welford).
class Accumulator {
 public:
  void Add(double x);

  std::size_t Count() const { return n_; }
  double Mean() const { return mean_; }
  double Variance() const;
  double StdDev() const;
  double Min() const { return min_; }
  double Max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
};

// Least-squares fit y = slope*x + intercept with Pearson r.
struct LinearFit {
  double slope = 0;
  double intercept = 0;
  double r = 0;
};
LinearFit FitLine(const std::vector<double>& xs, const std::vector<double>& ys);

// Renders a count of bytes as a human-readable string ("51.0 KB", "76.1 MB").
std::string HumanBytes(double bytes);

}  // namespace rev::util
