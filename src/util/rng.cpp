#include "util/rng.h"

#include <cmath>
#include <numbers>

#include "util/hash.h"

namespace rev::util {

namespace {

std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // The first four draws of a splitmix64 stream seeded with `seed`.
  for (std::size_t i = 0; i < s_.size(); ++i) s_[i] = Mix64(seed + i * kGolden);
  // All-zero state is invalid for xoshiro; splitmix output makes this
  // astronomically unlikely, but guard anyway.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

std::uint64_t Rng::Next() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::NextBelow(std::uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(span == 0 ? Next() : NextBelow(span));
}

double Rng::UniformDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

bool Rng::Chance(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return UniformDouble() < p;
}

double Rng::Exponential(double mean) {
  double u = UniformDouble();
  if (u <= 0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::Normal(double mean, double stddev) {
  double u1 = UniformDouble();
  if (u1 <= 0) u1 = 0x1.0p-53;
  const double u2 = UniformDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Normal(mu, sigma));
}

double Rng::Pareto(double xm, double alpha) {
  double u = UniformDouble();
  if (u <= 0) u = 0x1.0p-53;
  return xm / std::pow(u, 1.0 / alpha);
}

std::uint64_t Rng::Poisson(double mean) {
  if (mean <= 0) return 0;
  if (mean > 64) {
    const double v = Normal(mean, std::sqrt(mean));
    return v <= 0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
  }
  const double limit = std::exp(-mean);
  std::uint64_t k = 0;
  double product = UniformDouble();
  while (product > limit) {
    ++k;
    product *= UniformDouble();
  }
  return k;
}

std::uint64_t Rng::Zipf(std::uint64_t n, double s) {
  if (n <= 1) return 0;
  // Rejection-inversion over the continuous envelope 1/x^s.
  const double nd = static_cast<double>(n);
  for (;;) {
    const double u = UniformDouble();
    double x;
    if (s == 1.0) {
      x = std::exp(u * std::log(nd + 1.0));
    } else {
      const double t = std::pow(nd + 1.0, 1.0 - s);
      x = std::pow(u * (t - 1.0) + 1.0, 1.0 / (1.0 - s));
    }
    const std::uint64_t k = static_cast<std::uint64_t>(x);
    if (k >= 1 && k <= n) {
      const double ratio = std::pow(x / static_cast<double>(k), s);
      if (UniformDouble() < 1.0 / ratio) return k - 1;
    }
  }
}

std::size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) total += w;
  double target = UniformDouble() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target <= 0) return i;
  }
  return weights.empty() ? 0 : weights.size() - 1;
}

void Rng::Fill(std::uint8_t* out, std::size_t n) {
  std::size_t i = 0;
  while (i + 8 <= n) {
    const std::uint64_t word = Next();
    for (int b = 0; b < 8; ++b)
      out[i++] = static_cast<std::uint8_t>(word >> (8 * b));
  }
  if (i < n) {
    const std::uint64_t word = Next();
    for (int b = 0; i < n; ++b)
      out[i++] = static_cast<std::uint8_t>(word >> (8 * b));
  }
}

Rng Rng::Fork(std::uint64_t label) {
  return Rng(Next() ^ (label * 0xD1B54A32D192ED03ull));
}

}  // namespace rev::util
