#include "src/common/rng.h"

#include <cassert>
#include <cmath>

namespace skywalker {
namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t RotL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& lane : s_) {
    lane = SplitMix64(sm);
  }
}

uint64_t Rng::Next() {
  const uint64_t result = RotL(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = RotL(s_[3], 45);
  return result;
}

Rng Rng::Fork(uint64_t stream) {
  // Mix current state with the stream id so repeated forks differ.
  uint64_t seed = Next() ^ (stream * 0x9e3779b97f4a7c15ULL + 0x1234567);
  return Rng(seed);
}

double Rng::NextDouble() {
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) {
    return static_cast<int64_t>(Next());  // Full 64-bit range.
  }
  // Rejection sampling to avoid modulo bias.
  uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t v;
  do {
    v = Next();
  } while (v >= limit);
  return lo + static_cast<int64_t>(v % range);
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

double Rng::Exponential(double lambda) {
  assert(lambda > 0);
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -std::log(u) / lambda;
}

double Rng::Normal(double mean, double stddev) {
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  double u2 = NextDouble();
  double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  return mean + stddev * z;
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Normal(mu, sigma));
}

int64_t Rng::Geometric(double p) {
  assert(p > 0.0 && p <= 1.0);
  if (p >= 1.0) {
    return 1;
  }
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return 1 + static_cast<int64_t>(std::floor(std::log(u) / std::log(1.0 - p)));
}

int64_t Rng::Poisson(double mean) {
  assert(mean >= 0);
  if (mean <= 0) {
    return 0;
  }
  if (mean > 64.0) {
    // Normal approximation with continuity correction for large means.
    double v = Normal(mean, std::sqrt(mean));
    return v < 0 ? 0 : static_cast<int64_t>(v + 0.5);
  }
  double threshold = std::exp(-mean);
  double product = 1.0;
  int64_t count = -1;
  do {
    ++count;
    product *= NextDouble();
  } while (product > threshold);
  return count;
}

int64_t Rng::Zipf(int64_t n, double s) {
  assert(n >= 1);
  // Rejection-inversion sampling (Hormann & Derflinger).
  auto h = [s](double x) {
    return s == 1.0 ? std::log(x) : (std::pow(x, 1.0 - s) - 1.0) / (1.0 - s);
  };
  auto h_inv = [s](double y) {
    return s == 1.0 ? std::exp(y) : std::pow(1.0 + y * (1.0 - s), 1.0 / (1.0 - s));
  };
  const double hx0 = h(0.5) - 1.0;
  const double hn = h(static_cast<double>(n) + 0.5);
  for (int attempt = 0; attempt < 1000; ++attempt) {
    double u = hx0 + NextDouble() * (hn - hx0);
    double x = h_inv(u);
    int64_t k = static_cast<int64_t>(x + 0.5);
    if (k < 1) {
      k = 1;
    }
    if (k > n) {
      k = n;
    }
    double ratio = std::pow(static_cast<double>(k), -s);
    if (u >= h(static_cast<double>(k) + 0.5) - ratio) {
      return k;
    }
  }
  return 1;  // Statistically unreachable; bounded loop for safety.
}

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = 0;
  for (double w : weights) {
    total += w;
  }
  assert(total > 0);
  double target = NextDouble() * total;
  double cumulative = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    cumulative += weights[i];
    if (target < cumulative) {
      return i;
    }
  }
  return weights.size() - 1;
}

}  // namespace skywalker
