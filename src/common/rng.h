// Deterministic random-number generation for the simulator.
//
// Every stochastic component owns its own Rng (seeded from a parent), so
// experiments are reproducible bit-for-bit and adding randomness to one
// component never perturbs another.

#ifndef SKYWALKER_COMMON_RNG_H_
#define SKYWALKER_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>

namespace skywalker {

// Default seed used when none is supplied; fixed for reproducibility.
inline constexpr uint64_t kDefaultRngSeed = 0x5eed;

// xoshiro256++ generator seeded via splitmix64. Small, fast, and good enough
// statistical quality for workload synthesis.
class Rng {
 public:
  explicit Rng(uint64_t seed = kDefaultRngSeed);

  // Next raw 64-bit value.
  uint64_t Next();

  // Derives an independent child generator; `stream` distinguishes children
  // created from the same parent state.
  Rng Fork(uint64_t stream);

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Bernoulli trial with probability `p` of true.
  bool Bernoulli(double p);

  // Exponential with rate lambda (mean 1/lambda). Requires lambda > 0.
  double Exponential(double lambda);

  // Normal via Box-Muller.
  double Normal(double mean, double stddev);

  // Lognormal: exp(Normal(mu, sigma)). Heavy-tailed; used for LLM output
  // lengths (matches the long-tail CDF in Fig. 4a of the paper).
  double LogNormal(double mu, double sigma);

  // Geometric number of trials until first success (>= 1), success prob p.
  int64_t Geometric(double p);

  // Poisson-distributed count with the given mean (Knuth for small means,
  // normal approximation above 64).
  int64_t Poisson(double mean);

  // Zipf-distributed rank in [1, n] with exponent s (rejection sampling).
  int64_t Zipf(int64_t n, double s);

 private:
  uint64_t s_[4];
};

}  // namespace skywalker

#endif  // SKYWALKER_COMMON_RNG_H_
