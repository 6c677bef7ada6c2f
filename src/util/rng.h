// Deterministic pseudo-random number generation.
//
// Every stochastic component in the library takes an explicit Rng so whole
// experiments are reproducible bit-for-bit from a single seed.

#ifndef SUPA_UTIL_RNG_H_
#define SUPA_UTIL_RNG_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace supa {

/// xoshiro256** seeded via SplitMix64. Fast, high-quality, and deterministic
/// across platforms (unlike std::mt19937's distributions, whose outputs are
/// not pinned by the standard).
class Rng {
 public:
  /// Seeds the generator; equal seeds produce identical streams.
  explicit Rng(uint64_t seed = 0x5eed5eed5eed5eedULL);

  // Next, NextBelow and NextDouble are inline: the sampler draws once per
  // admissible neighbor, and an out-of-line call per draw dominated the
  // metapath hop (DESIGN.md §8.3).

  /// Next raw 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, n). Requires n > 0.
  uint64_t NextBelow(uint64_t n) {
    assert(n > 0);
    // Lemire's nearly-divisionless bounded sampling with rejection.
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < n) [[unlikely]] {
      const uint64_t threshold = (0 - n) % n;
      while (l < threshold) {
        x = Next();
        m = static_cast<__uint128_t>(x) * n;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Standard normal via Box–Muller (one value per call, cached pair).
  double Gaussian();

  /// Gaussian with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Uniform integer index into a container of size `n`. Requires n > 0.
  size_t Index(size_t n) { return static_cast<size_t>(NextBelow(n)); }

  /// Bernoulli trial with probability `p` of returning true.
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Samples an index proportional to `weights` (linear scan). Weights must
  /// be non-negative with a positive sum; returns weights.size() - 1 on
  /// floating-point shortfall.
  size_t Weighted(const std::vector<double>& weights);

  /// Fisher–Yates shuffles `v` in place.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = Index(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent generator (for parallel or per-component
  /// streams) from this one's stream.
  Rng Split();

  /// Complete generator state, exposed so durable checkpoints can resume a
  /// stream mid-flight. The cached Box–Muller half must be captured too:
  /// dropping it would shift every subsequent Gaussian draw by one.
  struct State {
    uint64_t s[4];
    double cached_gaussian;
    bool has_cached_gaussian;
  };

  State state() const;
  void set_state(const State& st);

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

/// The `index`-th output of the SplitMix64 stream seeded with `seed`:
/// random-access per-shard seed derivation for parallel work. Shard s of a
/// sharded computation seeds its generator with SplitMix64At(seed, s), so
/// the derived streams are independent of each other, of the caller's
/// stream, and — crucially — of the thread count executing the shards.
uint64_t SplitMix64At(uint64_t seed, uint64_t index);

}  // namespace supa

#endif  // SUPA_UTIL_RNG_H_
