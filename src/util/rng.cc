#include "util/rng.h"

#include <cassert>
#include <cmath>

namespace supa {
namespace {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = radius * std::sin(theta);
  has_cached_gaussian_ = true;
  return radius * std::cos(theta);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

size_t Rng::Weighted(const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = 0.0;
  for (double w : weights) total += w;
  double target = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::Split() { return Rng(Next()); }

Rng::State Rng::state() const {
  State st;
  for (int i = 0; i < 4; ++i) st.s[i] = s_[i];
  st.cached_gaussian = cached_gaussian_;
  st.has_cached_gaussian = has_cached_gaussian_;
  return st;
}

void Rng::set_state(const State& st) {
  for (int i = 0; i < 4; ++i) s_[i] = st.s[i];
  cached_gaussian_ = st.cached_gaussian;
  has_cached_gaussian_ = st.has_cached_gaussian;
}

uint64_t SplitMix64At(uint64_t seed, uint64_t index) {
  // SplitMix64 advances its state by a fixed odd constant per draw, so the
  // index-th state is reachable directly with one multiply.
  uint64_t state = seed + index * 0x9e3779b97f4a7c15ULL;
  return SplitMix64(state);
}

}  // namespace supa
