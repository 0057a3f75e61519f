#include "src/core/random.h"

#include <cmath>
#include <numbers>

#include "src/core/logging.h"

namespace adpa {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

uint64_t RotL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (uint64_t& word : state_) word = SplitMix64(&sm);
}

uint64_t Rng::NextU64() {
  const uint64_t result = RotL(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = RotL(state_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 high bits give a uniform double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

int64_t Rng::UniformInt(int64_t n) {
  ADPA_CHECK_GT(n, 0);
  // Rejection sampling to remove modulo bias.
  const uint64_t un = static_cast<uint64_t>(n);
  const uint64_t limit = UINT64_MAX - UINT64_MAX % un;
  uint64_t draw;
  do {
    draw = NextU64();
  } while (draw >= limit);
  return static_cast<int64_t>(draw % un);
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = Uniform();
  while (u1 <= 1e-300) u1 = Uniform();
  const double u2 = Uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

int64_t Rng::Categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    ADPA_CHECK_GE(w, 0.0);
    total += w;
  }
  ADPA_CHECK_GT(total, 0.0);
  double draw = Uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    draw -= weights[i];
    if (draw < 0.0) return static_cast<int64_t>(i);
  }
  return static_cast<int64_t>(weights.size()) - 1;
}

std::vector<int64_t> Rng::SampleWithoutReplacement(int64_t n, int64_t count) {
  ADPA_CHECK_GE(n, count);
  std::vector<int64_t> indices(n);
  for (int64_t i = 0; i < n; ++i) indices[i] = i;
  // Partial Fisher-Yates: only the first `count` positions are needed.
  for (int64_t i = 0; i < count; ++i) {
    int64_t j = i + UniformInt(n - i);
    std::swap(indices[i], indices[j]);
  }
  indices.resize(count);
  return indices;
}

RngState Rng::SaveState() const {
  RngState state;
  for (int i = 0; i < 4; ++i) state.words[i] = state_[i];
  state.has_cached_normal = has_cached_normal_;
  state.cached_normal = cached_normal_;
  return state;
}

void Rng::RestoreState(const RngState& state) {
  for (int i = 0; i < 4; ++i) state_[i] = state.words[i];
  has_cached_normal_ = state.has_cached_normal;
  cached_normal_ = state.cached_normal;
}

}  // namespace adpa
