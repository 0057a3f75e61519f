#pragma once
#include <cstdint>
#include <vector>

namespace adpa {

/// splitmix64 (Steele et al. 2014): advances `*state` by the golden-ratio
/// increment and returns the mixed word. Rng expands its seed with it; the
/// chaos schedule, the reservoir sampler and the soak tools draw from it
/// directly, so their streams are pure functions of a seed and independent
/// of Rng's stream layout.
uint64_t SplitMix64(uint64_t* state);

/// The complete internal state of an Rng: the four xoshiro256** words plus
/// the Box-Muller cache. Restoring it resumes the exact draw sequence —
/// the training-resume path (src/train/trainer.h) persists this so a
/// resumed run replays the same dropout masks bit for bit.
struct RngState {
  uint64_t words[4] = {0, 0, 0, 0};
  bool has_cached_normal = false;
  double cached_normal = 0.0;
};

/// Deterministic, fast pseudo-random generator (xoshiro256** seeded through
/// SplitMix64). Every stochastic component in the library draws from an
/// explicitly seeded Rng so experiments are reproducible bit-for-bit.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit word.
  uint64_t NextU64();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  int64_t UniformInt(int64_t n);

  /// Standard normal via Box-Muller (cached second draw).
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p);

  /// Samples an index from an unnormalized non-negative weight vector.
  /// Requires at least one positive weight.
  int64_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle of `values`.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (int64_t i = static_cast<int64_t>(values->size()) - 1; i > 0; --i) {
      int64_t j = UniformInt(i + 1);
      std::swap((*values)[i], (*values)[j]);
    }
  }

  /// Returns `count` distinct indices drawn uniformly from [0, n).
  std::vector<int64_t> SampleWithoutReplacement(int64_t n, int64_t count);

  /// Snapshot / restore of the full generator state (see RngState).
  RngState SaveState() const;
  void RestoreState(const RngState& state);

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace adpa

