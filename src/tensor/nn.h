#pragma once
#include <cstdint>
#include <string>
#include <vector>

#include "src/tensor/autograd.h"
#include "src/tensor/matrix.h"

namespace adpa {

class Rng;

namespace nn {

/// Glorot/Xavier uniform initialization: U[-√(6/(fan_in+fan_out)), +…].
Matrix GlorotUniform(int64_t fan_in, int64_t fan_out, Rng* rng);

/// Affine layer y = x W + b with Glorot-initialized W and zero bias.
class Linear {
 public:
  Linear() = default;
  Linear(int64_t in_features, int64_t out_features, Rng* rng,
         bool bias = true);

  ag::Variable Forward(const ag::Variable& x) const;

  /// Trainable parameters (W, then b if present).
  std::vector<ag::Variable> Parameters() const;

  int64_t in_features() const { return weight_.defined() ? weight_.rows() : 0; }

  /// W (in x out) and b (1 x out; undefined when built without a bias).
  const ag::Variable& weight() const { return weight_; }
  const ag::Variable& bias() const { return bias_; }

 private:
  ag::Variable weight_;
  ag::Variable bias_;
};

/// Multi-layer perceptron: `num_layers` Linear layers with hidden width
/// `hidden`, ReLU + dropout between layers, no activation after the last
/// layer. With num_layers == 1 this is a single Linear.
class Mlp {
 public:
  Mlp() = default;
  Mlp(int64_t in_features, int64_t hidden, int64_t out_features,
      int num_layers, Rng* rng, float dropout = 0.0f);

  /// `training` toggles dropout; `rng` is needed only when training.
  ag::Variable Forward(const ag::Variable& x, bool training, Rng* rng) const;

  std::vector<ag::Variable> Parameters() const;

  int num_layers() const { return static_cast<int>(layers_.size()); }
  const std::vector<Linear>& layers() const { return layers_; }

 private:
  std::vector<Linear> layers_;
  float dropout_ = 0.0f;
};

}  // namespace nn
}  // namespace adpa

