#include "src/tensor/nn.h"

#include <cmath>

#include "src/core/logging.h"
#include "src/core/random.h"

namespace adpa {
namespace nn {

Matrix GlorotUniform(int64_t fan_in, int64_t fan_out, Rng* rng) {
  const float limit =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return Matrix::RandomUniform(fan_in, fan_out, rng, -limit, limit);
}

Linear::Linear(int64_t in_features, int64_t out_features, Rng* rng,
               bool bias) {
  ADPA_CHECK_GT(in_features, 0);
  ADPA_CHECK_GT(out_features, 0);
  weight_ = ag::Parameter(GlorotUniform(in_features, out_features, rng));
  if (bias) bias_ = ag::Parameter(Matrix(1, out_features));
}

ag::Variable Linear::Forward(const ag::Variable& x) const {
  ADPA_CHECK(weight_.defined());
  ag::Variable out = ag::MatMul(x, weight_);
  if (bias_.defined()) out = ag::AddBias(out, bias_);
  return out;
}

std::vector<ag::Variable> Linear::Parameters() const {
  std::vector<ag::Variable> params = {weight_};
  if (bias_.defined()) params.push_back(bias_);
  return params;
}

Mlp::Mlp(int64_t in_features, int64_t hidden, int64_t out_features,
         int num_layers, Rng* rng, float dropout)
    : dropout_(dropout) {
  ADPA_CHECK_GE(num_layers, 1);
  if (num_layers == 1) {
    layers_.emplace_back(in_features, out_features, rng);
    return;
  }
  layers_.emplace_back(in_features, hidden, rng);
  for (int i = 0; i < num_layers - 2; ++i) {
    layers_.emplace_back(hidden, hidden, rng);
  }
  layers_.emplace_back(hidden, out_features, rng);
}

ag::Variable Mlp::Forward(const ag::Variable& x, bool training,
                          Rng* rng) const {
  ADPA_CHECK(!layers_.empty());
  ag::Variable h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].Forward(h);
    if (i + 1 < layers_.size()) {
      h = ag::Relu(h);
      h = ag::Dropout(h, dropout_, training, rng);
    }
  }
  return h;
}

std::vector<ag::Variable> Mlp::Parameters() const {
  std::vector<ag::Variable> params;
  for (const Linear& layer : layers_) {
    for (const ag::Variable& p : layer.Parameters()) params.push_back(p);
  }
  return params;
}

}  // namespace nn
}  // namespace adpa
