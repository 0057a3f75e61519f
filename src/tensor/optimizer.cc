#include "src/tensor/optimizer.h"

#include <cmath>

#include "src/core/logging.h"

namespace adpa {

Adam::Adam(std::vector<ag::Variable> parameters, float learning_rate,
           float weight_decay, float beta1, float beta2, float epsilon)
    : parameters_(std::move(parameters)),
      learning_rate_(learning_rate),
      weight_decay_(weight_decay),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon) {
  first_moment_.reserve(parameters_.size());
  second_moment_.reserve(parameters_.size());
  for (const ag::Variable& p : parameters_) {
    first_moment_.emplace_back(p.value().rows(), p.value().cols());
    second_moment_.emplace_back(p.value().rows(), p.value().cols());
  }
}

void Adam::ZeroGrad() {
  for (ag::Variable& p : parameters_) p.ZeroGrad();
}

void Adam::Step() {
  ++step_count_;
  const float bias1 =
      1.0f - std::pow(beta1_, static_cast<float>(step_count_));
  const float bias2 =
      1.0f - std::pow(beta2_, static_cast<float>(step_count_));
  for (size_t k = 0; k < parameters_.size(); ++k) {
    ag::Variable& p = parameters_[k];
    if (p.grad().empty()) continue;
    Matrix* value = p.mutable_value();
    const Matrix& grad = p.grad();
    Matrix& m = first_moment_[k];
    Matrix& v = second_moment_[k];
    ADPA_DCHECK(grad.SameShape(*value))
        << "parameter/gradient shape mismatch in Adam::Step";
    ADPA_DCHECK(m.SameShape(*value))
        << "Adam moment shape diverged from its parameter (the parameter "
           "matrix was reshaped after optimizer construction)";
    ADPA_DCHECK(v.SameShape(*value));
    for (int64_t i = 0; i < value->size(); ++i) {
      const float g = grad.data()[i] + weight_decay_ * value->data()[i];
      m.data()[i] = beta1_ * m.data()[i] + (1.0f - beta1_) * g;
      v.data()[i] = beta2_ * v.data()[i] + (1.0f - beta2_) * g * g;
      const float m_hat = m.data()[i] / bias1;
      const float v_hat = v.data()[i] / bias2;
      value->data()[i] -=
          learning_rate_ * m_hat / (std::sqrt(v_hat) + epsilon_);
    }
  }
}

AdamState Adam::ExportState() const {
  AdamState state;
  state.step_count = step_count_;
  state.first_moment = first_moment_;
  state.second_moment = second_moment_;
  return state;
}

Status Adam::RestoreState(AdamState state) {
  if (state.first_moment.size() != parameters_.size() ||
      state.second_moment.size() != parameters_.size()) {
    return Status::InvalidArgument(
        "Adam state has " + std::to_string(state.first_moment.size()) + "/" +
        std::to_string(state.second_moment.size()) +
        " moment matrices but the optimizer tracks " +
        std::to_string(parameters_.size()) + " parameters");
  }
  if (state.step_count < 0) {
    return Status::InvalidArgument("Adam state has a negative step count");
  }
  for (size_t k = 0; k < parameters_.size(); ++k) {
    const Matrix& value = parameters_[k].value();
    if (!state.first_moment[k].SameShape(value) ||
        !state.second_moment[k].SameShape(value)) {
      return Status::InvalidArgument(
          "Adam state moment " + std::to_string(k) +
          " does not match its parameter shape (checkpoint from a "
          "different model configuration?)");
    }
  }
  step_count_ = state.step_count;
  first_moment_ = std::move(state.first_moment);
  second_moment_ = std::move(state.second_moment);
  return Status::OK();
}

}  // namespace adpa
