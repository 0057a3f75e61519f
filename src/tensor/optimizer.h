#pragma once
#include <cstdint>
#include <vector>

#include "src/core/status.h"
#include "src/tensor/autograd.h"
#include "src/tensor/matrix.h"

namespace adpa {

/// Adam's full internal state: the step counter that drives the bias
/// correction plus one pair of per-parameter moment matrices. Exporting and
/// restoring it mid-run is what makes training resume bitwise-exact
/// (src/train/trainer.h) — resuming with zeroed moments would converge to
/// different weights.
struct AdamState {
  int64_t step_count = 0;
  std::vector<Matrix> first_moment;
  std::vector<Matrix> second_moment;
};

/// Adam (Kingma & Ba) with decoupled-free classic L2 weight decay, matching
/// the configuration typically used to train GNN baselines. Every model
/// trains through TrainModel (src/train/trainer.h), which builds one.
class Adam {
 public:
  Adam(std::vector<ag::Variable> parameters, float learning_rate,
       float weight_decay = 0.0f, float beta1 = 0.9f, float beta2 = 0.999f,
       float epsilon = 1e-8f);

  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Clears all parameter gradients.
  void ZeroGrad();

  /// Applies one update using the gradients accumulated on the parameters.
  void Step();

  /// Deep copy of the moments and step counter.
  AdamState ExportState() const;

  /// Shape-checked restore; the state must come from an Adam over the same
  /// parameter list (count and shapes must match exactly).
  Status RestoreState(AdamState state);

 private:
  std::vector<ag::Variable> parameters_;
  float learning_rate_;
  float weight_decay_;
  float beta1_;
  float beta2_;
  float epsilon_;
  int64_t step_count_ = 0;
  std::vector<Matrix> first_moment_;
  std::vector<Matrix> second_moment_;
};

}  // namespace adpa
