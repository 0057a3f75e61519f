#pragma once
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/tensor/autograd.h"

namespace adpa {

class Rng;
class Workspace;

/// Node-wise attention variants for ADPA's DP attention (Table VII).
enum class DpAttention { kOriginal, kGate, kRecursive, kJk };

/// Shared hyperparameter bag for all models. Fields a model does not use
/// are ignored; the factory documents which models read which knobs.
struct ModelConfig {
  int64_t hidden = 64;
  int num_layers = 2;        ///< MLP / stacked-conv depth
  float dropout = 0.5f;
  int propagation_steps = 2; ///< K (SGC power, GPR steps, ADPA hops, ...)
  int pattern_order = 2;     ///< max DP order for ADPA / A2DUG (1..5)
  double conv_r = 0.5;       ///< Eq. (1) normalization exponent
  float alpha = 0.1f;        ///< teleport/PPR coefficient (DiGCN, GloGNN)
  float magnet_q = 0.25f;    ///< magnetic Laplacian phase parameter
  // ADPA switches (Sec. IV-C + ablations):
  DpAttention dp_attention = DpAttention::kOriginal;
  bool use_dp_attention = true;
  bool use_hop_attention = true;
  bool initial_residual = true;
  /// If > 0, keep only this many DP operators, ranked by their correlation
  /// r(G_d, N) with the *training* labels (the Sec. IV-B selection rule);
  /// 0 uses the full k-order enumeration.
  int select_patterns = 0;
  /// Add self loops to the DP propagation operators. Off by default:
  /// the initial residual X^(0) already carries self-information, and
  /// keeping neighborhoods self-free preserves the directional signal
  /// under heterophily (the H2GCN ego/neighbor separation argument).
  bool propagation_self_loops = false;
};

/// Rows x cols of one trainable parameter.
struct ParameterShape {
  int64_t rows = 0;
  int64_t cols = 0;
  friend bool operator==(const ParameterShape&,
                         const ParameterShape&) = default;
};

/// Common interface: a model is bound to one dataset at construction (it
/// precomputes whatever operators it needs) and exposes a differentiable
/// forward pass producing n x C logits.
class Model {
 public:
  virtual ~Model() = default;

  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  /// Full-batch forward pass. `training` toggles dropout; `rng` must be
  /// non-null when training.
  virtual ag::Variable Forward(bool training, Rng* rng) = 0;

  /// Training-mode logits of `rows`, which ascend and are distinct: row r is
  /// node rows[r]. A loss over these rows back-propagates the same
  /// parameter gradients, and draws the same `rng` stream, as that loss over
  /// the same rows of Forward(true, rng). The default gathers them from that
  /// full-batch Forward; a model whose rows are independent computes only
  /// these.
  virtual ag::Variable TrainLogits(const std::vector<int64_t>& rows,
                                   Rng* rng) {
    return ag::GatherRows(Forward(/*training=*/true, rng), rows);
  }

  /// Eval-mode logits of `rows` (in range), bit for bit the same rows of
  /// Forward(false, nullptr). `ws` is scratch a model may reuse across
  /// calls; the caller Resets it between them. The default gathers the rows
  /// from that full-batch Forward and leaves `ws` untouched.
  virtual Matrix EvalLogits(const std::vector<int64_t>& rows,
                            Workspace* /*ws*/) {
    Matrix logits;
    GatherRowsInto(Forward(/*training=*/false, nullptr).value(), rows,
                   &logits);
    return logits;
  }

  /// All trainable parameters.
  virtual std::vector<ag::Variable> Parameters() const = 0;

  virtual std::string name() const = 0;

 protected:
  Model() = default;
};

using ModelPtr = std::unique_ptr<Model>;

}  // namespace adpa

