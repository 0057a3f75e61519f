#pragma once
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/core/logging.h"
#include "src/graph/sparse_matrix.h"
#include "src/tensor/matrix.h"

namespace adpa {

class Rng;

namespace ag {

/// A node of the define-by-run autograd tape. Users interact through
/// `Variable`; nodes are reference-counted and freed when the last Variable
/// of a forward pass goes out of scope. The backward closure only captures
/// *parent* nodes, never the node itself, so there are no reference cycles.
struct Node {
  Matrix value;
  Matrix grad;  // allocated lazily on first accumulation
  bool requires_grad = false;
  /// Static op tag ("leaf" for Parameter/Constant). The tape analyzer
  /// (src/tensor/tape_analysis.h) keys its per-op shape rules on this.
  const char* op = "leaf";
  std::vector<std::shared_ptr<Node>> parents;
  /// Accumulates gradients into the parents given this node's output grad.
  std::function<void(const Matrix& grad_out)> backward;

  /// Adds `delta` into `grad`, allocating it on first use.
  void AccumulateGrad(const Matrix& delta);
};

/// Shared handle to a tape node. Copying a Variable aliases the same node.
/// All accessors DCHECK `defined()` first, so a default-constructed
/// Variable fails loudly in debug/sanitizer builds instead of dereferencing
/// a null node.
class Variable {
 public:
  Variable() = default;
  explicit Variable(std::shared_ptr<Node> node) : node_(std::move(node)) {}

  bool defined() const { return node_ != nullptr; }
  const Matrix& value() const {
    DcheckDefined();
    return node_->value;
  }
  const Matrix& grad() const {
    DcheckDefined();
    return node_->grad;
  }
  bool requires_grad() const {
    DcheckDefined();
    return node_->requires_grad;
  }
  int64_t rows() const {
    DcheckDefined();
    return node_->value.rows();
  }
  int64_t cols() const {
    DcheckDefined();
    return node_->value.cols();
  }

  std::shared_ptr<Node> node() const { return node_; }

  /// Clears the accumulated gradient (optimizers call this between steps).
  void ZeroGrad();

  /// Replaces the stored value (used by optimizers applying updates).
  Matrix* mutable_value() {
    DcheckDefined();
    return &node_->value;
  }

 private:
  void DcheckDefined() const {
    ADPA_DCHECK(defined()) << "access through a default-constructed Variable";
  }

  std::shared_ptr<Node> node_;
};

/// Leaf with requires_grad = true (a trainable parameter).
Variable Parameter(Matrix value);

/// Leaf with requires_grad = false (data / precomputed features).
Variable Constant(Matrix value);

/// c = a + b (same shapes).
Variable Add(const Variable& a, const Variable& b);

/// c = a - b.
Variable Sub(const Variable& a, const Variable& b);

/// c = a ⊙ b (Hadamard).
Variable Mul(const Variable& a, const Variable& b);

/// c = factor * a.
Variable Scale(const Variable& a, float factor);

/// c = a @ b.
Variable MatMul(const Variable& a, const Variable& b);

/// c = aᵀ @ b (without materializing aᵀ); used by low-rank global
/// attention (Gram-style mixing).
Variable MatMulTransposeA(const Variable& a, const Variable& b);

/// c = a + bias, where bias is a 1 x cols row vector broadcast over rows.
Variable AddBias(const Variable& a, const Variable& bias);

/// c = A @ x for a constant sparse operator A (graph convolution step).
/// Gradient: dL/dx = Aᵀ (dL/dc).
Variable SpMM(const SparseMatrix& a, const Variable& x);

/// Activations.
Variable Relu(const Variable& a);
Variable Sigmoid(const Variable& a);

/// Inverted dropout: at train time zeroes entries with probability `p` and
/// rescales survivors by 1/(1-p); identity at eval time. The mask is drawn
/// from `rng` (one Bernoulli per entry), so re-seeding the Rng reproduces
/// the mask exactly — the gradcheck harness relies on this to hold the mask
/// fixed across finite-difference evaluations (see src/tensor/gradcheck.h).
Variable Dropout(const Variable& a, float p, bool training, Rng* rng);

/// Samples the inverted-dropout mask Dropout would apply: entries are 0
/// with probability `p` and 1/(1-p) otherwise. Exposed so tests can
/// precompute a mask once and apply it deterministically.
Matrix DropoutMask(int64_t rows, int64_t cols, float p, Rng* rng);

/// Applies a precomputed dropout mask (same shape as `a`). Dropout is
/// exactly DropoutWithMask(a, DropoutMask(...)); calling this directly
/// makes the op a deterministic function of its inputs, which is what the
/// fixed-mask gradcheck entry exercises.
Variable DropoutWithMask(const Variable& a, const Matrix& mask);

/// Column-wise concatenation [a0 | a1 | ...].
Variable ConcatCols(const std::vector<Variable>& parts);

/// Columns [begin, end) of a.
Variable SliceCols(const Variable& a, int64_t begin, int64_t end);

/// Scales row r of `a` by scalar s(r, 0); `scales` must be rows x 1.
/// This is the primitive behind node-wise attention weighting.
Variable ScaleRows(const Variable& a, const Variable& scales);

/// Row r of c is row rows[r] of `a` (each index in [0, a.rows()); repeats
/// allowed). Gradient: each row of dL/dc is added into row rows[r] of an
/// a.rows() x cols zero matrix, in increasing r.
Variable GatherRows(const Variable& a, const std::vector<int64_t>& rows);

/// c = s * a where `s` is a trainable 1x1 scalar variable (used for
/// learnable propagation coefficients, e.g. GPR-GNN's γ_k).
Variable ScaleScalar(const Variable& a, const Variable& s);

/// Row-wise softmax (used for attention weight normalization).
Variable SoftmaxRows(const Variable& a);

/// Sum of all entries, as a 1x1 variable.
Variable SumAll(const Variable& a);

/// Mean cross-entropy over the rows selected by `mask_indices`:
/// L = -(1/|M|) Σ_{i∈M} log softmax(logits_i)[labels_i]. Returns 1x1.
Variable MaskedCrossEntropy(const Variable& logits,
                            const std::vector<int64_t>& labels,
                            const std::vector<int64_t>& mask_indices);

/// Runs reverse-mode accumulation from `root` (typically the 1x1 loss).
/// Seeds d(root)/d(root) = 1. Parameter gradients accumulate across calls
/// until ZeroGrad, matching standard deep-learning framework semantics.
void Backward(const Variable& root);

}  // namespace ag
}  // namespace adpa

