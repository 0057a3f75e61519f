#pragma once
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/status.h"
#include "src/core/thread_annotations.h"
#include "src/data/dataset.h"
#include "src/io/checkpoint.h"
#include "src/models/adpa.h"
#include "src/tensor/matrix.h"
#include "src/tensor/workspace.h"

namespace adpa::serve {

/// Options for InferenceSession::Create.
struct EngineOptions {
  /// When non-empty, the Eq. 9 propagation precompute is read from this
  /// sidecar cache file if its content-hash key matches, and (optionally)
  /// written there after a miss. A stale or unreadable cache is a miss,
  /// never an error.
  std::string propagation_cache_path;
  bool write_cache_on_miss = true;
  CheckpointLimits limits;
};

/// No-tape ADPA inference over a loaded checkpoint.
///
/// The training path builds an autograd graph (ag::Variable nodes) on every
/// forward; serving does not need gradients, so this engine re-implements
/// the eval-mode forward directly on Matrix kernels — zero Node
/// allocations, Dropout elided (it is the identity in eval mode). Every op
/// calls the *same* kernel the corresponding ag:: op's forward calls
/// (adpa::MatMul, AddRowBroadcast, adpa::ScaleRows, …), so the logits are
/// bitwise identical to `model.Forward(/*training=*/false, …)` — a property
/// serve_test asserts for all four DP-attention variants.
///
/// Because every stage is row-wise over nodes (matmuls contract over
/// feature columns; softmax/attention are per-row), `ForwardRows` on a node
/// subset equals the corresponding rows of `ForwardAll` bit for bit, which
/// is what makes cheap micro-batched point queries possible.
class InferenceSession {
 public:
  /// Validates the checkpoint against `dataset` (content hash, shapes),
  /// replays or cache-loads the K-step DP propagation, and binds every
  /// tensor to its role (mirroring AdpaModel::Parameters() order).
  static Result<InferenceSession> Create(const Checkpoint& checkpoint,
                                         const Dataset& dataset,
                                         const EngineOptions& options = {});

  /// Logits for every node (num_nodes x num_classes).
  Matrix ForwardAll() const;

  /// Logits for the given nodes, one row per entry of `nodes` (indices may
  /// repeat). Fails on out-of-range indices. ADPA_HOT: steady-state calls
  /// must stay allocation-free (tools/analyze.py enforces this).
  ADPA_HOT Result<Matrix> ForwardRows(const std::vector<int64_t>& nodes) const;

  /// Argmax classes for the given nodes (ties break to the lowest index).
  ADPA_HOT Result<std::vector<int64_t>> Classify(
      const std::vector<int64_t>& nodes) const;

  int64_t num_nodes() const { return num_nodes_; }
  int64_t num_classes() const { return num_classes_; }
  int steps() const { return steps_; }
  int64_t blocks_per_step() const { return blocks_per_step_; }
  /// True when the Eq. 9 precompute came from the sidecar cache.
  bool used_propagation_cache() const { return used_propagation_cache_; }

  /// True when the sidecar cache existed but was corrupt/truncated and the
  /// session degraded to recompute-and-rewrite (DESIGN.md §10). A missing
  /// file or a key mismatch is an ordinary miss, not degradation.
  bool cache_degraded() const { return cache_degraded_; }

 private:
  InferenceSession() = default;

  struct LinearParams {
    Matrix weight;  // in x out
    Matrix bias;    // 1 x out
  };

  /// Shared eval forward over borrowed block matrices; `dp_rows` is the
  /// per-node dp_weights slice for kOriginal (empty row set otherwise).
  /// Every intermediate lives in `ws` (the caller's per-thread workspace),
  /// so steady-state forwards perform zero heap allocations; helpers return
  /// pointers to workspace slots, valid until the workspace is Reset.
  Matrix ForwardBlocks(const std::vector<std::vector<const Matrix*>>& blocks,
                       const Matrix& dp_rows, Workspace* ws) const;
  Matrix* FuseStep(const std::vector<const Matrix*>& blocks,
                   const Matrix& dp_rows, Workspace* ws) const;
  Matrix* MlpForward(const std::vector<LinearParams>& layers,
                     const Matrix& input, Workspace* ws) const;

  ModelConfig config_;
  int steps_ = 0;
  int64_t blocks_per_step_ = 0;
  int64_t num_nodes_ = 0;
  int64_t num_classes_ = 0;
  bool used_propagation_cache_ = false;
  bool cache_degraded_ = false;

  /// blocks_[l][g]: block g of propagation step l (residual X^(0) first
  /// when config_.initial_residual), each num_nodes x feature_dim.
  std::vector<std::vector<Matrix>> blocks_;

  // Parameters, positionally bound from the checkpoint tensor list.
  Matrix dp_weights_;                          // kOriginal: n x B logits
  std::vector<LinearParams> gate_layers_;      // kGate
  std::vector<LinearParams> recursive_layers_; // kRecursive (index 0 unused)
  std::vector<LinearParams> dp_fuse_;          // fusion MLP (2 layers)
  LinearParams jk_fuse_;                       // kJk / kRecursive fusion
  LinearParams hop_scorer_;                    // Eq. 11 scorer
  std::vector<LinearParams> classifier_;       // head MLP
};

/// The Eq. 9 precompute a session serves: exactly PropagateDp
/// (src/models/adpa.h), under the name serving callers already use.
inline std::vector<std::vector<Matrix>> ComputePropagationBlocks(
    const Dataset& dataset, const ModelConfig& config,
    const std::vector<DirectedPattern>& patterns) {
  return PropagateDp(dataset, config, patterns);
}

}  // namespace adpa::serve
