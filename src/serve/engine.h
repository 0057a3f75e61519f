#pragma once
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/status.h"
#include "src/core/thread_annotations.h"
#include "src/data/dataset.h"
#include "src/io/checkpoint.h"
#include "src/models/adpa.h"
#include "src/tensor/matrix.h"

namespace adpa::serve {

/// Options for InferenceSession::Create.
struct EngineOptions {
  /// When non-empty, the Eq. 9 propagation precompute is read from this
  /// sidecar cache file if its content-hash key matches, and written there
  /// after a miss. A stale or unreadable cache is a miss, never an error.
  std::string propagation_cache_path;
};

/// No-tape ADPA inference over a restored checkpoint.
///
/// The session holds the trained AdpaModel itself, restored with
/// LoadCheckpointIntoModel on the Eq. 9 blocks it was trained with, and
/// answers with AdpaModel::Evaluate: the model's one Eq. 10/11 and
/// classifier definition run on a thread_local Workspace instead of the
/// autograd tape, so the logits are bitwise those of
/// `model.Forward(/*training=*/false, …)` — serve_test's differential sweep
/// asserts it across the ModelConfig space.
///
/// Because every stage is row-wise over nodes (matmuls contract over
/// feature columns; softmax/attention are per-row), `ForwardRows` on a node
/// subset equals the corresponding rows of `ForwardAll` bit for bit, which
/// is what makes cheap micro-batched point queries possible.
class InferenceSession {
 public:
  /// Validates the checkpoint against `dataset` (content hash, then every
  /// tensor shape against AdpaParameterShapes before anything is
  /// allocated), replays or cache-loads the K-step DP propagation, and
  /// restores the model on it.
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
  /// True when the Eq. 9 precompute came from the sidecar cache.
  bool used_propagation_cache() const { return used_propagation_cache_; }

  /// True when the sidecar cache existed but was corrupt/truncated and the
  /// session degraded to recompute-and-rewrite (DESIGN.md §10). A missing
  /// file or a key mismatch is an ordinary miss, not degradation.
  bool cache_degraded() const { return cache_degraded_; }

 private:
  InferenceSession() = default;

  /// The restored model; never written after Create, so concurrent const
  /// forwards may share it.
  std::unique_ptr<const AdpaModel> model_;
  int64_t num_nodes_ = 0;
  int64_t num_classes_ = 0;
  bool used_propagation_cache_ = false;
  bool cache_degraded_ = false;
};

/// The Eq. 9 precompute a session serves: exactly PropagateDp
/// (src/models/adpa.h), under the name serving callers already use.
inline std::vector<std::vector<Matrix>> ComputePropagationBlocks(
    const Dataset& dataset, const ModelConfig& config,
    const std::vector<DirectedPattern>& patterns) {
  return PropagateDp(dataset, config, patterns);
}

}  // namespace adpa::serve
