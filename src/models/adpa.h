#pragma once
#include <string>
#include <vector>

#include "src/graph/patterns.h"
#include "src/models/model.h"
#include "src/tensor/nn.h"

namespace adpa {

class Workspace;

/// The DP set ADPA propagates with under `config`: every pattern of order
/// ≤ `config.pattern_order`, or, when `config.select_patterns` > 0, the
/// strongest of them by correlation with the training labels (Sec. IV-B).
/// Depends only on the graph, labels, train split and those two fields.
std::vector<DirectedPattern> ChooseDpPatterns(const Dataset& dataset,
                                              const ModelConfig& config);

/// Training-free K-step DP-guided propagation (Eq. 9), the one
/// implementation shared by AdpaModel, GridSearch and serving.
/// blocks[l][g] is block g of step l+1: X^(0) first when
/// `config.initial_residual`, then G_g^(l+1) X for every pattern in order,
/// each num_nodes x feature_dim. Step l's blocks do not depend on K, so
/// the first K steps of a longer propagation are exactly a K-step one.
std::vector<std::vector<Matrix>> PropagateDp(
    const Dataset& dataset, const ModelConfig& config,
    const std::vector<DirectedPattern>& patterns);

/// Eq. 9 blocks as constant autograd leaves, indexed like PropagateDp's
/// result. ag::Backward only visits requires_grad nodes, so constant
/// leaves are never written after construction and models on any number
/// of threads may share one set.
using DpLeaves = std::vector<std::vector<ag::Variable>>;

/// Moves every block into an ag::Constant leaf (no copies).
DpLeaves ToDpLeaves(std::vector<std::vector<Matrix>> blocks);

/// The shapes AdpaModel::Parameters() has, in order, for a model built
/// with `config` over `num_patterns` DPs on a dataset of these dimensions,
/// computed without building the model. Serving checks a checkpoint
/// against it before allocating anything the checkpoint's config implies.
std::vector<ParameterShape> AdpaParameterShapes(const ModelConfig& config,
                                                int64_t num_patterns,
                                                int64_t num_nodes,
                                                int64_t feature_dim,
                                                int64_t num_classes);

/// ADPA — Adaptive Directed Pattern Aggregation (paper Sec. IV), the core
/// contribution. The model decouples propagation from training:
///
///  1. *DP-guided feature propagation* (Eq. 9, training-free, cached at
///     construction by PropagateDp above): for every directed pattern G_g
///     of order ≤ `config.pattern_order` and every step l = 1..K, compute
///     X_g^(l) = G_g X_g^(l-1), yielding K·k propagated blocks plus the
///     initial residual X^(0).
///  2. *Node-wise DP attention* (Eq. 10): per step l, fuse the k+1 blocks
///     with per-node weights into X̄^(l) ∈ R^{n×h}. Four interchangeable
///     variants (Original / Gate / Recursive / JK — Table VII).
///  3. *Node-wise hop attention* (Eq. 11): per-node softmax over the K
///     fused representations, X* = Σ_l W_hop[:,l] ⊙ X̄^(l).
///  4. MLP classifier on X*.
///
/// Ablation switches: `use_dp_attention = false` replaces step 2's weights
/// with a uniform average; `use_hop_attention = false` replaces step 3 with
/// a uniform average; `initial_residual = false` drops X^(0) from the
/// block list (Eq. 9's over-smoothing guard).
///
/// Steps 2–4 are written once, over an executor (ForwardOn): Forward runs
/// them on the autograd tape, Evaluate on Workspace slots.
///
/// ADPA accepts both AMDirected and AMUndirected inputs: on a symmetric
/// graph A = Aᵀ and the DP set degenerates gracefully.
class AdpaModel : public Model {
 public:
  AdpaModel(const Dataset& dataset, const ModelConfig& config, Rng* rng);

  /// Restore/serving path: propagate with exactly `patterns` instead of
  /// deriving a set from the dataset. Correlation-selected subsets
  /// (Sec. IV-B) depend on the training labels and split, so a checkpoint's
  /// recorded set cannot be safely re-derived at load time.
  AdpaModel(const Dataset& dataset, const ModelConfig& config,
            const std::vector<DirectedPattern>& patterns, Rng* rng);

  /// Precomputed path, which the other two constructors delegate to: uses
  /// the first K = `config.propagation_steps` steps of `leaves`, which
  /// must be ToDpLeaves(PropagateDp(...)) for `patterns` under the same
  /// propagation config at any K' ≥ K. The model aliases the leaves
  /// rather than copying them, so one set can back many models at once.
  AdpaModel(const Dataset& dataset, const ModelConfig& config,
            const std::vector<DirectedPattern>& patterns,
            const DpLeaves& leaves, Rng* rng);

  ag::Variable Forward(bool training, Rng* rng) override;
  std::vector<ag::Variable> Parameters() const override;

  /// Rows `nodes` (in range, may repeat; every row when null) of
  /// Forward(false)'s logits, bit for bit, computed without a tape in `ws`.
  /// The caller Resets `ws` between calls; a repeat with as many nodes then
  /// allocates only the result. Threads with their own `ws` may share the
  /// model.
  Matrix Evaluate(const std::vector<int64_t>* nodes, Workspace* ws) const;

  std::string name() const override { return "ADPA"; }

  /// Patterns actually used (k of them), for inspection/tests.
  const std::vector<DirectedPattern>& patterns() const { return patterns_; }
  int steps() const { return steps_; }

 private:
  /// Steps 2–4 on executor `ops` (TapeOps or WorkspaceOps in adpa.cc), which
  /// binds the node-indexed inputs and supplies every op; the template fixes
  /// which ops run and in what order (marian's `Node`: one op definition,
  /// forward kept apart from backward).
  template <typename Ops>
  typename Ops::Value ForwardOn(Ops& ops) const;

  /// The configured DP attention (Eq. 10) over the k+1 blocks of one step.
  template <typename Ops>
  typename Ops::Value FuseStep(Ops& ops,
                               const typename Ops::List& blocks) const;

  ModelConfig config_;
  std::vector<DirectedPattern> patterns_;
  int steps_;  // K
  // propagated_[l][g]: block g of step l (g = 0 is the initial residual),
  // aliasing the Eq. 9 leaves the model was built from.
  std::vector<std::vector<ag::Variable>> propagated_;

  // DP attention parameters (per variant; only the active set is created).
  ag::Variable dp_weights_;              // Original: n x (k+1) logits
  std::vector<nn::Linear> gate_layers_;  // Gate: one f->1 scorer per block
  std::vector<nn::Linear> recursive_layers_;  // Recursive: 2f->1, blocks 1..k
  nn::Mlp dp_fuse_;                      // (k+1)f -> h fusion MLP (Eq. 10)
  nn::Linear jk_fuse_;                   // JK variant: (k+1)f -> h linear

  // Hop attention (Eq. 11); built only when it runs (K > 1).
  nn::Linear hop_scorer_;  // K·h -> K
  nn::Mlp classifier_;     // h -> C
};

}  // namespace adpa

