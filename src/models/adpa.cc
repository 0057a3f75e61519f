#include "src/models/adpa.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/amud/amud.h"
#include "src/core/logging.h"
#include "src/core/random.h"
#include "src/tensor/workspace.h"

namespace adpa {

std::vector<DirectedPattern> ChooseDpPatterns(const Dataset& dataset,
                                              const ModelConfig& config) {
  const int max_order = std::max(1, config.pattern_order);
  if (config.select_patterns <= 0 || dataset.train_idx.size() < 2) {
    return EnumeratePatterns(max_order);
  }
  // Sec. IV-B: rank DPs by their correlation with the labeled subset and
  // keep the strongest. Falls back to the full enumeration on failure.
  Result<std::vector<DirectedPattern>> selected =
      SelectPatternsByCorrelation(dataset.graph, dataset.labels,
                                  dataset.train_idx, max_order,
                                  config.select_patterns);
  return selected.ok() ? *selected : EnumeratePatterns(max_order);
}

std::vector<std::vector<Matrix>> PropagateDp(
    const Dataset& dataset, const ModelConfig& config,
    const std::vector<DirectedPattern>& patterns) {
  const int steps = std::max(1, config.propagation_steps);
  const int64_t k = static_cast<int64_t>(patterns.size());
  PatternSet pattern_set(dataset.graph.AdjacencyMatrix(), config.conv_r,
                         config.propagation_self_loops);
  // Iterated per-pattern states X_g^(l) = G_g X_g^(l-1).
  std::vector<Matrix> state(k, dataset.features);
  std::vector<std::vector<Matrix>> blocks(steps);
  for (int l = 0; l < steps; ++l) {
    if (config.initial_residual) blocks[l].push_back(dataset.features);
    pattern_set.ApplyStep(patterns, &state);
    for (int64_t g = 0; g < k; ++g) blocks[l].push_back(state[g]);
  }
  return blocks;
}

DpLeaves ToDpLeaves(std::vector<std::vector<Matrix>> blocks) {
  DpLeaves leaves(blocks.size());
  for (size_t l = 0; l < blocks.size(); ++l) {
    for (Matrix& block : blocks[l]) {
      leaves[l].push_back(ag::Constant(std::move(block)));
    }
  }
  return leaves;
}

std::vector<ParameterShape> AdpaParameterShapes(const ModelConfig& config,
                                                int64_t num_patterns,
                                                int64_t num_nodes,
                                                int64_t feature_dim,
                                                int64_t num_classes) {
  // Mirrors the constructor below, member by member in Parameters() order.
  const int64_t f = feature_dim;
  const int64_t h = config.hidden;
  const int64_t steps = std::max(1, config.propagation_steps);
  const int64_t blocks_per_step =
      num_patterns + (config.initial_residual ? 1 : 0);
  const bool attends = config.use_dp_attention;
  std::vector<ParameterShape> shapes;
  const auto linear = [&shapes](int64_t in, int64_t out) {
    shapes.push_back({in, out});
    shapes.push_back({1, out});
  };
  if (attends && config.dp_attention == DpAttention::kOriginal) {
    shapes.push_back({num_nodes, blocks_per_step});
  }
  if (attends && config.dp_attention == DpAttention::kGate) {
    for (int64_t g = 0; g < blocks_per_step; ++g) linear(f, 1);
  }
  if (attends && config.dp_attention == DpAttention::kRecursive) {
    for (int64_t g = 1; g < blocks_per_step; ++g) linear(2 * f, 1);
    linear(f, h);  // jk_fuse_
  } else if (attends && config.dp_attention == DpAttention::kJk) {
    linear(blocks_per_step * f, h);  // jk_fuse_
  } else {
    linear(blocks_per_step * f, h);  // dp_fuse_
    linear(h, h);
  }
  if (config.use_hop_attention && steps > 1) linear(steps * h, steps);
  const int classifier_layers = std::max(1, config.num_layers - 1);
  for (int i = 0; i < classifier_layers; ++i) {
    linear(h, i + 1 == classifier_layers ? num_classes : h);
  }
  return shapes;
}

AdpaModel::AdpaModel(const Dataset& dataset, const ModelConfig& config,
                     Rng* rng)
    : AdpaModel(dataset, config, ChooseDpPatterns(dataset, config), rng) {}

AdpaModel::AdpaModel(const Dataset& dataset, const ModelConfig& config,
                     const std::vector<DirectedPattern>& patterns, Rng* rng)
    : AdpaModel(dataset, config, patterns,
                ToDpLeaves(PropagateDp(dataset, config, patterns)), rng) {}

AdpaModel::AdpaModel(const Dataset& dataset, const ModelConfig& config,
                     const std::vector<DirectedPattern>& patterns,
                     const DpLeaves& leaves, Rng* rng)
    : config_(config),
      patterns_(patterns),
      steps_(std::max(1, config.propagation_steps)) {
  const int64_t f = dataset.feature_dim();
  const int64_t n = dataset.num_nodes();
  const int64_t k = static_cast<int64_t>(patterns_.size());
  const int64_t blocks_per_step =
      k + (config_.initial_residual ? 1 : 0);

  // --- Stage 1: the first K steps of the Eq. 9 leaves. ---
  ADPA_CHECK(static_cast<int64_t>(leaves.size()) >= steps_)
      << "Eq. 9 leaves cover " << leaves.size() << " steps, model needs "
      << steps_;
  propagated_.assign(leaves.begin(), leaves.begin() + steps_);
  for (const std::vector<ag::Variable>& step : propagated_) {
    ADPA_CHECK(static_cast<int64_t>(step.size()) == blocks_per_step)
        << "Eq. 9 leaves have " << step.size() << " blocks per step, model "
        << "needs " << blocks_per_step;
  }

  // --- Stage 2 parameters: node-wise DP attention (Eq. 10). ---
  if (config_.use_dp_attention) {
    switch (config_.dp_attention) {
      case DpAttention::kOriginal:
        dp_weights_ = ag::Parameter(Matrix(n, blocks_per_step));
        break;
      case DpAttention::kGate:
        for (int64_t g = 0; g < blocks_per_step; ++g) {
          gate_layers_.emplace_back(f, 1, rng);
        }
        break;
      case DpAttention::kRecursive:
        for (int64_t g = 1; g < blocks_per_step; ++g) {
          recursive_layers_.emplace_back(2 * f, 1, rng);
        }
        break;
      case DpAttention::kJk:
        break;  // fusion layer only
    }
  }
  if (config_.use_dp_attention && config_.dp_attention == DpAttention::kJk) {
    jk_fuse_ = nn::Linear(blocks_per_step * f, config.hidden, rng);
  } else if (config_.dp_attention == DpAttention::kRecursive &&
             config_.use_dp_attention) {
    // Recursive attention accumulates into a single f-wide state.
    jk_fuse_ = nn::Linear(f, config.hidden, rng);
  } else {
    dp_fuse_ = nn::Mlp(blocks_per_step * f, config.hidden, config.hidden,
                       /*num_layers=*/2, rng, config.dropout);
  }

  // --- Stage 3 parameters: node-wise hop attention (Eq. 11). ---
  if (config_.use_hop_attention && steps_ > 1) {
    hop_scorer_ = nn::Linear(steps_ * config.hidden, steps_, rng);
  }
  classifier_ = nn::Mlp(config.hidden, config.hidden, dataset.num_classes,
                        std::max(1, config.num_layers - 1), rng,
                        config.dropout);
}

namespace {

/// Tape executor: each op is the ag:: op, so a pass records its backward.
/// tools/analyze.py matches calls by name, so ForwardRows reaches these ops
/// through WorkspaceOps' ops of the same names: false edges, waived at each
/// call into ag::.
struct TapeOps {
  using Value = ag::Variable;
  using List = std::vector<ag::Variable>;

  const DpLeaves& leaves;
  const Value& dp_weights;
  bool training;
  Rng* rng;

  const List& Blocks(int step) { return leaves[step]; }
  const Value& DpWeights() { return dp_weights; }
  // A temporary; ForwardOn binds lists with auto&&, so a pooled one works too.
  List NewList(int64_t size) { return List(static_cast<size_t>(size)); }

  // Tape values are immutable, so a copy is the value itself.
  Value Copy(const Value& x) { return x; }
  Value Affine(const nn::Linear& layer, const Value& x) {
    return layer.Forward(x);  // analyze:allow(alloc): tape op, a false edge from ForwardRows
  }
  Value AddTo(const Value& acc, const Value& x) {
    return ag::Add(acc, x);  // analyze:allow(alloc): tape op, a false edge from ForwardRows
  }
  Value ScaleBy(const Value& x, float factor) {
    return ag::Scale(x, factor);  // analyze:allow(alloc): tape op, a false edge from ForwardRows
  }
  Value ReluOp(const Value& x) {
    return ag::Relu(x);  // analyze:allow(alloc): tape op, a false edge from ForwardRows
  }
  Value SigmoidOp(const Value& x) {
    return ag::Sigmoid(x);  // analyze:allow(alloc): tape op, a false edge from ForwardRows
  }
  Value Concat(const List& parts) {
    return ag::ConcatCols(parts);  // analyze:allow(alloc): tape op, a false edge from ForwardRows
  }
  Value Column(const Value& x, int64_t c) {
    return ag::SliceCols(x, c, c + 1);  // analyze:allow(alloc): tape op, a false edge from ForwardRows
  }
  Value WeighRows(const Value& x, const Value& w) {
    return ag::ScaleRows(x, w);  // analyze:allow(alloc): tape op, a false edge from ForwardRows
  }
  Value SoftmaxOp(const Value& x) {
    return ag::SoftmaxRows(x);  // analyze:allow(alloc): tape op, a false edge from ForwardRows
  }
  Value DropoutOp(const Value& x, float p) {
    return ag::Dropout(x, p, training, rng);  // analyze:allow(alloc): tape op, a false edge from ForwardRows
  }
};

/// Workspace executor: each op runs its TapeOps op's forward kernel into a
/// Workspace slot, so eval values match bit for bit; Dropout is the identity.
/// Only a Value operand, a slot filled here that the definition reads no
/// more, is overwritten in place; inputs are bound `const`, never written.
struct WorkspaceOps {
  using Value = Matrix*;
  using List = std::vector<const Matrix*>;

  const DpLeaves& leaves;
  const ag::Variable& dp_weights;
  const std::vector<int64_t>* nodes;  // rows to bind; null binds all rows
  Workspace* ws;

  const List& Blocks(int step) {
    List& blocks = NewList(static_cast<int64_t>(leaves[step].size()));
    for (size_t g = 0; g < blocks.size(); ++g) {
      blocks[g] = Bind(leaves[step][g].value());
    }
    return blocks;
  }
  const Matrix* DpWeights() { return Bind(dp_weights.value()); }
  List& NewList(int64_t size) { return ws->AcquireList(size); }
  // Input rows: the leaf itself, or rows `nodes` gathered into a slot.
  const Matrix* Bind(const Matrix& leaf) {
    if (nodes == nullptr) return &leaf;
    Value rows = ws->Acquire(static_cast<int64_t>(nodes->size()), leaf.cols());
    GatherRowsInto(leaf, *nodes, rows);
    return rows;
  }

  Value Copy(const Matrix* x) {
    Value out = ws->Acquire(x->rows(), x->cols());
    *out = *x;
    return out;
  }
  Value Affine(const nn::Linear& layer, const Matrix* x) {
    const Matrix& weight = layer.weight().value();
    Value out = ws->Acquire(x->rows(), weight.cols());
    MatMulInto(*x, weight, out);
    if (layer.bias().defined()) {
      AddRowBroadcastInPlace(out, layer.bias().value());
    }
    return out;
  }
  Value AddTo(Value acc, const Matrix* x) {
    acc->AddInPlace(*x);
    return acc;
  }
  Value ScaleBy(Value x, float factor) {
    x->ScaleInPlace(factor);
    return x;
  }
  // The ag::Relu / ag::Sigmoid expressions, over the same ApplyFn loop.
  Value ReluOp(Value x) {
    x->ApplyFn([](float v) { return v > 0.0f ? v : 0.0f; });
    return x;
  }
  Value SigmoidOp(Value x) {
    x->ApplyFn([](float v) { return 1.0f / (1.0f + std::exp(-v)); });
    return x;
  }
  Value Concat(const List& parts) {
    int64_t cols = 0;
    for (const Matrix* part : parts) cols += part->cols();
    Value out = ws->Acquire(parts[0]->rows(), cols);
    ConcatColsInto(parts, out);
    return out;
  }
  Value Column(const Matrix* x, int64_t c) {
    Value out = ws->Acquire(x->rows(), 1);
    SliceColsInto(*x, c, c + 1, out);
    return out;
  }
  Value WeighRows(const Matrix* x, const Matrix* w) {
    Value out = ws->Acquire(x->rows(), x->cols());
    ScaleRowsInto(*x, *w, out);
    return out;
  }
  Value SoftmaxOp(const Matrix* x) {
    Value out = ws->Acquire(x->rows(), x->cols());
    SoftmaxRowsInto(*x, out);
    return out;
  }
  Value DropoutOp(Value x, float /*p*/) { return x; }
};

/// nn::Mlp::Forward for AdpaModel's MLPs, which use the default ReLU: the
/// activation and then dropout between layers, nothing after the last.
template <typename Ops>
typename Ops::Value MlpOn(Ops& ops, const nn::Mlp& mlp,
                          typename Ops::Value x, float dropout) {
  const std::vector<nn::Linear>& layers = mlp.layers();
  for (size_t i = 0; i < layers.size(); ++i) {
    x = ops.Affine(layers[i], x);
    if (i + 1 < layers.size()) x = ops.DropoutOp(ops.ReluOp(x), dropout);
  }
  return x;
}

}  // namespace

template <typename Ops>
typename Ops::Value AdpaModel::FuseStep(
    Ops& ops, const typename Ops::List& blocks) const {
  const int64_t num_blocks = static_cast<int64_t>(blocks.size());
  const bool attends = config_.use_dp_attention;
  if (attends && config_.dp_attention == DpAttention::kRecursive) {
    // GAMLP-style recursive attention: each block is gated against the
    // running accumulated representation.
    typename Ops::Value acc = ops.Copy(blocks[0]);
    for (int64_t g = 1; g < num_blocks; ++g) {
      auto&& pair = ops.NewList(2);
      pair[0] = blocks[g];
      pair[1] = acc;
      typename Ops::Value score = ops.SigmoidOp(
          ops.Affine(recursive_layers_[g - 1], ops.Concat(pair)));
      acc = ops.AddTo(acc, ops.WeighRows(blocks[g], score));
    }
    return ops.ReluOp(ops.Affine(jk_fuse_, acc));
  }
  if (attends && config_.dp_attention == DpAttention::kJk) {
    // Jumping-knowledge fusion: unweighted concatenation + linear.
    return ops.ReluOp(ops.Affine(jk_fuse_, ops.Concat(blocks)));
  }
  // The other three run the fusion MLP over a concatenation of k+1 parts.
  auto&& parts = ops.NewList(num_blocks);
  if (!attends) {
    // Ablation: uniform average of blocks, replicated to keep the fusion
    // MLP's parameter shapes unchanged.
    typename Ops::Value mean = ops.Copy(blocks[0]);
    for (int64_t g = 1; g < num_blocks; ++g) {
      mean = ops.AddTo(mean, blocks[g]);
    }
    mean = ops.ScaleBy(mean, 1.0f / static_cast<float>(num_blocks));
    for (auto& part : parts) part = mean;
  } else if (config_.dp_attention == DpAttention::kOriginal) {
    // Eq. (10): learnable per-node, per-block weights, softmax-normalized
    // across blocks.
    typename Ops::Value weights = ops.SoftmaxOp(ops.DpWeights());
    for (int64_t g = 0; g < num_blocks; ++g) {
      parts[g] = ops.WeighRows(blocks[g], ops.Column(weights, g));
    }
  } else {
    // kGate: a per-block sigmoid gate computed from the block itself.
    for (int64_t g = 0; g < num_blocks; ++g) {
      parts[g] = ops.WeighRows(
          blocks[g], ops.SigmoidOp(ops.Affine(gate_layers_[g], blocks[g])));
    }
  }
  return ops.ReluOp(
      MlpOn(ops, dp_fuse_, ops.Concat(parts), config_.dropout));
}

template <typename Ops>
typename Ops::Value AdpaModel::ForwardOn(Ops& ops) const {
  // Stage 2: fuse the k+1 blocks of every step.
  auto&& fused = ops.NewList(steps_);
  for (int l = 0; l < steps_; ++l) fused[l] = FuseStep(ops, ops.Blocks(l));

  // Stage 3: node-wise hop attention across the K fused representations.
  typename Ops::Value combined{};
  if (config_.use_hop_attention && steps_ > 1) {
    typename Ops::Value scores =
        ops.SoftmaxOp(ops.Affine(hop_scorer_, ops.Concat(fused)));
    for (int l = 0; l < steps_; ++l) {
      typename Ops::Value weighted =
          ops.WeighRows(fused[l], ops.Column(scores, l));
      combined = l == 0 ? weighted : ops.AddTo(combined, weighted);
    }
  } else {
    combined = ops.Copy(fused[0]);
    for (int l = 1; l < steps_; ++l) combined = ops.AddTo(combined, fused[l]);
    if (steps_ > 1) {
      combined = ops.ScaleBy(combined, 1.0f / static_cast<float>(steps_));
    }
  }

  combined = ops.DropoutOp(combined, config_.dropout);
  return MlpOn(ops, classifier_, combined, config_.dropout);
}

ag::Variable AdpaModel::Forward(bool training, Rng* rng) {
  TapeOps ops{propagated_, dp_weights_, training, rng};
  return ForwardOn(ops);
}

Matrix AdpaModel::Evaluate(const std::vector<int64_t>* nodes,
                           Workspace* ws) const {
  WorkspaceOps ops{propagated_, dp_weights_, nodes, ws};
  // Copied out so the caller owns it past the next Reset.
  return *ForwardOn(ops);
}

std::vector<ag::Variable> AdpaModel::Parameters() const {
  std::vector<ag::Variable> params;
  if (dp_weights_.defined()) params.push_back(dp_weights_);
  for (const auto& layer : gate_layers_) {
    for (const auto& p : layer.Parameters()) params.push_back(p);
  }
  for (const auto& layer : recursive_layers_) {
    for (const auto& p : layer.Parameters()) params.push_back(p);
  }
  if (dp_fuse_.num_layers() > 0) {
    for (const auto& p : dp_fuse_.Parameters()) params.push_back(p);
  }
  if (jk_fuse_.in_features() > 0) {
    for (const auto& p : jk_fuse_.Parameters()) params.push_back(p);
  }
  if (hop_scorer_.in_features() > 0) {
    for (const auto& p : hop_scorer_.Parameters()) params.push_back(p);
  }
  for (const auto& p : classifier_.Parameters()) params.push_back(p);
  return params;
}

}  // namespace adpa
