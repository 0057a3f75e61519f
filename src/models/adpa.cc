#include "src/models/adpa.h"

#include <algorithm>
#include <utility>

#include "src/amud/amud.h"
#include "src/core/logging.h"
#include "src/core/random.h"

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
    for (int64_t g = 0; g < blocks_per_step; ++g) linear(2 * f, 1);
    linear(f, h);  // jk_fuse_
  } else if (attends && config.dp_attention == DpAttention::kJk) {
    linear(blocks_per_step * f, h);  // jk_fuse_
  } else {
    linear(blocks_per_step * f, h);  // dp_fuse_
    linear(h, h);
  }
  if (config.use_hop_attention) linear(steps * h, steps);
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
        for (int64_t g = 0; g < blocks_per_step; ++g) {
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
  if (config_.use_hop_attention) {
    hop_scorer_ = nn::Linear(steps_ * config.hidden, steps_, rng);
  }
  classifier_ = nn::Mlp(config.hidden, config.hidden, dataset.num_classes,
                        std::max(1, config.num_layers - 1), rng,
                        config.dropout);
}

ag::Variable AdpaModel::FuseStep(const std::vector<ag::Variable>& blocks,
                                 int step, bool training, Rng* rng) {
  (void)step;
  const int64_t num_blocks = static_cast<int64_t>(blocks.size());
  if (!config_.use_dp_attention) {
    // Ablation: uniform average of blocks, then the fusion MLP on the
    // (replicated) concatenation to keep parameter shapes unchanged.
    ag::Variable mean = blocks[0];
    for (int64_t g = 1; g < num_blocks; ++g) {
      mean = ag::Add(mean, blocks[g]);
    }
    mean = ag::Scale(mean, 1.0f / static_cast<float>(num_blocks));
    std::vector<ag::Variable> replicated(num_blocks, mean);
    return ag::Relu(dp_fuse_.Forward(ag::ConcatCols(replicated), training,
                                     rng));
  }
  switch (config_.dp_attention) {
    case DpAttention::kOriginal: {
      // Eq. (10): learnable per-node, per-block weights, softmax-normalized
      // across blocks, then MLP over the weighted concatenation.
      ag::Variable weights = ag::SoftmaxRows(dp_weights_);
      std::vector<ag::Variable> scaled;
      scaled.reserve(num_blocks);
      for (int64_t g = 0; g < num_blocks; ++g) {
        scaled.push_back(
            ag::ScaleRows(blocks[g], ag::SliceCols(weights, g, g + 1)));
      }
      return ag::Relu(
          dp_fuse_.Forward(ag::ConcatCols(scaled), training, rng));
    }
    case DpAttention::kGate: {
      // Per-block sigmoid gate computed from the block itself.
      std::vector<ag::Variable> scaled;
      scaled.reserve(num_blocks);
      for (int64_t g = 0; g < num_blocks; ++g) {
        ag::Variable gate = ag::Sigmoid(gate_layers_[g].Forward(blocks[g]));
        scaled.push_back(ag::ScaleRows(blocks[g], gate));
      }
      return ag::Relu(
          dp_fuse_.Forward(ag::ConcatCols(scaled), training, rng));
    }
    case DpAttention::kRecursive: {
      // GAMLP-style recursive attention: each block is gated against the
      // running accumulated representation.
      ag::Variable acc = blocks[0];
      for (int64_t g = 1; g < num_blocks; ++g) {
        ag::Variable score = ag::Sigmoid(recursive_layers_[g].Forward(
            ag::ConcatCols({blocks[g], acc})));
        acc = ag::Add(acc, ag::ScaleRows(blocks[g], score));
      }
      return ag::Relu(jk_fuse_.Forward(acc));
    }
    case DpAttention::kJk: {
      // Jumping-knowledge fusion: unweighted concatenation + linear.
      return ag::Relu(jk_fuse_.Forward(ag::ConcatCols(blocks)));
    }
  }
  ADPA_CHECK(false) << "unreachable";
  return blocks[0];
}

ag::Variable AdpaModel::Forward(bool training, Rng* rng) {
  // Stage 2: fuse the k+1 blocks of every step.
  std::vector<ag::Variable> fused;
  fused.reserve(steps_);
  for (int l = 0; l < steps_; ++l) {
    fused.push_back(FuseStep(propagated_[l], l, training, rng));
  }

  // Stage 3: node-wise hop attention across the K fused representations.
  ag::Variable combined;
  if (config_.use_hop_attention && steps_ > 1) {
    ag::Variable scores =
        ag::SoftmaxRows(hop_scorer_.Forward(ag::ConcatCols(fused)));
    for (int l = 0; l < steps_; ++l) {
      ag::Variable weighted =
          ag::ScaleRows(fused[l], ag::SliceCols(scores, l, l + 1));
      combined = l == 0 ? weighted : ag::Add(combined, weighted);
    }
  } else {
    combined = fused[0];
    for (int l = 1; l < steps_; ++l) combined = ag::Add(combined, fused[l]);
    if (steps_ > 1) {
      combined = ag::Scale(combined, 1.0f / static_cast<float>(steps_));
    }
  }

  combined = ag::Dropout(combined, config_.dropout, training, rng);
  return classifier_.Forward(combined, training, rng);
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
  if (config_.use_hop_attention && hop_scorer_.in_features() > 0) {
    for (const auto& p : hop_scorer_.Parameters()) params.push_back(p);
  }
  for (const auto& p : classifier_.Parameters()) params.push_back(p);
  return params;
}

}  // namespace adpa
